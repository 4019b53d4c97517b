// Rank-per-thread SPMD message-passing execution of built LU programs.
//
// This is the distributed-memory execution model the paper actually
// targets, realized in one process: every virtual processor of a
// ParallelProgram becomes a RANK driven by its own thread, owning a
// private SStarNumeric built over a DistBlockStore — storage for its
// mapped column blocks ONLY, plus a refcounted cache of received factor
// panels that frees each panel after its last consuming Update
// (core/block_store.hpp). Distribution honesty is structural: an
// undeclared remote read is an out-of-store lookup that throws with
// rank/block diagnostics, it cannot silently read a replica. Ranks
// share no numeric state; the ONLY way data moves is the transport:
//
//   Factor(k)    — runs on owner(k); its post_comms send the serialized
//                  panel (diag + L panel + pivot sequence, comm/serialize)
//                  to every consumer per the plan of sim/comm_plan;
//   Update(k,j)  — blocks in recv() at the consuming rank's first use of
//                  panel k, materializes the payload in the rank's panel
//                  cache, then executes ScaleSwap+Update against local
//                  storage; the cached panel is freed after the rank's
//                  last Update that consumes it (sim::panel_consumer_counts
//                  supplies the refcount).
//
// The kernels themselves run through exec::run_lu_task, the one dispatch
// the threaded executors (exec/lu_real) share; the program is the same
// data the simulator prices and the auditors check.
//
// Because every rank executes its program order and the per-column
// kernel sequence equals the sequential one, the merged factors are
// bitwise-identical to SStarNumeric::factorize() at ANY rank count —
// the property the differential test harness (tests/test_mp_*)
// enforces.
//
// Failure handling: a rank that throws (kernel check, bad payload)
// aborts the transport, so every peer blocked in recv() unblocks with a
// TransportError instead of hanging; the first root cause is rethrown
// to the caller. Provable deadlocks (all live ranks blocked) surface as
// DeadlockError with a per-rank dump — see comm/transport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "comm/transport.hpp"
#include "core/block_store.hpp"
#include "core/numeric.hpp"
#include "matrix/sparse.hpp"
#include "sim/event_sim.hpp"

namespace sstar::exec {

struct MpOptions {
  /// Wall-clock bound per blocked recv before the transport declares a
  /// hang (only reached when progress stalls without a provable
  /// deadlock, e.g. a wedged peer thread).
  double watchdog_seconds = 120.0;
  /// How ranks are realized when `transport` is null:
  ///   kInProc — one thread per rank, InProcTransport mailboxes;
  ///   kProc   — one OS PROCESS per rank, ProcTransport shared-memory
  ///             mailboxes (comm/proc_transport; Linux only). Ranks then
  ///             share no address space at all: factors, pivots, memory
  ///             stats and trace events travel back through an explicit
  ///             result segment, and a rank process dying mid-run aborts
  ///             the transport with a pinned diagnostic instead of
  ///             hanging its peers. Factors are bitwise-identical across
  ///             the two kinds (tests/test_mp_transport_matrix.cpp).
  enum class TransportKind { kInProc, kProc };
  TransportKind transport_kind = TransportKind::kInProc;
  /// kProc: shared-memory message-pool capacity per run (bump-allocated;
  /// untouched pages cost nothing). See ProcTransport::kDefaultPoolBytes.
  std::size_t proc_pool_bytes = std::size_t{256} << 20;
  /// Plug in an external transport (the MPI seam). Must satisfy
  /// ranks() == program processors; stats are read back from it.
  /// nullptr = a fresh transport of `transport_kind` per call. With
  /// kProc the transport must use process-shared primitives.
  comm::Transport* transport = nullptr;
  /// TEST HOOK: called once per rank on its freshly built store, before
  /// the rank runs (e.g. to force an early panel release with
  /// set_release_override and prove the failure is caught loudly).
  /// Under kInProc it runs in the caller's thread; under kProc it runs
  /// INSIDE the forked rank process — which also makes it the fault
  /// injection point for peer-death tests.
  std::function<void(int rank, DistBlockStore& store)> store_hook;
};

struct MpStats {
  /// One rank's store footprint over the run (bytes = doubles * 8).
  struct RankMemoryStats {
    std::int64_t owned_bytes = 0;       ///< fixed owner-area allocation
    std::int64_t peak_cache_bytes = 0;  ///< panel-cache high water
    std::int64_t peak_bytes = 0;        ///< owned + cache high water
    int peak_panels_cached = 0;
    /// Remote panels still resident after the run — a refcount leak;
    /// must be 0 (tools/sstar_mp fails verification otherwise).
    int resident_panels = 0;
  };

  double seconds = 0.0;  ///< wall time, rank launch to last join
  std::vector<comm::RankCommStats> rank_stats;
  std::vector<RankMemoryStats> memory;  ///< per rank
  std::int64_t total_messages() const;
  std::int64_t total_bytes() const;
  /// Sum over ranks of peak_bytes — the machine-wide store footprint,
  /// comparable against the sequential PackedBlockStore size.
  std::int64_t peak_store_bytes_total() const;
  /// Sum over ranks of resident_panels (0 on a leak-free run).
  int panels_leaked() const;
};

/// Execute `prog` on one thread per rank: each rank runs its tasks'
/// LuTask kernels through exec::run_lu_task, the dispatch the threaded
/// executors share, and its comm ops through the transport (the comm
/// plan must have been attached — both 1D and 2D builders do this).
/// `a` is assembled per rank; `result` (constructed on the same layout)
/// receives the merged factors: for each supernode the owner's
/// diagonal/L panel/pivots and, per U block, the column-owner's slice.
/// Throws on rank failure or deadlock; never hangs.
MpStats execute_program_mp(const sim::ParallelProgram& prog,
                           const SparseMatrix& a, SStarNumeric& result,
                           const MpOptions& opt = {});

}  // namespace sstar::exec
