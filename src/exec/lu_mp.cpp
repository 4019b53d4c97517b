#include "exec/lu_mp.hpp"

#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "comm/proc_transport.hpp"
#include "comm/serialize.hpp"
#include "exec/lu_real.hpp"
#include "sim/comm_plan.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

#if defined(__linux__)
#include <cerrno>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#define SSTAR_MP_PROC_SUPPORTED 1
#else
#define SSTAR_MP_PROC_SUPPORTED 0
#endif

namespace sstar::exec {

namespace {

// One rank's SPMD program: program order, blocking receives at first
// use, kernel interpretation against the rank's owner-only store.
// (Unowned storage simply does not exist on the rank — DistBlockStore
// throws on any undeclared remote access, the structural successor of
// the NaN-poisoning this runtime used over full replicas.)
//
// Deadlock freedom is machine-checked, not argued: the static
// communication auditor (analysis/comm_audit) builds the wait-for
// graph over every (rank, program position) comm op — per-rank program
// order plus the FIFO send->recv match edges — and proves it
// well-founded before a message moves, printing the counterexample
// wait cycle if a plan ever regresses (sstar_mp runs it up front;
// `sstar_audit --comm` and the comm_audit ctest suite cover all
// program variants). The invariant the plans maintain, which the proof
// certifies: every blocking recv's matching send sits at a strictly
// earlier position in the wait-for order, because each task consumes
// at most one panel and a leader's forwarding sends ride directly
// behind its own receive.
void run_rank(const sim::ParallelProgram& prog, int rank, SStarNumeric& num,
              const SparseMatrix& a, comm::Transport& tp) {
  num.assemble(a);  // a DistBlockStore scatters only its owned columns

  // Tracing: this rank's thread records on lane `rank`; each task's
  // kernel spans, transport events and audited block accesses carry
  // the program task id.
  const trace::ScopedLane trace_lane(rank);
  for (const sim::TaskId t : prog.proc_order(rank)) {
    const sim::TaskDef& def = prog.task(t);
    if (def.kernels.empty() && def.pre_comms.empty() &&
        def.post_comms.empty())
      continue;  // modeling-only task (work shares, barriers)
    const trace::ScopedTraceTask trace_task(t);
    for (const sim::CommOp& op : def.pre_comms) {
      if (op.kind == sim::CommOp::Kind::kRecv) {
        const comm::Message m = tp.recv(rank, op.peer, op.k);
        comm::apply_factor_panel(num, op.k, m.payload.data(),
                                 m.payload.size());
      } else {
        tp.send(rank, op.peer, op.k, comm::serialize_factor_panel(num, op.k));
      }
    }
    for (const LuTask& task : def.kernels) run_lu_task(num, task);
    for (const sim::CommOp& op : def.post_comms) {
      if (op.kind == sim::CommOp::Kind::kSend) {
        tp.send(rank, op.peer, op.k, comm::serialize_factor_panel(num, op.k));
      } else {
        const comm::Message m = tp.recv(rank, op.peer, op.k);
        comm::apply_factor_panel(num, op.k, m.payload.data(),
                                 m.payload.size());
      }
    }
  }
  tp.finish(rank);
}

// One rank's "local memory": an SStarNumeric over an owner-only
// DistBlockStore — the rank's mapped column blocks plus a refcounted
// cache for received factor panels (refcounts from the comm plan).
std::unique_ptr<SStarNumeric> build_replica(
    const BlockLayout& lay, const std::vector<int>& owner,
    const std::vector<std::vector<int>>& uses, int r,
    const SStarNumeric& result, const MpOptions& opt,
    DistBlockStore** store_out) {
  DistBlockStore::Options so;
  so.rank = r;
  so.owner = owner;
  so.consumer_uses.reserve(uses.size());
  for (const std::vector<int>& per_rank : uses)
    so.consumer_uses.push_back(per_rank[static_cast<std::size_t>(r)]);
  auto store = std::make_unique<DistBlockStore>(lay, std::move(so));
  *store_out = store.get();
  if (opt.store_hook) opt.store_hook(r, *store);
  auto num = std::make_unique<SStarNumeric>(lay, std::move(store));
  // Every rank factors under the caller's pivot policy: one knob
  // (result's PivotPolicy) governs the whole SPMD run, so a
  // threshold-pivoted distributed factorization stays bitwise
  // identical to the sequential one under the same policy.
  num->set_pivot_policy(result.pivot_policy());
  return num;
}

#if SSTAR_MP_PROC_SUPPORTED

// ---- out-of-process execution (one fork per rank) ---------------------
//
// The rank processes talk through the ProcTransport segment (created
// BEFORE forking, inherited by address-space copy); results come back
// through a second driver-owned MAP_SHARED segment with one slot per
// rank:
//
//   [ RankResult[ranks] | per-rank trace arrays | per-rank factor blobs ]
//
// The factor blob is written/read by the SAME canonical loop on both
// sides (owned supernodes' diag/L/pivots/pivot-monitor, then the U
// slices the rank owns as column owner — exactly what the merge
// consumes), so no per-field offsets are exchanged. Error propagation
// mirrors the threaded path: a rank's own failure (CheckError, or a
// PivotError with its pivot, column and cause) is the root cause and
// aborts the transport; abort propagation and watchdog / deadlock
// errors are reconstructed from their recorded kind. A rank
// process that DIES instead of reporting (crash, _exit injection) is
// caught by the parent's waitpid monitor, which aborts the transport so
// live peers unblock promptly instead of riding out the watchdog.

struct RankResult {
  std::int32_t status = 0;      // 0 = never reported, 1 = ok, 2 = error
  std::int32_t error_kind = 0;  // 1 CheckError, 2 TransportError,
                                // 3 Deadlock, 4 PivotError
  char error_msg[4096] = {};
  double pivot = 0.0;  // error_kind 4: PivotError's fields
  std::int32_t pivot_column = -1;
  std::int32_t pivot_cause = 0;
  MpStats::RankMemoryStats mem;
  std::int64_t trace_count = 0;
  std::int32_t trace_overflow = 0;
};

// Bytes of factor payload rank r ships back to the parent.
std::size_t ship_bytes(const BlockLayout& lay, const std::vector<int>& owner,
                       int r) {
  std::size_t bytes = 0;
  for (int k = 0; k < lay.num_blocks(); ++k) {
    const std::size_t w = static_cast<std::size_t>(lay.width(k));
    if (owner[static_cast<std::size_t>(k)] == r) {
      const std::size_t lrows = lay.panel_rows(k).size();
      bytes += (w * w + lrows * w + 2 * w) * sizeof(double) +
               w * sizeof(std::int32_t);
    }
    for (const BlockRef& ref : lay.u_blocks(k))
      if (owner[static_cast<std::size_t>(ref.block)] == r)
        bytes += static_cast<std::size_t>(ref.count) * w * sizeof(double);
  }
  return bytes;
}

// Upper bound on the trace events rank r records: one per send, three
// per recv (the wait span + the panel cache alloc/free pair), one per
// Factor kernel, two per ScaleSwap+Update pair.
std::size_t trace_capacity(const sim::ParallelProgram& prog, int r) {
  std::size_t cap = 16;
  for (const sim::TaskId t : prog.proc_order(r)) {
    const sim::TaskDef& def = prog.task(t);
    cap += 3 * (def.pre_comms.size() + def.post_comms.size());
    for (const LuTask& task : def.kernels)
      cap += task.type == LuTask::Type::kFactor ? 1 : 2;
  }
  return cap;
}

MpStats execute_program_mp_proc(const sim::ParallelProgram& prog,
                                const SparseMatrix& a, SStarNumeric& result,
                                const MpOptions& opt,
                                const std::vector<int>& owner,
                                const std::vector<std::vector<int>>& uses) {
  const BlockLayout& lay = result.layout();
  const int ranks = prog.processors();

  comm::ProcTransport tp(ranks, opt.watchdog_seconds, opt.proc_pool_bytes);

  const bool tracing = trace::TraceCollector::active() != nullptr;

  // Result segment layout (created before fork, like the transport).
  constexpr std::size_t kAlign = 64;
  const auto align_up = [](std::size_t v) {
    return (v + kAlign - 1) & ~(kAlign - 1);
  };
  std::vector<std::size_t> trace_off(static_cast<std::size_t>(ranks));
  std::vector<std::size_t> trace_cap(static_cast<std::size_t>(ranks));
  std::vector<std::size_t> blob_off(static_cast<std::size_t>(ranks));
  std::size_t total =
      align_up(sizeof(RankResult) * static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    trace_cap[static_cast<std::size_t>(r)] =
        tracing ? trace_capacity(prog, r) : 0;
    trace_off[static_cast<std::size_t>(r)] = total;
    total += align_up(trace_cap[static_cast<std::size_t>(r)] *
                      sizeof(trace::TraceEvent));
  }
  for (int r = 0; r < ranks; ++r) {
    blob_off[static_cast<std::size_t>(r)] = total;
    total += align_up(ship_bytes(lay, owner, r));
  }
  void* mem = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  SSTAR_CHECK_MSG(mem != MAP_FAILED, "result segment mmap of "
                                         << total << " bytes failed, errno "
                                         << errno);
  auto* seg = static_cast<std::uint8_t*>(mem);
  auto* results = reinterpret_cast<RankResult*>(seg);
  for (int r = 0; r < ranks; ++r) new (results + r) RankResult();

  WallTimer timer;
  std::vector<pid_t> pids(static_cast<std::size_t>(ranks), -1);
  for (int r = 0; r < ranks; ++r) {
    const pid_t pid = ::fork();
    SSTAR_CHECK_MSG(pid >= 0, "fork of rank " << r << " failed, errno "
                                              << errno);
    if (pid > 0) {
      pids[static_cast<std::size_t>(r)] = pid;
      continue;
    }
    // ---- rank process -------------------------------------------------
    RankResult& res = results[r];
    // Filter inherited pre-fork trace events by time: everything this
    // rank ships started after this instant.
    const double fork_t = tracing ? trace::TraceCollector::now() : 0.0;
    try {
      DistBlockStore* store = nullptr;
      const std::unique_ptr<SStarNumeric> num =
          build_replica(lay, owner, uses, r, result, opt, &store);
      run_rank(prog, r, *num, a, tp);

      std::uint8_t* blob = seg + blob_off[static_cast<std::size_t>(r)];
      const auto put = [&blob](const void* p, std::size_t n) {
        std::memcpy(blob, p, n);
        blob += n;
      };
      const BlockStore& data = num->data();
      for (int k = 0; k < lay.num_blocks(); ++k) {
        const std::size_t w = static_cast<std::size_t>(lay.width(k));
        if (owner[static_cast<std::size_t>(k)] == r) {
          put(data.diag(k), w * w * sizeof(double));
          put(data.l_panel(k),
              static_cast<std::size_t>(data.l_ld(k)) * w * sizeof(double));
          put(num->pivot_magnitudes().data() + lay.start(k),
              w * sizeof(double));
          put(num->pivot_colmaxes().data() + lay.start(k),
              w * sizeof(double));
          put(num->pivot_of_col().data() + lay.start(k),
              w * sizeof(std::int32_t));
        }
        for (const BlockRef& ref : lay.u_blocks(k))
          if (owner[static_cast<std::size_t>(ref.block)] == r)
            put(data.u_block(k, ref.offset),
                static_cast<std::size_t>(ref.count) * w * sizeof(double));
      }
      res.mem.owned_bytes = store->owned_doubles() * 8;
      res.mem.peak_cache_bytes = store->peak_cache_doubles() * 8;
      res.mem.peak_bytes = store->peak_doubles() * 8;
      res.mem.peak_panels_cached = store->peak_panels_cached();
      res.mem.resident_panels =
          static_cast<int>(store->resident_remote_panels().size());
      res.status = 1;
    } catch (const comm::DeadlockError& e) {
      res.error_kind = 3;
      std::strncpy(res.error_msg, e.what(), sizeof(res.error_msg) - 1);
      res.status = 2;
    } catch (const comm::TransportError& e) {
      res.error_kind = 2;
      std::strncpy(res.error_msg, e.what(), sizeof(res.error_msg) - 1);
      res.status = 2;
    } catch (const std::exception& e) {
      std::ostringstream os;
      os << "rank " << r << " failed: " << e.what();
      res.error_kind = 1;
      if (const auto* pe = dynamic_cast<const PivotError*>(&e)) {
        res.error_kind = 4;
        res.pivot = pe->pivot();
        res.pivot_column = pe->column();
        res.pivot_cause = static_cast<std::int32_t>(pe->cause());
      }
      std::strncpy(res.error_msg, os.str().c_str(),
                   sizeof(res.error_msg) - 1);
      res.status = 2;
      tp.abort(os.str());
    }
    if (tracing) {
      // The collector (and this thread's buffer) came across the fork;
      // CLOCK_MONOTONIC is system-wide, so the parent's epoch still
      // applies and the shipped times line up with its other lanes.
      trace::TraceCollector* tc = trace::TraceCollector::active();
      tc->uninstall();
      const trace::Trace tr = tc->take();
      auto* out = reinterpret_cast<trace::TraceEvent*>(
          seg + trace_off[static_cast<std::size_t>(r)]);
      for (const trace::TraceEvent& e : tr.events) {
        if (e.lane != r || e.t1 < fork_t) continue;  // pre-fork inheritance
        if (res.trace_count ==
            static_cast<std::int64_t>(trace_cap[static_cast<std::size_t>(r)])) {
          res.trace_overflow = 1;
          break;
        }
        out[res.trace_count++] = e;
      }
    }
    ::_exit(0);
  }

  // Reap and monitor: a rank that died without reporting poisons the
  // transport immediately so its live peers unblock with the pinned
  // diagnostic instead of waiting out the watchdog.
  std::string death_msg;
  int remaining = ranks;
  while (remaining > 0) {
    int st = 0;
    const pid_t p = ::waitpid(-1, &st, 0);
    if (p < 0) {
      if (errno == EINTR) continue;
      SSTAR_FAIL("waitpid failed with errno " << errno << " while "
                                              << remaining
                                              << " rank process(es) remain");
    }
    int r = -1;
    for (int i = 0; i < ranks; ++i)
      if (pids[static_cast<std::size_t>(i)] == p) r = i;
    if (r < 0) continue;  // not one of ours
    --remaining;
    const bool abnormal = !WIFEXITED(st) || WEXITSTATUS(st) != 0 ||
                          results[r].status == 0;
    if (abnormal) {
      std::ostringstream os;
      os << "rank " << r << " process exited unexpectedly (";
      if (WIFSIGNALED(st))
        os << "signal " << WTERMSIG(st);
      else
        os << "exit code " << (WIFEXITED(st) ? WEXITSTATUS(st) : -1);
      os << ") before completing its program";
      if (death_msg.empty()) death_msg = os.str();
      tp.abort(os.str());
    }
  }
  const double seconds = timer.seconds();

  struct SegGuard {
    void* p;
    std::size_t n;
    ~SegGuard() { ::munmap(p, n); }
  } guard{mem, total};

  // Re-record the shipped trace events in the parent's collector; lane
  // and task ids were already resolved in the rank process.
  if (tracing) {
    for (int r = 0; r < ranks; ++r) {
      const auto* ev = reinterpret_cast<const trace::TraceEvent*>(
          seg + trace_off[static_cast<std::size_t>(r)]);
      for (std::int64_t i = 0; i < results[r].trace_count; ++i)
        trace::TraceCollector::record(ev[i], /*explicit_lane=*/true);
    }
  }

  // Error resolution, mirroring the threaded path: a rank's own failure
  // is the root cause, rethrown with its type; deadlock and abort
  // propagation come after.
  for (int r = 0; r < ranks; ++r) {
    const RankResult& res = results[r];
    if (res.status != 2) continue;
    if (res.error_kind == 4)
      throw PivotError(res.pivot, res.pivot_column,
                       static_cast<PivotError::Cause>(res.pivot_cause));
    if (res.error_kind == 1) throw CheckError(res.error_msg);
  }
  for (int r = 0; r < ranks; ++r)
    if (results[r].status == 2 && results[r].error_kind == 3)
      throw comm::DeadlockError(results[r].error_msg);
  if (!death_msg.empty()) throw comm::TransportError(death_msg);
  for (int r = 0; r < ranks; ++r)
    if (results[r].status == 2)
      throw comm::TransportError(results[r].error_msg);
  for (int r = 0; r < ranks; ++r)
    SSTAR_CHECK_MSG(!results[r].trace_overflow,
                    "rank " << r << " overflowed its "
                            << trace_cap[static_cast<std::size_t>(r)]
                            << "-event trace shipping buffer");

  // Merge the shipped factor blobs — the mirror of the child's writer
  // loop, byte for byte.
  result.assemble(a);
  BlockStore& out = result.data();
  std::vector<double> dtmp;
  std::vector<std::int32_t> itmp;
  for (int r = 0; r < ranks; ++r) {
    const std::uint8_t* blob = seg + blob_off[static_cast<std::size_t>(r)];
    const auto get = [&blob](void* p, std::size_t n) {
      std::memcpy(p, blob, n);
      blob += n;
    };
    for (int k = 0; k < lay.num_blocks(); ++k) {
      const std::size_t w = static_cast<std::size_t>(lay.width(k));
      if (owner[static_cast<std::size_t>(k)] == r) {
        get(out.diag(k), w * w * sizeof(double));
        get(out.l_panel(k),
            static_cast<std::size_t>(out.l_ld(k)) * w * sizeof(double));
        dtmp.resize(2 * w);
        get(dtmp.data(), 2 * w * sizeof(double));
        itmp.resize(w);
        get(itmp.data(), w * sizeof(std::int32_t));
        result.adopt_pivots(k, itmp.data());
        result.adopt_pivot_monitor(k, dtmp.data(), dtmp.data() + w);
      }
      for (const BlockRef& ref : lay.u_blocks(k))
        if (owner[static_cast<std::size_t>(ref.block)] == r)
          get(out.u_block(k, ref.offset),
              static_cast<std::size_t>(ref.count) * w * sizeof(double));
    }
  }

  MpStats stats;
  stats.seconds = seconds;
  stats.rank_stats.reserve(static_cast<std::size_t>(ranks));
  stats.memory.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    stats.rank_stats.push_back(tp.stats(r));
    stats.memory.push_back(results[r].mem);
  }
  return stats;
}

#endif  // SSTAR_MP_PROC_SUPPORTED

}  // namespace

std::int64_t MpStats::total_messages() const {
  std::int64_t n = 0;
  for (const comm::RankCommStats& s : rank_stats) n += s.messages_sent;
  return n;
}

std::int64_t MpStats::total_bytes() const {
  std::int64_t n = 0;
  for (const comm::RankCommStats& s : rank_stats) n += s.bytes_sent;
  return n;
}

std::int64_t MpStats::peak_store_bytes_total() const {
  std::int64_t n = 0;
  for (const RankMemoryStats& m : memory) n += m.peak_bytes;
  return n;
}

int MpStats::panels_leaked() const {
  int n = 0;
  for (const RankMemoryStats& m : memory) n += m.resident_panels;
  return n;
}

MpStats execute_program_mp(const sim::ParallelProgram& prog,
                           const SparseMatrix& a, SStarNumeric& result,
                           const MpOptions& opt) {
  const BlockLayout& lay = result.layout();
  const int ranks = prog.processors();

  const std::vector<int> owner = sim::panel_owners(prog);
  SSTAR_CHECK_MSG(static_cast<int>(owner.size()) == lay.num_blocks(),
                  "program kernels cover " << owner.size() << " supernodes, "
                                           << "layout has "
                                           << lay.num_blocks());
  for (int k = 0; k < lay.num_blocks(); ++k)
    SSTAR_CHECK_MSG(owner[static_cast<std::size_t>(k)] >= 0,
                    "no rank factors supernode " << k);
  const std::vector<std::vector<int>> uses = sim::panel_consumer_counts(prog);

  if (opt.transport_kind == MpOptions::TransportKind::kProc) {
#if SSTAR_MP_PROC_SUPPORTED
    return execute_program_mp_proc(prog, a, result, opt, owner, uses);
#else
    throw comm::TransportError(
        "out-of-process execution requires fork and process-shared "
        "pthread primitives (Linux); use TransportKind::kInProc here");
#endif
  }

  comm::InProcTransport tp(ranks, opt.watchdog_seconds);

  std::vector<std::unique_ptr<SStarNumeric>> replicas;
  std::vector<DistBlockStore*> stores;  // non-owning views into replicas
  replicas.reserve(static_cast<std::size_t>(ranks));
  stores.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    DistBlockStore* store = nullptr;
    replicas.push_back(
        build_replica(lay, owner, uses, r, result, opt, &store));
    stores.push_back(store);
  }

  std::mutex err_mu;
  std::exception_ptr root_cause;       // a rank's own failure
  std::exception_ptr any_failure;      // incl. abort propagation
  WallTimer timer;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        run_rank(prog, r, *replicas[static_cast<std::size_t>(r)], a, tp);
      } catch (const comm::TransportError&) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!any_failure) any_failure = std::current_exception();
      } catch (const std::exception& e) {
        {
          const std::lock_guard<std::mutex> lock(err_mu);
          if (!root_cause) root_cause = std::current_exception();
        }
        std::ostringstream os;
        os << "rank " << r << " failed: " << e.what();
        tp.abort(os.str());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double seconds = timer.seconds();

  if (root_cause) std::rethrow_exception(root_cause);
  if (any_failure) std::rethrow_exception(any_failure);

  // Merge: each supernode's factor columns, gathered from their owner's
  // store into the caller's (packed) result. Every area is a contiguous
  // storage run addressed identically in both stores — u_block(k, off)
  // with ld = width(k) — so the copies are bitwise.
  result.assemble(a);
  BlockStore& out = result.data();
  for (int k = 0; k < lay.num_blocks(); ++k) {
    const SStarNumeric& src = *replicas[static_cast<std::size_t>(
        owner[static_cast<std::size_t>(k)])];
    const int w = lay.width(k);
    std::memcpy(out.diag(k), src.data().diag(k),
                static_cast<std::size_t>(out.diag_ld(k)) * w * sizeof(double));
    std::memcpy(out.l_panel(k), src.data().l_panel(k),
                static_cast<std::size_t>(out.l_ld(k)) * w * sizeof(double));
    result.adopt_pivots(k, src.pivot_of_col().data() + lay.start(k));
    result.adopt_pivot_monitor(k,
                               src.pivot_magnitudes().data() + lay.start(k),
                               src.pivot_colmaxes().data() + lay.start(k));
    for (const BlockRef& ref : lay.u_blocks(k)) {
      const SStarNumeric& col_owner = *replicas[static_cast<std::size_t>(
          owner[static_cast<std::size_t>(ref.block)])];
      std::memcpy(out.u_block(k, ref.offset),
                  col_owner.data().u_block(k, ref.offset),
                  static_cast<std::size_t>(ref.count) * out.u_ld(k) *
                      sizeof(double));
    }
  }

  MpStats stats;
  stats.seconds = seconds;
  stats.rank_stats.reserve(static_cast<std::size_t>(ranks));
  stats.memory.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    stats.rank_stats.push_back(tp.stats(r));
    const DistBlockStore& s = *stores[static_cast<std::size_t>(r)];
    MpStats::RankMemoryStats m;
    m.owned_bytes = s.owned_doubles() * 8;
    m.peak_cache_bytes = s.peak_cache_doubles() * 8;
    m.peak_bytes = s.peak_doubles() * 8;
    m.peak_panels_cached = s.peak_panels_cached();
    m.resident_panels =
        static_cast<int>(s.resident_remote_panels().size());
    stats.memory.push_back(m);
  }
  return stats;
}

}  // namespace sstar::exec
