// Static communication auditor: machine-checked proof that a built
// SPMD program's message plan (the CommOp descriptors sim/comm_plan
// attaches) is correct BEFORE a single message is sent.
//
// The paper's codes communicate exactly one artifact — the Factor(k)
// panel + pivot multicast — yet four distinct properties must hold for
// the rank-per-thread runtime (exec/lu_mp) to be correct over ANY
// conforming Transport, including a future out-of-process one whose
// dynamic deadlock detector cannot see all ranks' state:
//
//  1. match soundness — every recv has exactly one matching send with
//     consistent (source, destination, tag/panel, serialized byte size
//     from comm/serialize), and no orphan sends or recvs; sends and
//     recvs on one (src, dst, tag) channel pair up in program order,
//     which is exactly the transport's FIFO-per-channel guarantee;
//  2. coverage — every kernel call consuming a panel the rank does not
//     own is preceded, in the rank's program order, by the recv that
//     supplies it, and every send (the owner's fan-out AND a 2D row
//     leader's forwarding hop) moves a panel the sender provably holds
//     at that point (factored locally or already received);
//  3. deadlock-freedom — the static wait-for graph over (rank, program
//     position) op nodes, under blocking-recv FIFO semantics, is
//     well-founded (acyclic). This is the proof sketch formerly in
//     exec/lu_mp.cpp turned into an algorithm: on failure the report
//     carries the counterexample wait cycle, op by op;
//  4. release safety — the consumer refcounts the DistBlockStore frees
//     cached panels by (sim::panel_consumer_counts) exactly equal the
//     consumers each rank's program declares, and the coverage replay
//     of 2. runs the store's refcount protocol on them: a cached panel
//     is freed by the consume that brings its count to zero, so a read
//     or a forward after that point, and a panel still cached when the
//     rank's program ends, are flagged at the exact (rank, task, panel).
//
// A dynamic twin, check_recorded_traffic(), cross-validates the
// send/recv events a trace::TraceCollector recorded from the real
// Transport against the statically verified plan — the SSTAR_AUDIT
// pattern applied to communication.
//
// Mutation helpers (mutate_*) support the end-to-end negative mode
// (tools/sstar_audit --comm-self-test and tests/test_comm_audit.cpp):
// each injects one plan defect and reports where, so callers can assert
// the auditor pinpoints the exact rank/task/op.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_sim.hpp"
#include "supernode/block_layout.hpp"
#include "trace/trace.hpp"

namespace sstar::analysis {

/// Where one CommOp sits in a built program: the rank that executes it,
/// the task it is attached to, which list (pre_comms/post_comms), and
/// its index there. Execution order within a task is pre_comms, then
/// kernels, then post_comms — exactly how exec/lu_mp interprets a task.
struct CommOpSite {
  int rank = -1;
  sim::TaskId task = -1;
  bool pre = true;  ///< true: pre_comms, false: post_comms
  int index = 0;    ///< position within that list
  sim::CommOp op;

  /// "rank 2 task 17 pre[0] recv(panel 5 <- rank 0)".
  std::string describe() const;
};

/// One property violation, pinned to the exact rank/task/op (or, for
/// count mismatches, rank/panel) that breaks it.
struct CommAuditIssue {
  enum class Kind {
    kOrphanRecv,       ///< no send supplies this recv: it blocks forever
    kOrphanSend,       ///< no recv drains this send: a lost message
    kSelfMessage,      ///< op's peer is its own rank
    kBadPanel,         ///< tag/panel id outside the layout
    kSizeMismatch,     ///< serialized sizes disagree across a matched pair
    kUncoveredRead,    ///< remote-panel kernel read with no recv before it
    kSendWithoutPanel, ///< send of a panel the sender does not hold yet
    kCountMismatch,    ///< declared consumer count != program's consumers
    kReadAfterRelease, ///< remote-panel kernel read after the count freed it
    kForwardAfterRelease,  ///< send of a cached panel already freed
    kLeak,             ///< cached panel still held when the program ends
  };
  Kind kind = Kind::kOrphanRecv;
  CommOpSite site;   ///< the offending op (kUncoveredRead and
                     ///< kReadAfterRelease: the task, no op; kLeak and
                     ///< kCountMismatch: the rank only, task -1)
  int panel = -1;
  int expected = 0;  ///< kSizeMismatch: send bytes; kCountMismatch: real count
  int actual = 0;    ///< kSizeMismatch: recv bytes; kCountMismatch: declared

  std::string message() const;
};

struct CommAuditReport {
  int ranks = 0;
  int panels = 0;
  std::int64_t sends = 0;            ///< total send ops in the plan
  std::int64_t recvs = 0;            ///< total recv ops in the plan
  std::int64_t matched_pairs = 0;    ///< send/recv pairs proven consistent
  std::int64_t bytes_planned = 0;    ///< sum of serialized sizes over sends
  std::int64_t reads_checked = 0;    ///< remote-panel kernel reads covered
  std::int64_t counts_checked = 0;   ///< (panel, rank) refcount entries
  std::vector<CommAuditIssue> issues;
  /// Counterexample wait-for cycle (op descriptions, in wait order);
  /// empty when the wait-for graph is well-founded.
  std::vector<std::string> deadlock_cycle;

  bool deadlock_free() const { return deadlock_cycle.empty(); }
  bool ok() const { return issues.empty() && deadlock_cycle.empty(); }
  std::string summary() const;
};

/// Audit `prog`'s attached message plan against all four properties.
/// Release safety is checked against `consumer_counts` — the refcounts
/// a DistBlockStore would actually be configured with (pass the result
/// of sim::panel_consumer_counts for the self-audit the executor and
/// CLI run, or a tampered copy to exercise the negative path: an
/// entry edited to release early or late is reported both as a count
/// mismatch and as the read-after-release or leak it causes).
CommAuditReport audit_comm_plan(
    const sim::ParallelProgram& prog, const BlockLayout& layout,
    const std::vector<std::vector<int>>& consumer_counts);

/// Same, with consumer_counts = sim::panel_consumer_counts(prog).
CommAuditReport audit_comm_plan(const sim::ParallelProgram& prog,
                                const BlockLayout& layout);

// --- dynamic cross-validation (recorded Transport traffic) --------------

/// One divergence between the plan and what the transport recorded.
struct TrafficIssue {
  int rank = -1;
  int index = 0;         ///< position in the rank's comm-op sequence
  std::string expected;  ///< planned op ("(end of plan)" when extra)
  std::string observed;  ///< recorded event ("(end of trace)" when missing)

  std::string message() const;
};

struct TrafficReport {
  int ranks = 0;
  std::int64_t events_checked = 0;
  std::vector<TrafficIssue> issues;

  bool ok() const { return issues.empty(); }
  std::string summary() const;
};

/// Check every send/recv event a TraceCollector recorded during an
/// execute_program_mp() run against the statically verified plan: per
/// rank, the recorded traffic must be exactly the planned ops, in
/// program order, with matching peer, tag, and byte count.
TrafficReport check_recorded_traffic(const sim::ParallelProgram& prog,
                                     const BlockLayout& layout,
                                     const trace::Trace& trace);

// --- mutation self-test support -----------------------------------------

/// What a mutate_* helper changed, so a self-test can assert the audit
/// pinpoints it. `found == false` means the program had no site for
/// this mutation (e.g. too few ranks); nothing was changed.
struct CommMutation {
  bool found = false;
  int rank = -1;          ///< rank whose plan was mutated
  sim::TaskId task = -1;  ///< task whose op list was mutated
  int panel = -1;         ///< panel/tag involved
  int peer = -1;          ///< the op's peer, when one op was targeted
  std::string what;       ///< human description of the injected defect

  /// The rank/task/panel a correct audit must name. For the deadlock
  /// injection, the cycle must include the moved op instead.
  bool pinpointed_by(const CommAuditReport& report) const;
};

/// Delete the seed-th send op (modulo the plan's sends): its recv is
/// orphaned at the exact (rank, task, op).
CommMutation mutate_drop_send(sim::ParallelProgram& prog, std::uint64_t seed);

/// Swap the panels of two recvs that sit in different tasks of one
/// rank: the first task now receives the wrong panel, so its kernel
/// read of the original panel loses coverage.
CommMutation mutate_reorder_recvs(sim::ParallelProgram& prog,
                                  std::uint64_t seed);

/// Re-tag one send to a different panel: the original channel's recv is
/// orphaned, and the re-tagged send is itself orphaned or moves a panel
/// the sender does not hold.
CommMutation mutate_corrupt_tag(sim::ParallelProgram& prog,
                                std::uint64_t seed);

/// Over- or under-count one (panel, rank) consumer refcount entry
/// (seed selects the entry and the direction). Mutates `counts` only;
/// pass the result to audit_comm_plan's consumer_counts.
CommMutation mutate_miscount_consumer(const sim::ParallelProgram& prog,
                                      std::vector<std::vector<int>>& counts,
                                      std::uint64_t seed);

/// Move an owner's send behind a recv that transitively depends on it:
/// creates a genuine static wait cycle (recv-before-send on both sides
/// of a rank pair), which the auditor must print as a counterexample.
CommMutation mutate_inject_deadlock(sim::ParallelProgram& prog);

}  // namespace sstar::analysis
