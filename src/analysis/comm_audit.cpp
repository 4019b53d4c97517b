#include "analysis/comm_audit.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "comm/serialize.hpp"
#include "sim/comm_plan.hpp"

namespace sstar::analysis {

namespace {

// The plan flattened per rank: every CommOp and every kernel call, in
// the exact order exec/lu_mp executes them (program order over tasks;
// pre_comms, kernels, post_comms within a task). Kernel entries carry
// no CommOpSite index — they only gate the coverage walk.
struct FlatOp {
  enum class What { kSend, kRecv, kFactor, kConsume };
  What what = What::kSend;
  CommOpSite site;   // comm ops: full site; kernels: rank/task only
  int panel = -1;    // comm ops: op.k; kernels: the panel touched
  int seq = 0;       // position within the rank's flattened sequence
};

struct FlatProgram {
  std::vector<std::vector<FlatOp>> per_rank;  // indexed by rank
  std::int64_t sends = 0;
  std::int64_t recvs = 0;
};

FlatProgram flatten(const sim::ParallelProgram& prog) {
  FlatProgram flat;
  flat.per_rank.resize(static_cast<std::size_t>(prog.processors()));
  for (int p = 0; p < prog.processors(); ++p) {
    std::vector<FlatOp>& ops = flat.per_rank[static_cast<std::size_t>(p)];
    for (const sim::TaskId t : prog.proc_order(p)) {
      const sim::TaskDef& def = prog.task(t);
      const auto push_comm = [&](const sim::CommOp& op, bool pre, int idx) {
        FlatOp f;
        f.what = op.kind == sim::CommOp::Kind::kSend ? FlatOp::What::kSend
                                                     : FlatOp::What::kRecv;
        f.site = CommOpSite{p, t, pre, idx, op};
        f.panel = op.k;
        f.seq = static_cast<int>(ops.size());
        (f.what == FlatOp::What::kSend ? flat.sends : flat.recvs)++;
        ops.push_back(f);
      };
      for (int i = 0; i < static_cast<int>(def.pre_comms.size()); ++i)
        push_comm(def.pre_comms[static_cast<std::size_t>(i)], true, i);
      for (const LuTask& kc : def.kernels) {
        FlatOp f;
        f.what = kc.type == LuTask::Type::kFactor
                     ? FlatOp::What::kFactor
                     : FlatOp::What::kConsume;
        f.site.rank = p;
        f.site.task = t;
        f.panel = kc.k;
        f.seq = static_cast<int>(ops.size());
        ops.push_back(f);
      }
      for (int i = 0; i < static_cast<int>(def.post_comms.size()); ++i)
        push_comm(def.post_comms[static_cast<std::size_t>(i)], false, i);
    }
  }
  return flat;
}

std::string op_text(const sim::CommOp& op) {
  std::ostringstream os;
  if (op.kind == sim::CommOp::Kind::kSend)
    os << "send(panel " << op.k << " -> rank " << op.peer << ")";
  else
    os << "recv(panel " << op.k << " <- rank " << op.peer << ")";
  return os.str();
}

// Serialized wire size of panel k's broadcast payload, or -1 when k is
// not a panel of this layout (flagged separately as kBadPanel).
std::int64_t wire_bytes(const BlockLayout& layout, int k) {
  if (k < 0 || k >= layout.num_blocks()) return -1;
  return static_cast<std::int64_t>(comm::factor_panel_bytes(layout, k));
}

}  // namespace

std::string CommOpSite::describe() const {
  std::ostringstream os;
  os << "rank " << rank << " task " << task << ' ' << (pre ? "pre" : "post")
     << '[' << index << "] " << op_text(op);
  return os.str();
}

std::string CommAuditIssue::message() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kOrphanRecv:
      os << site.describe() << " has no matching send: the rank blocks "
         << "forever on a message nobody posts";
      break;
    case Kind::kOrphanSend:
      os << site.describe() << " has no matching recv: the message is "
         << "never drained";
      break;
    case Kind::kSelfMessage:
      os << site.describe() << " addresses its own rank";
      break;
    case Kind::kBadPanel:
      os << site.describe() << ": panel " << panel
         << " is outside the layout";
      break;
    case Kind::kSizeMismatch:
      os << site.describe() << ": matched pair disagrees on wire size ("
         << expected << " bytes sent, " << actual << " expected by recv)";
      break;
    case Kind::kUncoveredRead:
      os << "rank " << site.rank << " task " << site.task
         << " consumes remote panel " << panel
         << " with no recv of it earlier in the rank's program order";
      break;
    case Kind::kSendWithoutPanel:
      os << site.describe() << " moves a panel the rank neither factored "
         << "nor received by that point";
      break;
    case Kind::kCountMismatch:
      os << "rank " << site.rank << " panel " << panel
         << ": declared consumer refcount " << actual << ", but the rank's "
         << "program performs " << expected << " consuming update(s)";
      break;
    case Kind::kReadAfterRelease:
      os << "rank " << site.rank << " task " << site.task
         << " consumes remote panel " << panel
         << " after its consumer refcount released it";
      break;
    case Kind::kForwardAfterRelease:
      os << site.describe() << " forwards a panel its consumer refcount "
         << "already released";
      break;
    case Kind::kLeak:
      os << "rank " << site.rank << " ends its program with panel " << panel
         << " still cached (consumer refcount never reached zero)";
      break;
  }
  return os.str();
}

std::string CommAuditReport::summary() const {
  std::ostringstream os;
  os << "comm audit: " << ranks << " rank(s), " << panels << " panel(s), "
     << sends << " send(s)/" << recvs << " recv(s) (" << matched_pairs
     << " matched pair(s), " << bytes_planned << " bytes), " << reads_checked
     << " remote read(s) covered, " << counts_checked
     << " refcount(s) checked, "
     << (deadlock_cycle.empty() ? "wait-for graph well-founded"
                                : "WAIT-FOR CYCLE FOUND")
     << ", " << issues.size() << " issue(s)";
  return os.str();
}

std::string TrafficIssue::message() const {
  std::ostringstream os;
  os << "rank " << rank << " comm op " << index << ": plan has " << expected
     << ", transport recorded " << observed;
  return os.str();
}

std::string TrafficReport::summary() const {
  std::ostringstream os;
  os << "traffic cross-validation: " << ranks << " rank(s), "
     << events_checked << " recorded event(s) checked against the plan, "
     << issues.size() << " divergence(s)";
  return os.str();
}

CommAuditReport audit_comm_plan(
    const sim::ParallelProgram& prog, const BlockLayout& layout,
    const std::vector<std::vector<int>>& consumer_counts) {
  CommAuditReport report;
  report.ranks = prog.processors();
  report.panels = layout.num_blocks();

  const FlatProgram flat = flatten(prog);
  report.sends = flat.sends;
  report.recvs = flat.recvs;
  const std::vector<int> owner = sim::panel_owners(prog);
  const auto owner_of = [&](int k) {
    return k >= 0 && k < static_cast<int>(owner.size())
               ? owner[static_cast<std::size_t>(k)]
               : -1;
  };

  // --- property 1: match soundness --------------------------------------
  // Group ops by channel (src, dst, tag). FIFO per channel pairs the
  // i-th send with the i-th recv — the transport's delivery guarantee —
  // so position i of both lists must exist and agree on wire size.
  std::map<std::tuple<int, int, int>,
           std::pair<std::vector<const FlatOp*>, std::vector<const FlatOp*>>>
      channels;
  for (const std::vector<FlatOp>& ops : flat.per_rank) {
    for (const FlatOp& f : ops) {
      if (f.what != FlatOp::What::kSend && f.what != FlatOp::What::kRecv)
        continue;
      const sim::CommOp& op = f.site.op;
      if (op.peer == f.site.rank) {
        CommAuditIssue issue;
        issue.kind = CommAuditIssue::Kind::kSelfMessage;
        issue.site = f.site;
        issue.panel = op.k;
        report.issues.push_back(issue);
        continue;  // a self-message belongs to no channel
      }
      if (op.peer < 0 || op.peer >= prog.processors() ||
          wire_bytes(layout, op.k) < 0) {
        CommAuditIssue issue;
        issue.kind = CommAuditIssue::Kind::kBadPanel;
        issue.site = f.site;
        issue.panel = op.k;
        report.issues.push_back(issue);
        continue;
      }
      if (f.what == FlatOp::What::kSend)
        channels[{f.site.rank, op.peer, op.k}].first.push_back(&f);
      else
        channels[{op.peer, f.site.rank, op.k}].second.push_back(&f);
    }
  }
  for (const auto& [key, lists] : channels) {
    const auto& [sends, recvs] = lists;
    const std::size_t paired = std::min(sends.size(), recvs.size());
    report.matched_pairs += static_cast<std::int64_t>(paired);
    for (std::size_t i = 0; i < paired; ++i) {
      // One layout serves both endpoints today, so the sizes agree by
      // construction; the check is the seam where per-rank layouts of a
      // real distributed build would diverge.
      const std::int64_t sent = wire_bytes(layout, sends[i]->site.op.k);
      const std::int64_t want = wire_bytes(layout, recvs[i]->site.op.k);
      report.bytes_planned += sent;
      if (sent != want) {
        CommAuditIssue issue;
        issue.kind = CommAuditIssue::Kind::kSizeMismatch;
        issue.site = recvs[i]->site;
        issue.panel = recvs[i]->site.op.k;
        issue.expected = static_cast<int>(sent);
        issue.actual = static_cast<int>(want);
        report.issues.push_back(issue);
      }
    }
    for (std::size_t i = paired; i < sends.size(); ++i) {
      report.bytes_planned += wire_bytes(layout, sends[i]->site.op.k);
      CommAuditIssue issue;
      issue.kind = CommAuditIssue::Kind::kOrphanSend;
      issue.site = sends[i]->site;
      issue.panel = std::get<2>(key);
      report.issues.push_back(issue);
    }
    for (std::size_t i = paired; i < recvs.size(); ++i) {
      CommAuditIssue issue;
      issue.kind = CommAuditIssue::Kind::kOrphanRecv;
      issue.site = recvs[i]->site;
      issue.panel = std::get<2>(key);
      report.issues.push_back(issue);
    }
  }

  // --- properties 2 and 4: coverage and release safety ----------------
  // Replay each rank's program against the panel residency its store
  // would have: Factor(k) holds an owned panel for good; recv(k) caches
  // it with its declared consumer refcount, and the consuming update
  // that brings the count to zero frees it. Every remote-panel consume
  // and every send — the owner's fan-out and the 2D row leader's
  // forwarding hop alike — must find its panel held at that point.
  // A panel or rank missing from `consumer_counts` counts as a declared
  // zero — shorter vectors are checked, not rejected, so a truncated
  // configuration is itself a reportable mismatch.
  const auto declared = [&](int k, int p) {
    return k < static_cast<int>(consumer_counts.size()) &&
                   p < static_cast<int>(
                           consumer_counts[static_cast<std::size_t>(k)].size())
               ? consumer_counts[static_cast<std::size_t>(k)]
                                [static_cast<std::size_t>(p)]
               : 0;
  };
  std::vector<std::vector<int>> real(
      static_cast<std::size_t>(report.panels),
      std::vector<int>(static_cast<std::size_t>(prog.processors()), 0));
  enum class Held : char { kNever, kOwned, kCached, kReleased };
  for (int p = 0; p < prog.processors(); ++p) {
    std::vector<Held> held(static_cast<std::size_t>(report.panels),
                           Held::kNever);
    std::vector<int> remaining(static_cast<std::size_t>(report.panels), 0);
    const auto flag = [&](CommAuditIssue::Kind kind, const FlatOp& f) {
      CommAuditIssue issue;
      issue.kind = kind;
      issue.site = f.site;
      issue.panel = f.panel;
      report.issues.push_back(issue);
    };
    for (const FlatOp& f : flat.per_rank[static_cast<std::size_t>(p)]) {
      // An out-of-layout panel (flagged as kBadPanel above) is never held.
      const bool in_layout = f.panel >= 0 && f.panel < report.panels;
      const auto k = static_cast<std::size_t>(in_layout ? f.panel : 0);
      const Held h = in_layout ? held[k] : Held::kNever;
      switch (f.what) {
        case FlatOp::What::kFactor:
          if (in_layout) held[k] = Held::kOwned;
          break;
        case FlatOp::What::kRecv:
          if (in_layout) {
            held[k] = Held::kCached;
            remaining[k] = declared(f.panel, p);
          }
          break;
        case FlatOp::What::kSend:
          if (h == Held::kReleased)
            flag(CommAuditIssue::Kind::kForwardAfterRelease, f);
          else if (h == Held::kNever)
            flag(CommAuditIssue::Kind::kSendWithoutPanel, f);
          break;
        case FlatOp::What::kConsume:
          if (owner_of(f.panel) == p) break;  // owned storage
          report.reads_checked++;
          if (h == Held::kReleased)
            flag(CommAuditIssue::Kind::kReadAfterRelease, f);
          else if (h == Held::kNever)
            flag(CommAuditIssue::Kind::kUncoveredRead, f);
          if (!in_layout) break;
          real[k][static_cast<std::size_t>(p)]++;
          if (h == Held::kCached && --remaining[k] == 0)
            held[k] = Held::kReleased;
          break;
      }
    }
    for (int k = 0; k < report.panels; ++k) {
      if (held[static_cast<std::size_t>(k)] != Held::kCached) continue;
      CommAuditIssue issue;
      issue.kind = CommAuditIssue::Kind::kLeak;
      issue.site.rank = p;
      issue.panel = k;
      report.issues.push_back(issue);
    }
  }

  // --- property 3: deadlock-freedom -------------------------------------
  // Wait-for graph over comm-op nodes. Node u -> v means "v cannot
  // complete before u": program order within a rank (ops execute
  // sequentially; a send is issued the moment it is reached, a recv
  // completes only when matched), plus one edge from each send to its
  // FIFO-paired recv. The plan is deadlock-free iff this graph is
  // well-founded; a cycle is the counterexample schedule in which every
  // involved rank waits on the next.
  std::vector<const FlatOp*> nodes;
  std::vector<std::vector<int>> node_of_rank(
      static_cast<std::size_t>(prog.processors()));
  for (int p = 0; p < prog.processors(); ++p) {
    for (const FlatOp& f : flat.per_rank[static_cast<std::size_t>(p)]) {
      if (f.what != FlatOp::What::kSend && f.what != FlatOp::What::kRecv)
        continue;
      node_of_rank[static_cast<std::size_t>(p)].push_back(
          static_cast<int>(nodes.size()));
      nodes.push_back(&f);
    }
  }
  std::vector<std::vector<int>> succ(nodes.size());
  std::vector<int> indeg(nodes.size(), 0);
  const auto add_edge = [&](int u, int v) {
    succ[static_cast<std::size_t>(u)].push_back(v);
    indeg[static_cast<std::size_t>(v)]++;
  };
  for (const std::vector<int>& seq : node_of_rank)
    for (std::size_t i = 1; i < seq.size(); ++i)
      add_edge(seq[i - 1], seq[i]);
  {
    // FIFO-paired match edges, reusing the channel grouping above. The
    // per-channel lists are in program order already (flatten() walks
    // each rank front to back).
    std::map<const FlatOp*, int> node_id;
    for (int i = 0; i < static_cast<int>(nodes.size()); ++i)
      node_id[nodes[static_cast<std::size_t>(i)]] = i;
    for (const auto& [key, lists] : channels) {
      (void)key;
      const auto& [sends, recvs] = lists;
      const std::size_t paired = std::min(sends.size(), recvs.size());
      for (std::size_t i = 0; i < paired; ++i)
        add_edge(node_id[sends[i]], node_id[recvs[i]]);
    }
  }
  {
    std::vector<int> ready;
    std::vector<int> deg = indeg;
    for (int i = 0; i < static_cast<int>(nodes.size()); ++i)
      if (deg[static_cast<std::size_t>(i)] == 0) ready.push_back(i);
    std::size_t done = 0;
    while (!ready.empty()) {
      const int u = ready.back();
      ready.pop_back();
      ++done;
      for (const int v : succ[static_cast<std::size_t>(u)])
        if (--deg[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
    }
    if (done < nodes.size()) {
      // Some ops can never run. The residual nodes (deg > 0) are the
      // ones on or downstream of a cycle; peel residual nodes with no
      // residual successor until only the cycles themselves remain,
      // then walk successor links until a node repeats and emit the
      // loop in wait order.
      std::vector<char> residual(nodes.size(), 0);
      for (std::size_t i = 0; i < nodes.size(); ++i)
        residual[i] = deg[i] > 0 ? 1 : 0;
      for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t u = 0; u < nodes.size(); ++u) {
          if (!residual[u]) continue;
          bool has_live_succ = false;
          for (const int v : succ[u])
            if (residual[static_cast<std::size_t>(v)]) {
              has_live_succ = true;
              break;
            }
          if (!has_live_succ) {
            residual[u] = 0;
            changed = true;
          }
        }
      }
      std::vector<int> path;
      std::vector<int> seen(nodes.size(), -1);
      int u = 0;
      while (u < static_cast<int>(nodes.size()) &&
             !residual[static_cast<std::size_t>(u)])
        ++u;
      while (u < static_cast<int>(nodes.size()) &&
             seen[static_cast<std::size_t>(u)] < 0) {
        seen[static_cast<std::size_t>(u)] = static_cast<int>(path.size());
        path.push_back(u);
        for (const int v : succ[static_cast<std::size_t>(u)]) {
          if (residual[static_cast<std::size_t>(v)]) {
            u = v;
            break;
          }
        }
      }
      if (u < static_cast<int>(nodes.size()))
        for (std::size_t i =
                 static_cast<std::size_t>(seen[static_cast<std::size_t>(u)]);
             i < path.size(); ++i)
          report.deadlock_cycle.push_back(
              nodes[static_cast<std::size_t>(path[i])]->site.describe());
    }
  }

  // --- property 4: the declared counts themselves ----------------------
  // The refcount DistBlockStore frees a cached panel by must equal the
  // number of consuming updates the rank's program declares — an
  // overcount leaks the panel, an undercount frees it early (and the
  // replay above reports the leak or the read-after-release it causes).
  for (int k = 0; k < report.panels; ++k) {
    for (int p = 0; p < prog.processors(); ++p) {
      const int actual =
          real[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)];
      report.counts_checked++;
      if (declared(k, p) != actual) {
        CommAuditIssue issue;
        issue.kind = CommAuditIssue::Kind::kCountMismatch;
        issue.site.rank = p;
        issue.panel = k;
        issue.expected = actual;
        issue.actual = declared(k, p);
        report.issues.push_back(issue);
      }
    }
  }
  return report;
}

CommAuditReport audit_comm_plan(const sim::ParallelProgram& prog,
                                const BlockLayout& layout) {
  return audit_comm_plan(prog, layout, sim::panel_consumer_counts(prog));
}

TrafficReport check_recorded_traffic(const sim::ParallelProgram& prog,
                                     const BlockLayout& layout,
                                     const trace::Trace& trace) {
  TrafficReport report;
  report.ranks = prog.processors();
  const FlatProgram flat = flatten(prog);

  for (int p = 0; p < prog.processors(); ++p) {
    // Planned comm ops in program order.
    std::vector<const FlatOp*> plan;
    for (const FlatOp& f : flat.per_rank[static_cast<std::size_t>(p)])
      if (f.what == FlatOp::What::kSend || f.what == FlatOp::What::kRecv)
        plan.push_back(&f);
    // Recorded comm events of this rank's lane, in time order — one
    // thread drives a rank, so time order IS its execution order.
    std::vector<const trace::TraceEvent*> got;
    if (p < trace.num_lanes) {
      for (const trace::TraceEvent* e : trace.lane_events(p))
        if (e->kind == trace::EventKind::kSend ||
            e->kind == trace::EventKind::kRecvWait)
          got.push_back(e);
    }

    const std::size_t n = std::max(plan.size(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto fmt_event = [](const trace::TraceEvent& e) {
        std::ostringstream os;
        os << (e.kind == trace::EventKind::kSend ? "send(panel "
                                                 : "recv(panel ")
           << e.k
           << (e.kind == trace::EventKind::kSend ? " -> rank " : " <- rank ")
           << e.peer << ", " << e.bytes << " bytes)";
        return os.str();
      };
      if (i >= plan.size()) {
        TrafficIssue issue;
        issue.rank = p;
        issue.index = static_cast<int>(i);
        issue.expected = "(end of plan)";
        issue.observed = fmt_event(*got[i]);
        report.issues.push_back(issue);
        continue;
      }
      if (i >= got.size()) {
        TrafficIssue issue;
        issue.rank = p;
        issue.index = static_cast<int>(i);
        issue.expected = plan[i]->site.describe();
        issue.observed = "(end of trace)";
        report.issues.push_back(issue);
        continue;
      }
      report.events_checked++;
      const sim::CommOp& op = plan[i]->site.op;
      const trace::TraceEvent& e = *got[i];
      const bool kind_ok =
          (op.kind == sim::CommOp::Kind::kSend) ==
          (e.kind == trace::EventKind::kSend);
      const std::int64_t want_bytes =
          op.k >= 0 && op.k < layout.num_blocks()
              ? static_cast<std::int64_t>(comm::factor_panel_bytes(layout,
                                                                   op.k))
              : -1;
      if (!kind_ok || e.k != op.k || e.peer != op.peer ||
          e.bytes != want_bytes) {
        TrafficIssue issue;
        issue.rank = p;
        issue.index = static_cast<int>(i);
        issue.expected = plan[i]->site.describe();
        issue.observed = fmt_event(e);
        report.issues.push_back(issue);
      }
    }
  }
  return report;
}

// --- mutation self-test support -----------------------------------------

namespace {

// Every comm-op site of the program, in deterministic (rank, program
// order) order, filtered by kind.
std::vector<CommOpSite> all_sites(const sim::ParallelProgram& prog,
                                  sim::CommOp::Kind kind) {
  std::vector<CommOpSite> sites;
  for (int p = 0; p < prog.processors(); ++p) {
    for (const sim::TaskId t : prog.proc_order(p)) {
      const sim::TaskDef& def = prog.task(t);
      for (int i = 0; i < static_cast<int>(def.pre_comms.size()); ++i)
        if (def.pre_comms[static_cast<std::size_t>(i)].kind == kind)
          sites.push_back(
              {p, t, true, i, def.pre_comms[static_cast<std::size_t>(i)]});
      for (int i = 0; i < static_cast<int>(def.post_comms.size()); ++i)
        if (def.post_comms[static_cast<std::size_t>(i)].kind == kind)
          sites.push_back(
              {p, t, false, i, def.post_comms[static_cast<std::size_t>(i)]});
    }
  }
  return sites;
}

std::vector<sim::CommOp>& op_list(sim::ParallelProgram& prog,
                                  const CommOpSite& site) {
  sim::TaskDef& def = prog.mutable_task(site.task);
  return site.pre ? def.pre_comms : def.post_comms;
}

}  // namespace

bool CommMutation::pinpointed_by(const CommAuditReport& report) const {
  if (!found) return false;
  for (const CommAuditIssue& issue : report.issues) {
    if (issue.panel != panel) continue;
    if (issue.kind == CommAuditIssue::Kind::kCountMismatch)
      return issue.site.rank == rank;
    if (issue.site.rank == rank && issue.site.task == task) return true;
  }
  // The deadlock injection is pinpointed by the counterexample cycle
  // naming the moved op: exact rank and task in the prefix, the panel
  // in the op text.
  std::ostringstream prefix;
  prefix << "rank " << rank << " task " << task << ' ';
  std::ostringstream optext;
  optext << "(panel " << panel << ' ';
  for (const std::string& line : report.deadlock_cycle)
    if (line.rfind(prefix.str(), 0) == 0 &&
        line.find(optext.str()) != std::string::npos)
      return true;
  return false;
}

CommMutation mutate_drop_send(sim::ParallelProgram& prog,
                              std::uint64_t seed) {
  const std::vector<CommOpSite> sends =
      all_sites(prog, sim::CommOp::Kind::kSend);
  CommMutation m;
  if (sends.empty()) return m;
  const CommOpSite& victim =
      sends[static_cast<std::size_t>(seed % sends.size())];
  std::vector<sim::CommOp>& list = op_list(prog, victim);
  list.erase(list.begin() + victim.index);

  m.found = true;
  m.rank = victim.op.peer;  // the orphaned recv is flagged on the receiver
  m.panel = victim.op.k;
  m.peer = victim.rank;
  // Find the receiving task so pinpointed_by() can demand the exact
  // (rank, task): the orphaned recv of this panel from this sender.
  for (const CommOpSite& r : all_sites(prog, sim::CommOp::Kind::kRecv)) {
    if (r.rank == victim.op.peer && r.op.k == victim.op.k &&
        r.op.peer == victim.rank) {
      m.task = r.task;
      break;
    }
  }
  std::ostringstream os;
  os << "dropped " << victim.describe();
  m.what = os.str();
  return m;
}

CommMutation mutate_reorder_recvs(sim::ParallelProgram& prog,
                                  std::uint64_t seed) {
  const std::vector<CommOpSite> recvs =
      all_sites(prog, sim::CommOp::Kind::kRecv);
  CommMutation m;
  // Two recvs of different panels, in different tasks of one rank: swap
  // their ops so the earlier task receives the later panel. Its kernels
  // then consume their original panel with no recv before them.
  for (std::size_t off = 0; off < recvs.size(); ++off) {
    const CommOpSite& a =
        recvs[static_cast<std::size_t>((seed + off) % recvs.size())];
    for (const CommOpSite& b : recvs) {
      if (b.rank != a.rank || b.task == a.task || b.op.k == a.op.k) continue;
      const CommOpSite& first = a.task < b.task ? a : b;
      const CommOpSite& second = a.task < b.task ? b : a;
      std::swap(op_list(prog, first)[static_cast<std::size_t>(first.index)],
                op_list(prog, second)[static_cast<std::size_t>(second.index)]);
      m.found = true;
      m.rank = first.rank;
      m.task = first.task;
      m.panel = first.op.k;
      m.peer = first.op.peer;
      std::ostringstream os;
      os << "swapped " << first.describe() << " with " << second.describe();
      m.what = os.str();
      return m;
    }
  }
  return m;
}

CommMutation mutate_corrupt_tag(sim::ParallelProgram& prog,
                                std::uint64_t seed) {
  const std::vector<CommOpSite> sends =
      all_sites(prog, sim::CommOp::Kind::kSend);
  CommMutation m;
  if (sends.empty()) return m;
  const std::vector<int> owner = sim::panel_owners(prog);
  const int nb = static_cast<int>(owner.size());
  if (nb < 2) return m;
  const CommOpSite& victim =
      sends[static_cast<std::size_t>(seed % sends.size())];
  const int wrong = (victim.op.k + 1) % nb;
  op_list(prog, victim)[static_cast<std::size_t>(victim.index)].k = wrong;

  m.found = true;
  m.rank = victim.op.peer;
  m.panel = victim.op.k;  // the receiver's recv of the ORIGINAL tag orphans
  m.peer = victim.rank;
  for (const CommOpSite& r : all_sites(prog, sim::CommOp::Kind::kRecv)) {
    if (r.rank == victim.op.peer && r.op.k == victim.op.k &&
        r.op.peer == victim.rank) {
      m.task = r.task;
      break;
    }
  }
  std::ostringstream os;
  os << "re-tagged " << victim.describe() << " to panel " << wrong;
  m.what = os.str();
  return m;
}

CommMutation mutate_miscount_consumer(const sim::ParallelProgram& prog,
                                      std::vector<std::vector<int>>& counts,
                                      std::uint64_t seed) {
  CommMutation m;
  // Collect the nonzero entries (real consumers) and pick one; odd
  // seeds undercount (early free), even seeds overcount (leak).
  std::vector<std::pair<int, int>> entries;
  for (int k = 0; k < static_cast<int>(counts.size()); ++k)
    for (int p = 0;
         p < static_cast<int>(counts[static_cast<std::size_t>(k)].size());
         ++p)
      if (counts[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] >
          0)
        entries.push_back({k, p});
  if (entries.empty()) return m;
  const auto [k, p] = entries[static_cast<std::size_t>(
      (seed / 2) % entries.size())];
  const int delta = (seed % 2 == 0) ? +1 : -1;
  counts[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] += delta;

  m.found = true;
  m.rank = p;
  m.panel = k;
  // Name the rank's first task consuming the panel, for the message.
  for (const sim::TaskId t : prog.proc_order(p)) {
    for (const LuTask& kc : prog.task(t).kernels) {
      if (kc.type == LuTask::Type::kUpdate && kc.k == k) {
        m.task = t;
        break;
      }
    }
    if (m.task >= 0) break;
  }
  std::ostringstream os;
  os << (delta > 0 ? "overcounted" : "undercounted")
     << " consumer refcount of panel " << k << " on rank " << p;
  m.what = os.str();
  return m;
}

CommMutation mutate_inject_deadlock(sim::ParallelProgram& prog) {
  CommMutation m;
  // Find two matched pairs crossing one rank pair in opposite
  // directions — S1: s -> r (panel k1), S2: r -> s (panel k2) — with
  // r's recv of k1 before S2 and s's send S1 before its recv of k2.
  // Moving S1 to just after that recv closes the loop: s waits for k2,
  // which r only sends after receiving k1, which s no longer sends
  // until its wait on k2 ends.
  const std::vector<CommOpSite> sends =
      all_sites(prog, sim::CommOp::Kind::kSend);
  const std::vector<CommOpSite> recvs =
      all_sites(prog, sim::CommOp::Kind::kRecv);

  // Program-order position of every task on its rank, to compare op
  // positions cheaply (same task => pre before post, then list index).
  std::vector<int> pos(prog.num_tasks(), -1);
  for (int p = 0; p < prog.processors(); ++p) {
    int i = 0;
    for (const sim::TaskId t : prog.proc_order(p)) pos[t] = i++;
  }
  const auto before = [&](const CommOpSite& a, const CommOpSite& b) {
    if (pos[a.task] != pos[b.task]) return pos[a.task] < pos[b.task];
    if (a.pre != b.pre) return a.pre;
    return a.index < b.index;
  };
  const auto find_recv = [&](int rank, int src,
                             int k) -> const CommOpSite* {
    for (const CommOpSite& r : recvs)
      if (r.rank == rank && r.op.peer == src && r.op.k == k) return &r;
    return nullptr;
  };

  for (const CommOpSite& s1 : sends) {
    const int s = s1.rank, r = s1.op.peer, k1 = s1.op.k;
    const CommOpSite* r1 = find_recv(r, s, k1);
    if (r1 == nullptr) continue;
    for (const CommOpSite& s2 : sends) {
      if (s2.rank != r || s2.op.peer != s) continue;
      const CommOpSite* r2 = find_recv(s, r, s2.op.k);
      if (r2 == nullptr) continue;
      if (!before(*r1, s2) || !before(s1, *r2)) continue;

      // Move S1 directly behind R2 in s's program: erase, then insert.
      const sim::CommOp moved = s1.op;
      std::vector<sim::CommOp>& from = op_list(prog, s1);
      from.erase(from.begin() + s1.index);
      CommOpSite dest = *r2;
      if (s1.task == r2->task && s1.pre == r2->pre &&
          s1.index < r2->index)
        dest.index--;  // erasing S1 shifted R2 left in the same list
      std::vector<sim::CommOp>& to = op_list(prog, dest);
      to.insert(to.begin() + dest.index + 1, moved);

      m.found = true;
      m.rank = s;
      m.task = dest.task;
      m.panel = k1;
      m.peer = r;
      std::ostringstream os;
      os << "moved " << s1.describe() << " behind " << r2->describe();
      m.what = os.str();
      return m;
    }
  }
  return m;
}

}  // namespace sstar::analysis
