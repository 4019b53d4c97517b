#include "sim/comm_plan.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace sstar::sim {

namespace {

int num_panels(const ParallelProgram& prog) {
  int nb = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(prog.num_tasks()); ++t) {
    for (const LuTask& kc : prog.task(t).kernels)
      nb = std::max(nb, std::max(kc.k, kc.j) + 1);
  }
  return nb;
}

}  // namespace

std::vector<int> panel_owners(const ParallelProgram& prog) {
  std::vector<int> owner(static_cast<std::size_t>(num_panels(prog)), -1);
  for (int p = 0; p < prog.processors(); ++p) {
    for (const TaskId t : prog.proc_order(p)) {
      for (const LuTask& kc : prog.task(t).kernels) {
        if (kc.type != LuTask::Type::kFactor) continue;
        SSTAR_CHECK_MSG(owner[kc.k] == -1 || owner[kc.k] == p,
                        "Factor(" << kc.k << ") appears on ranks "
                                  << owner[kc.k] << " and " << p);
        owner[static_cast<std::size_t>(kc.k)] = p;
      }
    }
  }
  return owner;
}

std::vector<std::vector<int>> panel_consumer_counts(
    const ParallelProgram& prog) {
  const std::vector<int> owner = panel_owners(prog);
  std::vector<std::vector<int>> counts(
      owner.size(),
      std::vector<int>(static_cast<std::size_t>(prog.processors()), 0));
  for (int p = 0; p < prog.processors(); ++p) {
    for (const TaskId t : prog.proc_order(p)) {
      for (const LuTask& kc : prog.task(t).kernels) {
        if (kc.type != LuTask::Type::kUpdate) continue;
        if (owner[static_cast<std::size_t>(kc.k)] == p) continue;
        counts[static_cast<std::size_t>(kc.k)][static_cast<std::size_t>(p)]++;
      }
    }
  }
  return counts;
}

void attach_panel_comms(ParallelProgram& prog, const Grid& grid) {
  SSTAR_CHECK_MSG(grid.size() == prog.processors(),
                  "comm plan grid " << grid.rows << "x" << grid.cols
                                    << " != " << prog.processors()
                                    << " program ranks");
  const std::vector<int> owner = panel_owners(prog);
  const int nb = static_cast<int>(owner.size());

  for (TaskId t = 0; t < static_cast<TaskId>(prog.num_tasks()); ++t) {
    prog.mutable_task(t).pre_comms.clear();
    prog.mutable_task(t).post_comms.clear();
  }

  // First-use walk: per rank, the first task whose kUpdate kernels
  // consume a panel the rank does not (yet) hold locally.
  struct Need {
    int rank = -1;
    TaskId task = -1;
  };
  std::vector<TaskId> factor_task(static_cast<std::size_t>(nb), -1);
  std::vector<std::vector<Need>> needs(static_cast<std::size_t>(nb));
  std::vector<char> have(static_cast<std::size_t>(nb));
  for (int p = 0; p < prog.processors(); ++p) {
    std::fill(have.begin(), have.end(), 0);
    for (const TaskId t : prog.proc_order(p)) {
      for (const LuTask& kc : prog.task(t).kernels) {
        if (kc.type == LuTask::Type::kFactor) {
          factor_task[static_cast<std::size_t>(kc.k)] = t;
          have[static_cast<std::size_t>(kc.k)] = 1;
          continue;
        }
        if (have[static_cast<std::size_t>(kc.k)]) continue;
        SSTAR_CHECK_MSG(owner[static_cast<std::size_t>(kc.k)] != p,
                        "rank " << p << " consumes panel " << kc.k
                                << " before its own Factor task");
        needs[static_cast<std::size_t>(kc.k)].push_back(Need{p, t});
        have[static_cast<std::size_t>(kc.k)] = 1;
      }
    }
  }

  // Attach the plan, panel by ascending k so a task consuming several
  // panels receives them in elimination order.
  for (int k = 0; k < nb; ++k) {
    if (needs[static_cast<std::size_t>(k)].empty()) continue;
    const int o = owner[static_cast<std::size_t>(k)];
    SSTAR_CHECK_MSG(o >= 0, "panel " << k << " consumed but never factored");
    const TaskId ft = factor_task[static_cast<std::size_t>(k)];
    auto& sends = prog.mutable_task(ft).post_comms;

    // Group consumers by grid row; the walk visited ranks in ascending
    // order, so each row's list is already rank-sorted.
    std::map<int, std::vector<Need>> by_row;
    for (const Need& n : needs[static_cast<std::size_t>(k)])
      by_row[n.rank / grid.cols].push_back(n);

    const int orow = o / grid.cols;
    for (const auto& [row, members] : by_row) {
      if (row == orow) {
        // The owner serves its own grid row directly.
        for (const Need& n : members) {
          sends.push_back({CommOp::Kind::kSend, n.rank, k});
          prog.mutable_task(n.task).pre_comms.push_back(
              {CommOp::Kind::kRecv, o, k});
        }
        continue;
      }
      // Remote row: one copy to the row leader, which forwards to its
      // peers as soon as the panel arrives (before its own kernels).
      const Need& leader = members.front();
      sends.push_back({CommOp::Kind::kSend, leader.rank, k});
      auto& lead_pre = prog.mutable_task(leader.task).pre_comms;
      lead_pre.push_back({CommOp::Kind::kRecv, o, k});
      for (std::size_t i = 1; i < members.size(); ++i) {
        lead_pre.push_back({CommOp::Kind::kSend, members[i].rank, k});
        prog.mutable_task(members[i].task)
            .pre_comms.push_back({CommOp::Kind::kRecv, leader.rank, k});
      }
    }
  }
}

void attach_panel_comms(ParallelProgram& prog) {
  attach_panel_comms(prog, Grid{1, prog.processors()});
}

}  // namespace sstar::sim
