#include "analysis/audit.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/reachability.hpp"
#include "util/check.hpp"

namespace sstar::analysis {

namespace {

/// Internal normalized form every audit reduces to: per-task declared
/// access sets, display labels and happens-before edges. Task ids are
/// the model's sequential order, which violations are reported in.
struct TaskSystem {
  std::vector<std::vector<BlockAccess>> sets;  ///< per task, deduped
  std::vector<std::string> labels;
  std::vector<std::pair<int, int>> edges;

  int num_tasks() const { return static_cast<int>(sets.size()); }
};

/// Sort by block and collapse duplicates, a write absorbing a read.
std::vector<BlockAccess> dedupe(std::vector<BlockAccess> set) {
  std::sort(set.begin(), set.end(),
            [](const BlockAccess& a, const BlockAccess& b) {
              if (!(a.block == b.block)) return a.block < b.block;
              return a.access == Access::kWrite && b.access == Access::kRead;
            });
  std::vector<BlockAccess> out;
  for (const BlockAccess& a : set)
    if (out.empty() || !(out.back().block == a.block)) out.push_back(a);
  return out;
}

TaskSystem graph_system(const LuTaskGraph& graph,
                        const std::vector<LuTaskEdge>& edges) {
  TaskSystem sys;
  for (int t = 0; t < graph.num_tasks(); ++t) {
    sys.sets.push_back(dedupe(task_access_set(graph, t)));
    sys.labels.push_back(task_label(graph, t));
  }
  for (const LuTaskEdge& e : edges) sys.edges.push_back({e.from, e.to});
  return sys;
}

TaskSystem program_system(const sim::ParallelProgram& prog,
                          const BlockLayout& lay) {
  TaskSystem sys;
  for (int t = 0; t < static_cast<int>(prog.num_tasks()); ++t) {
    sys.sets.push_back(dedupe(task_access_set(prog, lay, t)));
    sys.labels.push_back(task_label(prog, t));
  }
  sys.edges = prog.happens_before_edges();
  return sys;
}

TaskSystem solve_system(const SolveGraph& graph,
                        const std::vector<std::pair<int, int>>& edges) {
  TaskSystem sys;
  for (int t = 0; t < graph.num_tasks(); ++t) {
    std::vector<BlockAccess> set;
    for (const SolveGraph::RowAccess& a : graph.access_set(t))
      set.push_back({{a.row_block, BlockCoord::kSolveRows},
                     a.write ? Access::kWrite : Access::kRead});
    sys.sets.push_back(dedupe(std::move(set)));
    sys.labels.push_back(graph.task_label(t));
  }
  sys.edges = edges;
  return sys;
}

/// One flattened access, sortable by resource.
struct ResourceAccess {
  BlockCoord block;
  int task = 0;
  Access access = Access::kRead;
};

/// Sort by (resource, task) and keep one access per pair, a write
/// absorbing a read.
void normalize(std::vector<ResourceAccess>* flat) {
  std::sort(flat->begin(), flat->end(),
            [](const ResourceAccess& a, const ResourceAccess& b) {
              if (!(a.block == b.block)) return a.block < b.block;
              if (a.task != b.task) return a.task < b.task;
              return a.access == Access::kWrite &&
                     b.access == Access::kRead;
            });
  flat->erase(std::unique(flat->begin(), flat->end(),
                          [](const ResourceAccess& a,
                             const ResourceAccess& b) {
                            return a.block == b.block && a.task == b.task;
                          }),
              flat->end());
}

/// The ordered-conflict sweep every audit shares: over a normalized
/// flat access list, every W/W or R/W pair on one resource must be
/// ordered by a happens-before path. Unordered pairs are reported with
/// the lower task id, the sequentially earlier task, first.
AuditReport sweep(const TaskSystem& sys, std::vector<ResourceAccess> flat) {
  AuditReport report;
  report.num_tasks = sys.num_tasks();
  report.num_edges = static_cast<std::int64_t>(sys.edges.size());
  normalize(&flat);
  // Only tasks with an access are compared, so only they keep a row.
  std::vector<int> accessing;
  accessing.reserve(flat.size());
  for (const ResourceAccess& a : flat) accessing.push_back(a.task);
  std::sort(accessing.begin(), accessing.end());
  accessing.erase(std::unique(accessing.begin(), accessing.end()),
                  accessing.end());
  const Reachability reach(sys.num_tasks(), sys.edges, accessing);

  std::size_t lo = 0;
  while (lo < flat.size()) {
    std::size_t hi = lo + 1;
    while (hi < flat.size() && flat[hi].block == flat[lo].block) ++hi;
    ++report.num_resources;
    for (std::size_t p = lo; p < hi; ++p) {
      for (std::size_t q = p + 1; q < hi; ++q) {
        if (flat[p].access == Access::kRead &&
            flat[q].access == Access::kRead)
          continue;  // R/R never conflicts
        ++report.pairs_checked;
        if (reach.ordered(flat[p].task, flat[q].task)) continue;
        // Sorted by task within a resource: p is the earlier task.
        const ResourceAccess& first = flat[p];
        const ResourceAccess& second = flat[q];
        AuditViolation v;
        v.task_a = first.task;
        v.task_b = second.task;
        v.label_a = sys.labels[static_cast<std::size_t>(first.task)];
        v.label_b = sys.labels[static_cast<std::size_t>(second.task)];
        v.block = first.block;
        v.access_a = first.access;
        v.access_b = second.access;
        report.violations.push_back(std::move(v));
      }
    }
    lo = hi;
  }
  report.violations_found =
      static_cast<std::int64_t>(report.violations.size());
  return report;
}

AuditReport audit_system(const TaskSystem& sys) {
  std::vector<ResourceAccess> flat;
  for (int t = 0; t < sys.num_tasks(); ++t)
    for (const BlockAccess& a : sys.sets[static_cast<std::size_t>(t)])
      flat.push_back({a.block, t, a.access});
  return sweep(sys, std::move(flat));
}

DynamicAuditReport check_recorded(const TaskSystem& sys,
                                  const std::vector<AccessEvent>& events) {
  DynamicAuditReport report;
  report.events = static_cast<std::int64_t>(events.size());

  // Validate each event against its task's declared set: a write needs a
  // declared write, a read a declared read or write.
  auto declared = [&sys](int task, BlockCoord block,
                         Access access) -> bool {
    const auto& set = sys.sets[static_cast<std::size_t>(task)];
    const auto it = std::lower_bound(
        set.begin(), set.end(), block,
        [](const BlockAccess& a, const BlockCoord& b) { return a.block < b; });
    if (it == set.end() || !(it->block == block)) return false;
    return access == Access::kRead || it->access == Access::kWrite;
  };

  // The ordering re-check runs over the accesses that really happened.
  std::vector<ResourceAccess> actual;
  for (const AccessEvent& ev : events) {
    const bool known = ev.task >= 0 && ev.task < sys.num_tasks();
    if (!known || !declared(ev.task, ev.block, ev.access)) {
      UndeclaredAccess u;
      u.task = ev.task;
      u.label = known ? sys.labels[static_cast<std::size_t>(ev.task)]
                      : "task " + std::to_string(ev.task);
      u.block = ev.block;
      u.access = ev.access;
      report.undeclared.push_back(std::move(u));
    }
    if (known) actual.push_back({ev.block, ev.task, ev.access});
  }
  report.unordered = sweep(sys, std::move(actual)).violations;
  return report;
}

}  // namespace

std::string AuditViolation::message() const {
  std::ostringstream os;
  os << label_a << " [task " << task_a << "] and " << label_b << " [task "
     << task_b << "] both access " << block_name(block) << " ("
     << access_name(access_a) << "/" << access_name(access_b)
     << ") with no ordering path; missing edge " << task_a << " -> "
     << task_b;
  return os.str();
}

std::string AuditReport::summary() const {
  std::ostringstream os;
  os << (ok() ? "PASS" : "FAIL") << ": " << num_tasks << " tasks, "
     << num_edges << " edges, " << num_resources << " resources, "
     << pairs_checked << " conflicting pairs checked, " << violations_found
     << " unordered";
  return os.str();
}

std::string UndeclaredAccess::message() const {
  std::ostringstream os;
  os << label << " [task " << task << "] recorded an undeclared "
     << access_name(access) << " of " << block_name(block);
  return os.str();
}

std::string DynamicAuditReport::summary() const {
  std::ostringstream os;
  os << (ok() ? "PASS" : "FAIL") << ": " << events << " recorded events, "
     << undeclared.size() << " undeclared, " << unordered.size()
     << " unordered conflicts";
  return os.str();
}

AuditReport audit_task_graph(const LuTaskGraph& graph) {
  return audit_task_graph(graph, graph.edges());
}

AuditReport audit_task_graph(const LuTaskGraph& graph,
                             const std::vector<LuTaskEdge>& edges) {
  return audit_system(graph_system(graph, edges));
}

AuditReport audit_program(const sim::ParallelProgram& prog,
                          const BlockLayout& layout) {
  return audit_system(program_system(prog, layout));
}

AuditReport audit_solve_graph(const SolveGraph& graph) {
  return audit_solve_graph(graph, graph.edges());
}

AuditReport audit_solve_graph(const SolveGraph& graph,
                              const std::vector<std::pair<int, int>>& edges) {
  return audit_system(solve_system(graph, edges));
}

DynamicAuditReport check_recorded_accesses(
    const LuTaskGraph& graph, const std::vector<AccessEvent>& events) {
  return check_recorded(graph_system(graph, graph.edges()), events);
}

DynamicAuditReport check_recorded_accesses(
    const sim::ParallelProgram& prog, const BlockLayout& layout,
    const std::vector<AccessEvent>& events) {
  return check_recorded(program_system(prog, layout), events);
}

}  // namespace sstar::analysis
