#include "analysis/critical_path.hpp"

#include <algorithm>

namespace sstar::analysis {

DagCriticalPath realized_dag_critical_path(const trace::Trace& trace,
                                           const LuTaskGraph& graph) {
  const int nt = graph.num_tasks();
  // Per-task measured weights, split by span kind so the path report
  // can attribute its length.
  std::vector<double> w_factor(static_cast<std::size_t>(nt), 0.0);
  std::vector<double> w_scale(static_cast<std::size_t>(nt), 0.0);
  std::vector<double> w_update(static_cast<std::size_t>(nt), 0.0);

  DagCriticalPath out;
  for (const trace::TraceEvent& e : trace.events) {
    const double dur = e.t1 - e.t0;
    const bool k_ok = e.k >= 0 && e.k < graph.layout().num_blocks();
    int t = -1;
    switch (e.kind) {
      case trace::EventKind::kFactor:
        t = k_ok ? graph.factor_task(e.k) : -1;
        if (t >= 0) w_factor[static_cast<std::size_t>(t)] += dur;
        break;
      case trace::EventKind::kScale:
        t = k_ok ? graph.update_task(e.k, e.j) : -1;
        if (t >= 0) w_scale[static_cast<std::size_t>(t)] += dur;
        break;
      case trace::EventKind::kUpdate:
        t = k_ok ? graph.update_task(e.k, e.j) : -1;
        if (t >= 0) w_update[static_cast<std::size_t>(t)] += dur;
        break;
      default:
        continue;  // comm / solve spans carry no factorization weight
    }
    if (t >= 0) out.total_seconds += dur;
  }

  // Longest path in one sweep over the ids, a topological order.
  std::vector<double> dist(static_cast<std::size_t>(nt), 0.0);
  std::vector<int> from(static_cast<std::size_t>(nt), -1);
  int best = -1;
  for (int t = 0; t < nt; ++t) {
    const std::size_t ut = static_cast<std::size_t>(t);
    for (const int p : graph.preds(t))
      if (dist[static_cast<std::size_t>(p)] > dist[ut]) {
        dist[ut] = dist[static_cast<std::size_t>(p)];
        from[ut] = p;
      }
    dist[ut] += w_factor[ut] + w_scale[ut] + w_update[ut];
    if (best < 0 || dist[ut] > dist[static_cast<std::size_t>(best)]) best = t;
  }

  if (best >= 0) {
    out.seconds = dist[static_cast<std::size_t>(best)];
    for (int t = best; t >= 0; t = from[static_cast<std::size_t>(t)]) {
      const std::size_t ut = static_cast<std::size_t>(t);
      out.factor_seconds += w_factor[ut];
      out.scale_seconds += w_scale[ut];
      out.update_seconds += w_update[ut];
      out.tasks.push_back(t);
    }
    std::reverse(out.tasks.begin(), out.tasks.end());
  }
  return out;
}

}  // namespace sstar::analysis
