#include "sim/memory_model.hpp"

#include <algorithm>
#include <vector>

#include "sim/comm_plan.hpp"
#include "util/check.hpp"

namespace sstar::sim {

namespace {
MemoryFootprint summarize(const std::vector<double>& per_proc) {
  MemoryFootprint f;
  for (const double b : per_proc) {
    f.total_bytes += b;
    f.max_bytes = std::max(f.max_bytes, b);
  }
  f.avg_bytes = per_proc.empty()
                    ? 0.0
                    : f.total_bytes / static_cast<double>(per_proc.size());
  return f;
}
}  // namespace

MemoryFootprint data_distribution_1d(const BlockLayout& layout, int p) {
  SSTAR_CHECK(p >= 1);
  std::vector<double> bytes(static_cast<std::size_t>(p), 0.0);
  for (int k = 0; k < layout.num_blocks(); ++k) {
    const double w = layout.width(k);
    const double block_bytes =
        8.0 * (w * w + w * static_cast<double>(layout.panel_rows(k).size()) +
               w * static_cast<double>(layout.panel_cols(k).size()));
    bytes[static_cast<std::size_t>(k % p)] += block_bytes;
  }
  return summarize(bytes);
}

MemoryFootprint data_distribution_2d(const BlockLayout& layout,
                                     const Grid& grid) {
  const int pr = grid.rows, pc = grid.cols;
  SSTAR_CHECK(pr >= 1 && pc >= 1);
  std::vector<double> bytes(static_cast<std::size_t>(pr) * pc, 0.0);
  auto proc = [&](int r, int c) { return r * pc + c; };
  for (int k = 0; k < layout.num_blocks(); ++k) {
    const double w = layout.width(k);
    bytes[proc(k % pr, k % pc)] += 8.0 * w * w;  // diagonal block
    for (const BlockRef& lref : layout.l_blocks(k))
      bytes[proc(lref.block % pr, k % pc)] += 8.0 * lref.count * w;
    for (const BlockRef& uref : layout.u_blocks(k))
      bytes[proc(k % pr, uref.block % pc)] += 8.0 * w * uref.count;
  }
  return summarize(bytes);
}

double buffer_bound_2d(const BlockLayout& layout, const Grid& grid) {
  const int pr = grid.rows, pc = grid.cols;
  // C = max over k of the local share of column block k on one
  // processor row; R likewise for row panels on one processor column.
  double c_buf = 0.0, r_buf = 0.0;
  for (int k = 0; k < layout.num_blocks(); ++k) {
    const double w = layout.width(k);
    const double lrows = static_cast<double>(layout.panel_rows(k).size());
    const double ucols = static_cast<double>(layout.panel_cols(k).size());
    c_buf = std::max(c_buf, 8.0 * w * (w + lrows) / pr);
    r_buf = std::max(r_buf, 8.0 * w * ucols / pc);
  }
  return c_buf * pc + r_buf * (pr - 1);
}

MpMemoryPrediction predict_mp_memory(const BlockLayout& layout,
                                     const ParallelProgram& prog) {
  const std::vector<int> owner = panel_owners(prog);
  const std::vector<std::vector<int>> counts = panel_consumer_counts(prog);
  const int nb = layout.num_blocks();
  SSTAR_CHECK_MSG(static_cast<int>(owner.size()) == nb,
                  "predict_mp_memory: program covers "
                      << owner.size() << " supernodes, layout has " << nb);

  const auto panel_bytes = [&](int k) {
    const std::int64_t w = layout.width(k);
    return 8 * (w * w +
                static_cast<std::int64_t>(layout.panel_rows(k).size()) * w);
  };

  MpMemoryPrediction pred;
  pred.ranks.resize(static_cast<std::size_t>(prog.processors()));
  for (int p = 0; p < prog.processors(); ++p) {
    MpMemoryPrediction::Rank& r = pred.ranks[static_cast<std::size_t>(p)];

    // Fixed owner area: diag + L panel of every owned column block, plus
    // the owned (i, j) column slices of every row block's U panel —
    // exactly DistBlockStore's construction-time arena.
    for (int b = 0; b < nb; ++b) {
      if (owner[static_cast<std::size_t>(b)] == p) r.owned_bytes += panel_bytes(b);
      for (const BlockRef& ref : layout.u_blocks(b))
        if (owner[static_cast<std::size_t>(ref.block)] == p)
          r.owned_bytes +=
              8 * static_cast<std::int64_t>(layout.width(b)) * ref.count;
    }

    // Panel-cache high water: replay the rank's program order — a recv
    // materializes panel k at its refcount, the k-th consuming Update
    // decrements, zero frees. This is the same protocol the store runs,
    // so the peak is exact, not a bound.
    std::vector<int> remaining(static_cast<std::size_t>(nb), 0);
    std::int64_t cache = 0, peak = 0;
    int panels = 0, peak_panels = 0;
    const auto on_recv = [&](int k) {
      remaining[static_cast<std::size_t>(k)] =
          counts[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)];
      cache += panel_bytes(k);
      peak = std::max(peak, cache);
      peak_panels = std::max(peak_panels, ++panels);
    };
    for (const TaskId t : prog.proc_order(p)) {
      const TaskDef& def = prog.task(t);
      for (const CommOp& op : def.pre_comms)
        if (op.kind == CommOp::Kind::kRecv) on_recv(op.k);
      for (const LuTask& kc : def.kernels) {
        if (kc.type != LuTask::Type::kUpdate) continue;
        if (owner[static_cast<std::size_t>(kc.k)] == p) continue;
        if (--remaining[static_cast<std::size_t>(kc.k)] == 0) {
          cache -= panel_bytes(kc.k);
          --panels;
        }
      }
      for (const CommOp& op : def.post_comms)
        if (op.kind == CommOp::Kind::kRecv) on_recv(op.k);
    }
    r.peak_cache_bytes = peak;
    r.peak_bytes = r.owned_bytes + peak;
    r.peak_panels_cached = peak_panels;
  }
  return pred;
}

}  // namespace sstar::sim

