#include "core/lu_2d.hpp"

#include <cmath>

#include "core/task_model.hpp"
#include "sim/comm_plan.hpp"
#include "util/check.hpp"

namespace sstar {

namespace {

struct Builder {
  const BlockLayout& lay;
  const sim::MachineModel& m;
  bool async;
  const std::vector<int>* offd;  // realized off-diagonal interchanges
  int pr, pc;
  sim::ParallelProgram prog;

  // Latency charges are link-aware (DESIGN.md §16): the serialized
  // pivot rounds and delayed-interchange exchanges of column c pay the
  // slowest link among that processor column's rank pairs, and the
  // global barrier pays the machine's slowest occupied link. A column
  // or grid of one rank pays the network link.
  std::vector<double> col_lat;  // per grid column
  double max_lat;

  // Ids of the current step's tasks (barrier bookkeeping for sync mode).
  std::vector<sim::TaskId> step_tasks;
  sim::TaskId prev_barrier = -1;

  Builder(const BlockLayout& l, const sim::MachineModel& mm, bool as,
          const std::vector<int>* od)
      : lay(l), m(mm), async(as), offd(od), pr(mm.grid.rows),
        pc(mm.grid.cols), prog(mm.processors),
        col_lat(static_cast<std::size_t>(mm.grid.cols),
                mm.topology.network_link.latency),
        max_lat(mm.topology.network_link.latency) {
    if (pr > 1) {
      for (int c = 0; c < pc; ++c) {
        double lat = 0.0;
        for (int r = 0; r < pr; ++r)
          for (int r2 = r + 1; r2 < pr; ++r2)
            lat = std::max(lat, m.latency_between(proc(r, c), proc(r2, c)));
        col_lat[static_cast<std::size_t>(c)] = lat;
      }
    }
    if (pr * pc > 1) {
      double lat = 0.0;
      for (int p = 0; p < pr * pc; ++p)
        for (int q = p + 1; q < pr * pc; ++q)
          lat = std::max(lat, m.latency_between(p, q));
      max_lat = lat;
    }
  }

  // Columns of block k whose pivot row actually moves. Without realized
  // counts every column is charged (the historic worst case, == width);
  // with them, only the columns whose pivot left the diagonal pay the
  // winner-subrow broadcast and the delayed-interchange exchange — a
  // column that kept its diagonal moves no rows, the owner already
  // holds the pivot row.
  double moved_cols(int k) const {
    if (!offd) return static_cast<double>(lay.width(k));
    return static_cast<double>((*offd)[static_cast<std::size_t>(k)]);
  }

  int proc(int r, int c) const { return r * pc + c; }

  double secs(const blas::FlopCount& f) const {
    return m.compute_seconds(static_cast<double>(f.blas1),
                             static_cast<double>(f.blas2),
                             static_cast<double>(f.blas3));
  }

  sim::TaskId add(int p, double seconds, std::string label, int stage,
                  int kind, std::vector<LuTask> kernels = {}) {
    sim::TaskDef def;
    def.proc = p;
    def.seconds = seconds;
    def.label = std::move(label);
    def.stage = stage;
    def.kind = kind;
    def.kernels = std::move(kernels);
    const sim::TaskId id = prog.add_task(std::move(def));
    step_tasks.push_back(id);
    if (prev_barrier >= 0) prog.add_dependency(prev_barrier, id);
    return id;
  }

  // --- Factor(k) decomposed across the owning processor column --------
  struct FactorIds {
    std::vector<sim::TaskId> f1, f2;  // per processor row
    sim::TaskId fp = -1;
  };

  FactorIds emit_factor(int k) {
    const int kc = k % pc;
    const int kr = k % pr;
    const int w = lay.width(k);
    const double fshare =
        secs(factor_task_flops(lay, k)) / pr / 2.0;  // half before pivots

    FactorIds ids;
    ids.f1.resize(pr);
    ids.f2.resize(pr);
    for (int r = 0; r < pr; ++r)
      ids.f1[r] = add(proc(r, kc), fshare, "F1(" + std::to_string(k) + ")",
                      k, kKindFactor);

    // Pivot coordination: each of the w columns needs a reduction of the
    // local maxima over the p_r processor rows plus a broadcast of the
    // winning subrow (lines 05-08 of Fig. 13) — serialized rounds the 2D
    // code cannot avoid (the "frequent and well-synchronized
    // interprocessor communication" §4.3 warns about). The reduction
    // round is policy-independent; the winner-subrow broadcast is only
    // needed when the winner is NOT the diagonal row the owner already
    // holds, so with realized interchange counts that second round is
    // charged per off-diagonal pivot (count == w reproduces the
    // historic 2w rounds exactly).
    const double log_pr = std::ceil(std::log2(std::max(2, pr)));
    const double piv_seconds =
        m.compute_seconds(static_cast<double>(w) * pr, 0.0, 0.0) +
        (pr > 1 ? (w + moved_cols(k)) * log_pr *
                      col_lat[static_cast<std::size_t>(kc)]
                : 0.0);
    ids.fp = add(proc(kr, kc), piv_seconds, "FP(" + std::to_string(k) + ")",
                 k, kKindFactor, {{LuTask::Type::kFactor, k, k}});
    const double sync_bytes = 8.0 * w * w / pr;
    for (int r = 0; r < pr; ++r) {
      if (r != kr) prog.add_message(ids.f1[r], ids.fp, sync_bytes);
    }
    // FP on the leader follows F1(leader) in program order already.

    for (int r = 0; r < pr; ++r) {
      ids.f2[r] = add(proc(r, kc), fshare, "F2(" + std::to_string(k) + ")",
                      k, kKindFactor);
      if (r != kr)
        prog.add_message(ids.fp, ids.f2[r], sync_bytes + pivot_bytes(lay, k));
    }
    return ids;
  }

  // --- ScaleSwap(k) on every processor ---------------------------------
  // Returns task ids indexed by proc.
  std::vector<sim::TaskId> emit_scaleswap(int k,
                                          const std::vector<sim::TaskId>& f2) {
    const int kc = k % pc;
    const int kr = k % pr;
    const double ncols_total =
        static_cast<double>(lay.panel_cols(k).size());

    // DTRSM slice per column of the diagonal processor row.
    std::vector<double> trsm_secs(pc, 0.0);
    for (const BlockRef& uref : lay.u_blocks(k)) {
      trsm_secs[uref.block % pc] +=
          secs(update2d_task_flops(lay, k, k, uref.block));
    }

    // The delayed row interchange exchanges subrows between the pivot
    // row's owner (processor row k mod p_r — the pivot positions live in
    // block row k) and the target rows' owners, all within one processor
    // column (line 05 of Fig. 14). This coupling is the paper's Fact 2:
    // a processor cannot complete ScaleSwap(k) before its column peers
    // have reached step k, which is exactly what caps the within-column
    // overlap at min(p_r - 1, p_c) in Theorem 2. We model it with an
    // exchange half-step SX (gather + send the local subrow pieces)
    // followed by the apply step SW that waits for the peers' pieces.
    // Only columns whose realized pivot left the diagonal move subrows
    // (`moved` == w when no realized counts were supplied): an
    // interchange-free step degenerates to the pivot-sequence multicast
    // that already gates SX, with nothing to exchange afterwards.
    const double moved = moved_cols(k);
    const double exch_bytes =
        8.0 * moved * ncols_total / pc / std::max(1, pr);
    std::vector<sim::TaskId> sx(static_cast<std::size_t>(pr) * pc, -1);
    for (int r = 0; r < pr; ++r) {
      for (int c = 0; c < pc; ++c) {
        const sim::TaskId id = add(
            proc(r, c), m.compute_seconds(moved, 0.0, 0.0),
            "SX(" + std::to_string(k) + ")", k, kKindOther);
        sx[static_cast<std::size_t>(proc(r, c))] = id;
        // Pivot sequence + L multicast along processor row r gates the
        // exchange (the pivot choices say which rows move).
        if (c != kc)
          prog.add_message(f2[r], id,
                           l_multicast_bytes(lay, k, pr) +
                               pivot_bytes(lay, k));
        else
          prog.add_dependency(f2[r], id);
      }
    }

    std::vector<sim::TaskId> sw(static_cast<std::size_t>(pr) * pc, -1);
    for (int r = 0; r < pr; ++r) {
      for (int c = 0; c < pc; ++c) {
        // Interchange traffic: `moved` row pairs over this processor's
        // share of the trailing columns, charged at BLAS-1 speed.
        double cost = m.compute_seconds(moved * ncols_total / pc, 0.0, 0.0);
        if (pr > 1)
          cost += moved * col_lat[static_cast<std::size_t>(c)] * (pr - 1.0) /
                  pr;
        if (r == kr) cost += trsm_secs[c];
        const sim::TaskId id =
            add(proc(r, c), cost, "SW(" + std::to_string(k) + ")", k,
                kKindOther);
        sw[static_cast<std::size_t>(proc(r, c))] = id;
        if (pr > 1 && moved > 0.0) {
          if (r == kr) {
            // The pivot-row owner needs the swapped-in subrows back from
            // the rows owning the pivot targets. Which rows those are is
            // a numerical outcome; we model one representative partner
            // (a full fan-in would serialize the column every step,
            // which the paper's Part-2 proof shows is NOT forced — the
            // p_r - 1 overlap is reachable when interchanges are local).
            prog.add_message(sx[proc((kr + 1) % pr, c)], id, exch_bytes);
          } else {
            // Every peer needs the pivot rows' pieces from row k mod p_r.
            prog.add_message(sx[proc(kr, c)], id, exch_bytes);
          }
        }
      }
    }
    // U-panel multicast down each processor column is attached to the
    // consuming update tasks (emit_updates).
    return sw;
  }

  // --- Update_2D(k, *) aggregated per processor -------------------------
  // Emits the compute-ahead part (j == k+1) or the rest (j >= k+2),
  // returning per-proc ids (-1 where no task was needed but one is still
  // created with zero cost to keep program shapes uniform).
  std::vector<sim::TaskId> emit_updates(int k, bool ahead_part,
                                        const std::vector<sim::TaskId>& sw) {
    const int kr = k % pr;
    std::vector<double> cost(static_cast<std::size_t>(pr) * pc, 0.0);
    // Per designated proc, the Update(k, j) kernels its task performs.
    std::vector<std::vector<LuTask>> kernels(
        static_cast<std::size_t>(pr) * pc);

    for (const BlockRef& uref : lay.u_blocks(k)) {
      const int j = uref.block;
      const bool is_ahead = j == k + 1;
      if (is_ahead != ahead_part) continue;
      const int jc = j % pc;
      // GEMM slices per processor row.
      for (const BlockRef& lref : lay.l_blocks(k)) {
        const int i = lref.block;
        cost[static_cast<std::size_t>(proc(i % pr, jc))] +=
            secs(update2d_task_flops(lay, k, i, j));
      }
      // Diagonal-block target (i == j) slice.
      cost[static_cast<std::size_t>(proc(j % pr, jc))] +=
          secs(update2d_task_flops(lay, k, j, j));
      kernels[static_cast<std::size_t>(proc(j % pr, jc))].push_back(
          {LuTask::Type::kUpdate, k, j});
    }

    std::vector<sim::TaskId> ids(static_cast<std::size_t>(pr) * pc, -1);
    const char* tag = ahead_part ? "UF(" : "UR(";
    for (int r = 0; r < pr; ++r) {
      for (int c = 0; c < pc; ++c) {
        const int p = proc(r, c);
        ids[p] = add(p, cost[p], tag + std::to_string(k) + ")", k,
                     kKindUpdate, std::move(kernels[p]));
        prog.add_dependency(sw[p], ids[p]);
        // U-panel multicast from the diagonal processor row.
        if (r != kr && cost[p] > 0.0)
          prog.add_message(sw[proc(kr, c)], ids[p],
                           u_multicast_bytes(lay, k, pc));
      }
    }
    return ids;
  }

  void emit_barrier(int k) {
    if (async) {
      step_tasks.clear();
      return;
    }
    sim::TaskDef def;
    def.proc = 0;
    def.seconds =
        2.0 * max_lat * std::ceil(std::log2(std::max(2, pr * pc)));
    def.label = "B(" + std::to_string(k) + ")";
    def.stage = k;
    def.kind = kKindOther;
    const sim::TaskId b = prog.add_task(std::move(def));
    for (const sim::TaskId t : step_tasks) prog.add_dependency(t, b);
    step_tasks.clear();
    prev_barrier = b;
  }

  sim::ParallelProgram build() {
    const int nb = lay.num_blocks();
    FactorIds f = emit_factor(0);
    for (int k = 0; k + 1 < nb; ++k) {
      const std::vector<sim::TaskId> sw = emit_scaleswap(k, f.f2);
      const std::vector<sim::TaskId> uf = emit_updates(k, true, sw);
      (void)uf;  // ordering with the next factor comes from program order
      FactorIds fnext = emit_factor(k + 1);
      // The compute-ahead update must finish before Factor(k+1) starts:
      // program order handles the owning column (UF precedes F1 there);
      // add the explicit dependency for the data itself.
      for (int r = 0; r < pr; ++r) {
        const int p = proc(r, (k + 1) % pc);
        if (uf[p] >= 0) prog.add_dependency(uf[p], fnext.f1[r]);
      }
      emit_updates(k, false, sw);
      emit_barrier(k);
      f = fnext;
    }
    return std::move(prog);
  }
};

}  // namespace

sim::ParallelProgram build_2d_program(const BlockLayout& layout,
                                      const sim::MachineModel& machine,
                                      bool async,
                                      const std::vector<int>* offdiag) {
  SSTAR_CHECK(machine.grid.size() == machine.processors);
  if (offdiag) {
    SSTAR_CHECK(static_cast<int>(offdiag->size()) == layout.num_blocks());
    for (int k = 0; k < layout.num_blocks(); ++k)
      SSTAR_CHECK((*offdiag)[static_cast<std::size_t>(k)] >= 0 &&
                  (*offdiag)[static_cast<std::size_t>(k)] <= layout.width(k));
  }
  Builder b(layout, machine, async, offdiag);
  sim::ParallelProgram prog = b.build();
  // Message-passing execution (exec/lu_mp) interprets explicit send/recv
  // descriptors; on a grid the factor-panel multicast is row-grouped
  // (owner -> row leader -> row peers).
  sim::attach_panel_comms(prog, machine.grid);
  return prog;
}

std::vector<int> offdiag_interchanges_per_block(const BlockLayout& layout,
                                                const SStarNumeric& numeric) {
  const std::vector<int>& piv = numeric.pivot_of_col();
  SSTAR_CHECK(static_cast<int>(piv.size()) == layout.n());
  std::vector<int> counts(static_cast<std::size_t>(layout.num_blocks()), 0);
  for (int k = 0; k < layout.num_blocks(); ++k)
    for (int m = layout.start(k); m < layout.start(k) + layout.width(k); ++m)
      if (piv[static_cast<std::size_t>(m)] != m)
        ++counts[static_cast<std::size_t>(k)];
  return counts;
}

ParallelRunResult run_2d(const BlockLayout& layout,
                         const sim::MachineModel& machine, bool async,
                         bool capture_gantt) {
  return simulate_run(build_2d_program(layout, machine, async), machine,
                      /*grid_columns=*/true, capture_gantt);
}

exec::MpStats run_2d_mp(const BlockLayout& layout,
                        const sim::MachineModel& machine, bool async,
                        const SparseMatrix& a, SStarNumeric& result,
                        const exec::MpOptions& opt) {
  return exec::execute_program_mp(build_2d_program(layout, machine, async), a,
                                  result, opt);
}

}  // namespace sstar
