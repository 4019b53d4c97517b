// Distributed-storage differential tests for the message-passing
// runtime: per-rank DistBlockStore footprints across rank counts and
// program variants, validated three ways — (1) the owned areas
// partition the sequential packed store exactly and each rank's peak
// stays strictly below the full-replica size, (2) the measured peaks
// equal the sim/memory_model refcount-replay prediction bit-for-bit,
// (3) a forced early panel release (the store's test hook) fails
// loudly instead of corrupting the factorization. The trace layer's
// panel alloc/free instants must reproduce the same high-water marks.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_mp.hpp"
#include "exec/lu_real.hpp"
#include "matrix/generators.hpp"
#include "ordering/transversal.hpp"
#include "sched/list_schedule.hpp"
#include "sim/comm_plan.hpp"
#include "sim/memory_model.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "trace/analyze.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sstar {
namespace {

struct Fixture {
  SparseMatrix a;
  StaticStructure s;
  std::unique_ptr<BlockLayout> layout;

  static Fixture make(int n, int extra, std::uint64_t seed, int mb = 8,
                      int r = 4) {
    Fixture f;
    f.a = make_zero_free_diagonal(testing::random_sparse(n, extra, seed));
    f.s = static_symbolic_factorization(f.a);
    auto part = amalgamate(f.s, find_supernodes(f.s, mb), r, mb);
    f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));
    return f;
  }

  std::int64_t sequential_store_bytes() const {
    PackedBlockStore packed(*layout);
    return packed.size() * 8;
  }
};

struct Variant {
  const char* label;
  bool two_d;
  Schedule1DKind kind_1d;  // ignored when two_d
  bool async_2d;           // ignored when !two_d
};

const Variant kVariants[] = {
    {"1d-ca", false, Schedule1DKind::kComputeAhead, false},
    {"1d-graph", false, Schedule1DKind::kGraph, false},
    {"2d-async", true, Schedule1DKind::kGraph, true},
    {"2d-sync", true, Schedule1DKind::kGraph, false},
};

sim::ParallelProgram build_variant(const BlockLayout& lay,
                                   const sim::MachineModel& m,
                                   const Variant& v) {
  return v.two_d ? build_2d_program(lay, m, v.async_2d)
                 : build_1d_program(lay, m, v.kind_1d);
}

// (1) Rank-count / program-variant matrix: footprint invariants plus
// the bitwise result check, over the rank counts of the determinism
// suite.
TEST(MpMemory, PerRankFootprintsAcrossRankCountsAndVariants) {
  const auto f = Fixture::make(140, 5, 13, 10, 4);
  const std::int64_t seq_bytes = f.sequential_store_bytes();
  ASSERT_GT(seq_bytes, 0);

  SStarNumeric ref(*f.layout);
  ref.assemble(f.a);
  ref.factorize();

  for (const int ranks : {1, 2, 4, 8}) {
    const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
    for (const Variant& v : kVariants) {
      const sim::ParallelProgram prog = build_variant(*f.layout, m, v);
      SStarNumeric mp(*f.layout);
      const exec::MpStats st = exec::execute_program_mp(prog, f.a, mp);
      EXPECT_TRUE(exec::factors_bitwise_equal(ref, mp))
          << v.label << " at " << ranks << " ranks";

      ASSERT_EQ(static_cast<int>(st.memory.size()), ranks) << v.label;
      EXPECT_EQ(st.panels_leaked(), 0)
          << v.label << " at " << ranks << " ranks leaked panels";

      // Owned areas partition the packed store: no block is replicated,
      // none is dropped.
      std::int64_t owned_total = 0;
      int owning_ranks = 0;
      for (const exec::MpStats::RankMemoryStats& ms : st.memory) {
        owned_total += ms.owned_bytes;
        if (ms.owned_bytes > 0) ++owning_ranks;
        EXPECT_EQ(ms.resident_panels, 0) << v.label;
        EXPECT_GE(ms.peak_bytes, ms.owned_bytes) << v.label;
        EXPECT_EQ(ms.peak_bytes, ms.owned_bytes + ms.peak_cache_bytes)
            << v.label;
      }
      EXPECT_EQ(owned_total, seq_bytes)
          << v.label << " at " << ranks
          << " ranks: owned areas must partition the packed store";

      // With the storage actually distributed (>= 2 owning ranks) every
      // rank's peak — owned area plus panel-cache high water — must
      // stay strictly below the full-replica footprint the MP runtime
      // used before DistBlockStore existed. Empty ranks (no owned
      // blocks on degenerate grids) trivially satisfy this.
      if (owning_ranks >= 2) {
        for (std::size_t r = 0; r < st.memory.size(); ++r) {
          EXPECT_LT(st.memory[r].peak_bytes, seq_bytes)
              << v.label << " at " << ranks << " ranks: rank " << r
              << " peaked at full-replica size";
        }
      }
    }
  }
}

// (2) The acceptance budget: at P = 4 on a realistically sized problem
// (a 20x20 five-point grid — the tools/sstar_mp smoke substrate), the
// machine-wide peak (sum of per-rank peaks) stays within 1.5x the
// sequential packed store — the distribution's cache overhead is
// bounded, not a hidden replica (the full-replica runtime was ~4x).
TEST(MpMemory, TotalPeakWithinBudgetAtFourRanks) {
  gen::ValueOptions vo;
  vo.seed = 5;
  Fixture f;
  f.a = make_zero_free_diagonal(gen::stencil5(20, 20, 0.1, vo));
  f.s = static_symbolic_factorization(f.a);
  auto part = amalgamate(f.s, find_supernodes(f.s, 12), 4, 12);
  f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));

  const std::int64_t seq_bytes = f.sequential_store_bytes();
  const sim::MachineModel m = sim::MachineModel::cray_t3e(4);
  for (const Variant& v : kVariants) {
    const sim::ParallelProgram prog = build_variant(*f.layout, m, v);
    SStarNumeric mp(*f.layout);
    const exec::MpStats st = exec::execute_program_mp(prog, f.a, mp);
    EXPECT_EQ(st.panels_leaked(), 0) << v.label;
    const std::int64_t total = st.peak_store_bytes_total();
    EXPECT_LE(static_cast<double>(total), 1.5 * static_cast<double>(seq_bytes))
        << v.label << ": total peak " << total << " vs sequential "
        << seq_bytes;
  }
}

// (3) Predicted == measured, field for field: the memory model replays
// the same refcount protocol the store runs, so the match is exact.
TEST(MpMemory, PredictionMatchesMeasurementExactly) {
  const auto f = Fixture::make(120, 4, 37, 8, 4);
  for (const int ranks : {2, 4}) {
    const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
    for (const Variant& v : kVariants) {
      const sim::ParallelProgram prog = build_variant(*f.layout, m, v);
      const sim::MpMemoryPrediction pred =
          sim::predict_mp_memory(*f.layout, prog);
      SStarNumeric mp(*f.layout);
      const exec::MpStats st = exec::execute_program_mp(prog, f.a, mp);

      ASSERT_EQ(pred.ranks.size(), st.memory.size()) << v.label;
      for (std::size_t r = 0; r < st.memory.size(); ++r) {
        EXPECT_EQ(st.memory[r].owned_bytes, pred.ranks[r].owned_bytes)
            << v.label << " rank " << r;
        EXPECT_EQ(st.memory[r].peak_cache_bytes,
                  pred.ranks[r].peak_cache_bytes)
            << v.label << " rank " << r;
        EXPECT_EQ(st.memory[r].peak_bytes, pred.ranks[r].peak_bytes)
            << v.label << " rank " << r;
        EXPECT_EQ(st.memory[r].peak_panels_cached,
                  pred.ranks[r].peak_panels_cached)
            << v.label << " rank " << r;
      }
      EXPECT_EQ(st.peak_store_bytes_total(), pred.total_peak_bytes())
          << v.label;
    }
  }
}

// (4) Negative: releasing a panel one consumer early must abort the run
// with an out-of-store error naming the released panel — never a wrong
// answer. The same forced override is what the panel-lifetime audit
// flags statically (test_block_store.cpp).
TEST(MpMemory, ForcedEarlyReleaseFailsLoudly) {
  const auto f = Fixture::make(120, 4, 13, 10, 4);
  const sim::MachineModel m = sim::MachineModel::cray_t3e(4);
  const LuTaskGraph graph(*f.layout);
  const sim::ParallelProgram prog =
      build_1d_program(graph, sched::graph_schedule(graph, m), m);

  // Find a (panel, rank) with >= 2 consuming tasks so releasing after
  // one starves a later consumer.
  const auto counts = sim::panel_consumer_counts(prog);
  int bad_k = -1, bad_rank = -1;
  for (std::size_t k = 0; k < counts.size() && bad_k < 0; ++k)
    for (std::size_t r = 0; r < counts[k].size(); ++r)
      if (counts[k][r] >= 2) {
        bad_k = static_cast<int>(k);
        bad_rank = static_cast<int>(r);
        break;
      }
  ASSERT_GE(bad_k, 0) << "fixture has no multi-use remote panel";

  exec::MpOptions opt;
  opt.store_hook = [&](int rank, DistBlockStore& store) {
    if (rank == bad_rank) store.set_release_override(bad_k, 1);
  };
  SStarNumeric mp(*f.layout);
  try {
    exec::execute_program_mp(prog, f.a, mp, opt);
    FAIL() << "forced early release of panel " << bad_k << " on rank "
           << bad_rank << " was not detected";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("already released"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank " + std::to_string(bad_rank)),
              std::string::npos)
        << msg;
  }
}

// (5) The trace layer's panel alloc/free instants reconstruct the same
// per-rank cache high-water marks the store measured.
TEST(MpMemory, TracePanelEventsReproduceCachePeaks) {
  const auto f = Fixture::make(120, 4, 13, 10, 4);
  const sim::MachineModel m = sim::MachineModel::cray_t3e(4);

  trace::TraceCollector collector;
  collector.install();
  SStarNumeric mp(*f.layout);
  const exec::MpStats st = run_1d_mp(*f.layout, m, Schedule1DKind::kGraph,
                                     f.a, mp);
  collector.uninstall();
  const trace::Trace trace = collector.take();

  const trace::PhaseBreakdown b = trace::phase_breakdown(trace);
  const auto alloc_i =
      static_cast<std::size_t>(trace::EventKind::kPanelAlloc);
  const auto free_i = static_cast<std::size_t>(trace::EventKind::kPanelFree);
  EXPECT_GT(b.kind_count[alloc_i], 0);
  EXPECT_EQ(b.kind_count[alloc_i], b.kind_count[free_i])
      << "every cached panel must be freed";

  for (std::size_t r = 0; r < st.memory.size(); ++r) {
    // A rank with no lane recorded no events — it cached nothing.
    const std::int64_t traced =
        r < b.lanes.size() ? b.lanes[r].panel_cache_peak_bytes : 0;
    EXPECT_EQ(traced, st.memory[r].peak_cache_bytes) << "rank " << r;
  }
}

}  // namespace
}  // namespace sstar
