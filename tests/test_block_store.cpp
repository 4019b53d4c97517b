// BlockStore layer: the OOB-hardened element accessors shared by both
// stores, the owner-only DistBlockStore (owned arena, out-of-store
// diagnostics, refcounted remote-panel cache), and the comm audit's
// panel-lifetime replay that proves the release protocol safe — plus
// its negative cases, where an edited consumer count is named down to
// the exact (rank, task, panel).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/comm_audit.hpp"
#include "core/block_store.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "core/numeric.hpp"
#include "core/task_graph.hpp"
#include "ordering/transversal.hpp"
#include "sched/list_schedule.hpp"
#include "sim/comm_plan.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
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
};

DistBlockStore::Options dist_options(const BlockLayout& lay, int rank,
                                     std::vector<int> owner) {
  DistBlockStore::Options o;
  o.rank = rank;
  o.owner = std::move(owner);
  o.consumer_uses.assign(static_cast<std::size_t>(lay.num_blocks()), 0);
  return o;
}

// Every owner is this rank: the distributed store degenerates to a full
// store and must hold bitwise the same factor as the packed one.
std::vector<int> all_owned_by(const BlockLayout& lay, int rank) {
  return std::vector<int>(static_cast<std::size_t>(lay.num_blocks()), rank);
}

template <typename F>
std::string capture_check_failure(F&& f) {
  try {
    f();
  } catch (const CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a CheckError";
  return {};
}

// --- shared element accessors ---------------------------------------------

TEST(BlockStore, EntryPtrOutOfRangeIsNull) {
  const auto f = Fixture::make(50, 3, 21);
  const int n = f.layout->n();

  PackedBlockStore packed(*f.layout);
  DistBlockStore dist(*f.layout,
                      dist_options(*f.layout, 0, all_owned_by(*f.layout, 0)));
  for (BlockStore* store :
       {static_cast<BlockStore*>(&packed), static_cast<BlockStore*>(&dist)}) {
    EXPECT_EQ(store->entry_ptr(-1, 0), nullptr);
    EXPECT_EQ(store->entry_ptr(0, -1), nullptr);
    EXPECT_EQ(store->entry_ptr(n, 0), nullptr);
    EXPECT_EQ(store->entry_ptr(0, n), nullptr);
    EXPECT_EQ(store->entry_ptr(n + 100, n + 100), nullptr);
    EXPECT_EQ(store->value_at(-1, 0), 0.0);
    EXPECT_EQ(store->value_at(n, n), 0.0);
    // A diagonal position is always inside the static structure.
    EXPECT_NE(store->entry_ptr(0, 0), nullptr);
  }
}

TEST(BlockStore, ValueAtUnstoredPositionIsZero) {
  const auto f = Fixture::make(60, 2, 5);
  PackedBlockStore packed(*f.layout);
  packed.assemble(f.a);
  // Find a (row, col) pair outside the static structure: entry_ptr is
  // null there and value_at reads as a structural zero.
  bool found = false;
  const int n = f.layout->n();
  for (int col = 0; col < n && !found; ++col) {
    for (int row = 0; row < n && !found; ++row) {
      if (packed.entry_ptr(row, col) == nullptr) {
        EXPECT_EQ(packed.value_at(row, col), 0.0);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "fixture is dense: no unstored position exists";
}

// --- DistBlockStore: owned arena ------------------------------------------

TEST(BlockStore, DistSingleOwnerFactorizesBitwiseIdentical) {
  const auto f = Fixture::make(90, 4, 17);
  const BlockLayout& lay = *f.layout;

  SStarNumeric ref(lay);
  ref.assemble(f.a);
  ref.factorize();

  SStarNumeric dist_num(
      lay, std::make_unique<DistBlockStore>(
               lay, dist_options(lay, 0, all_owned_by(lay, 0))));
  dist_num.assemble(f.a);
  dist_num.factorize();

  EXPECT_EQ(dist_num.pivot_of_col(), ref.pivot_of_col());
  const BlockStore& a = ref.data();
  const BlockStore& b = dist_num.data();
  for (int k = 0; k < lay.num_blocks(); ++k) {
    const int w = lay.width(k);
    const std::size_t nr = lay.panel_rows(k).size();
    EXPECT_EQ(std::memcmp(a.diag(k), b.diag(k),
                          sizeof(double) * static_cast<std::size_t>(w) * w),
              0)
        << "diag " << k;
    EXPECT_EQ(std::memcmp(a.l_panel(k), b.l_panel(k),
                          sizeof(double) * nr * static_cast<std::size_t>(w)),
              0)
        << "L panel " << k;
    for (const BlockRef& ref_u : lay.u_blocks(k)) {
      EXPECT_EQ(std::memcmp(a.u_block(k, ref_u.offset),
                            b.u_block(k, ref_u.offset),
                            sizeof(double) * static_cast<std::size_t>(w) *
                                static_cast<std::size_t>(ref_u.count)),
                0)
          << "U block (" << k << ", offset " << ref_u.offset << ")";
    }
  }
}

TEST(BlockStore, DistOwnedBytesPartitionThePackedStore) {
  const auto f = Fixture::make(100, 4, 33);
  const BlockLayout& lay = *f.layout;
  PackedBlockStore packed(lay);
  for (const int ranks : {2, 3, 4}) {
    std::vector<int> owner(static_cast<std::size_t>(lay.num_blocks()));
    for (int b = 0; b < lay.num_blocks(); ++b) owner[b] = b % ranks;
    std::int64_t total = 0;
    for (int r = 0; r < ranks; ++r) {
      DistBlockStore store(lay, dist_options(lay, r, owner));
      total += store.owned_doubles();
    }
    EXPECT_EQ(total, packed.size())
        << ranks << " ranks: owned areas must partition the packed arena";
  }
}

TEST(BlockStore, DistOutOfStoreAccessThrowsWithDiagnostics) {
  const auto f = Fixture::make(80, 3, 9);
  const BlockLayout& lay = *f.layout;
  ASSERT_GE(lay.num_blocks(), 2);
  std::vector<int> owner(static_cast<std::size_t>(lay.num_blocks()));
  for (int b = 0; b < lay.num_blocks(); ++b) owner[b] = b % 2;
  DistBlockStore store(lay, dist_options(lay, 0, owner));

  // Owned blocks resolve; unowned ones throw with rank/block/owner.
  EXPECT_NE(store.diag(0), nullptr);
  EXPECT_TRUE(store.owns(0));
  EXPECT_FALSE(store.owns(1));
  const std::string msg =
      capture_check_failure([&] { (void)store.diag(1); });
  EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("block 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("owned by rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("no factor panel received"), std::string::npos) << msg;
  EXPECT_THROW((void)store.l_panel(1), CheckError);

  // An unowned U column slice throws too (find one on any row block).
  bool found = false;
  for (int i = 0; i < lay.num_blocks() && !found; ++i) {
    for (const BlockRef& ref : lay.u_blocks(i)) {
      if (owner[static_cast<std::size_t>(ref.block)] == 0) continue;
      EXPECT_THROW((void)store.u_block(i, ref.offset), CheckError);
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "fixture has no unowned U slice to test";
}

TEST(BlockStore, DistWholeUPanelNeverAddressable) {
  const auto f = Fixture::make(60, 3, 41);
  // Even when the rank owns EVERY column block the whole-panel accessor
  // refuses: distributed code must address per-U-block slices.
  DistBlockStore store(*f.layout,
                       dist_options(*f.layout, 0, all_owned_by(*f.layout, 0)));
  const std::string msg =
      capture_check_failure([&] { (void)store.u_panel(0); });
  EXPECT_NE(msg.find("not addressable on a distributed store"),
            std::string::npos)
      << msg;
}

TEST(BlockStore, DistAssembleSkipsUnownedColumns) {
  const auto f = Fixture::make(70, 3, 25);
  const BlockLayout& lay = *f.layout;
  std::vector<int> owner(static_cast<std::size_t>(lay.num_blocks()));
  for (int b = 0; b < lay.num_blocks(); ++b) owner[b] = b % 2;
  DistBlockStore store(lay, dist_options(lay, 0, owner));
  store.assemble(f.a);  // must not touch (or require) unowned columns

  for (int j = 0; j < f.a.cols(); ++j) {
    if (owner[static_cast<std::size_t>(lay.block_of_column(j))] != 0) continue;
    for (int k = f.a.col_begin(j); k < f.a.col_end(j); ++k) {
      EXPECT_EQ(store.value_at(f.a.row_idx()[k], j), f.a.values()[k])
          << "owned entry (" << f.a.row_idx()[k] << "," << j << ")";
    }
  }
  EXPECT_EQ(store.size(), store.owned_doubles());
}

// --- DistBlockStore: remote-panel cache lifecycle -------------------------

TEST(BlockStore, PanelCacheLifecycle) {
  const auto f = Fixture::make(80, 3, 49);
  const BlockLayout& lay = *f.layout;
  ASSERT_GE(lay.num_blocks(), 2);
  // Rank 0 owns everything except block 0, for which it runs 2
  // consuming ScaleSwap+Update pairs per the (synthetic) plan.
  std::vector<int> owner(static_cast<std::size_t>(lay.num_blocks()), 0);
  owner[0] = 1;
  auto opt = dist_options(lay, 0, owner);
  opt.consumer_uses[0] = 2;
  DistBlockStore store(lay, opt);

  const std::int64_t panel =
      static_cast<std::int64_t>(lay.width(0)) * lay.width(0) +
      static_cast<std::int64_t>(lay.panel_rows(0).size()) * lay.width(0);

  // Before receive: out-of-store.
  EXPECT_THROW((void)store.diag(0), CheckError);
  EXPECT_EQ(store.cache_doubles(), 0);

  store.on_panel_received(0);
  EXPECT_NE(store.diag(0), nullptr);
  EXPECT_NE(store.l_panel(0), nullptr);
  EXPECT_EQ(store.cache_doubles(), panel);
  EXPECT_EQ(store.peak_cache_doubles(), panel);
  EXPECT_EQ(store.panels_cached(), 1);
  EXPECT_EQ(store.peak_panels_cached(), 1);
  EXPECT_EQ(store.size(), store.owned_doubles() + panel);
  EXPECT_EQ(store.resident_remote_panels(), std::vector<int>{0});

  store.on_panel_consumed(0);  // 1 of 2: still resident
  EXPECT_NE(store.diag(0), nullptr);
  EXPECT_EQ(store.cache_doubles(), panel);

  store.on_panel_consumed(0);  // 2 of 2: released
  EXPECT_EQ(store.cache_doubles(), 0);
  EXPECT_EQ(store.panels_cached(), 0);
  EXPECT_EQ(store.peak_cache_doubles(), panel);  // high water sticks
  EXPECT_TRUE(store.resident_remote_panels().empty());
  const std::string msg =
      capture_check_failure([&] { (void)store.diag(0); });
  EXPECT_NE(msg.find("already released"), std::string::npos) << msg;
  // Consuming past the release is a protocol violation.
  EXPECT_THROW(store.on_panel_consumed(0), CheckError);
}

TEST(BlockStore, PanelCacheProtocolViolationsThrow) {
  const auto f = Fixture::make(60, 3, 57);
  const BlockLayout& lay = *f.layout;
  ASSERT_GE(lay.num_blocks(), 2);
  std::vector<int> owner(static_cast<std::size_t>(lay.num_blocks()), 0);
  owner[0] = 1;
  {
    // No declared consumer: a receive is a plan violation.
    DistBlockStore store(lay, dist_options(lay, 0, owner));
    const std::string msg =
        capture_check_failure([&] { store.on_panel_received(0); });
    EXPECT_NE(msg.find("declares no consuming task"), std::string::npos)
        << msg;
  }
  {
    auto opt = dist_options(lay, 0, owner);
    opt.consumer_uses[0] = 3;
    DistBlockStore store(lay, opt);
    // Receiving a panel for an OWNED block is a protocol violation.
    EXPECT_THROW(store.on_panel_received(1), CheckError);
    store.on_panel_received(0);
    EXPECT_THROW(store.on_panel_received(0), CheckError);  // double receive
    // Consuming an owned block is a no-op, not an error.
    store.on_panel_consumed(1);
  }
}

TEST(BlockStore, ClearDropsCacheAndAccounting) {
  const auto f = Fixture::make(60, 3, 65);
  const BlockLayout& lay = *f.layout;
  std::vector<int> owner(static_cast<std::size_t>(lay.num_blocks()), 0);
  owner[0] = 1;
  auto opt = dist_options(lay, 0, owner);
  opt.consumer_uses[0] = 2;
  DistBlockStore store(lay, opt);
  store.on_panel_received(0);
  ASSERT_GT(store.cache_doubles(), 0);

  store.clear();
  EXPECT_EQ(store.cache_doubles(), 0);
  EXPECT_EQ(store.peak_cache_doubles(), 0);
  EXPECT_EQ(store.panels_cached(), 0);
  EXPECT_EQ(store.peak_panels_cached(), 0);
  EXPECT_EQ(store.size(), store.owned_doubles());
  EXPECT_TRUE(store.resident_remote_panels().empty());
  // The panel slot is back to never-received: usable again.
  EXPECT_THROW((void)store.diag(0), CheckError);
  store.on_panel_received(0);
  EXPECT_NE(store.diag(0), nullptr);
}

// --- panel-lifetime audit (the comm audit's residency replay) ------------

// The plan-derived refcounts must pass the audit on every program
// variant at every rank count — the release-safety proof.
TEST(PanelLifetimeAudit, CleanOnAllProgramVariants) {
  const auto f = Fixture::make(120, 4, 13, 10, 4);
  const LuTaskGraph graph(*f.layout);
  for (const int ranks : {2, 4, 8}) {
    const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
    std::vector<sim::ParallelProgram> progs;
    progs.push_back(build_1d_program(
        graph, sched::compute_ahead_schedule(graph, ranks), m));
    progs.push_back(build_1d_program(graph, sched::graph_schedule(graph, m),
                                     m));
    progs.push_back(build_2d_program(*f.layout, m, /*async=*/true));
    progs.push_back(build_2d_program(*f.layout, m, /*async=*/false));
    for (std::size_t v = 0; v < progs.size(); ++v) {
      const analysis::CommAuditReport rep = analysis::audit_comm_plan(
          progs[v], *f.layout, sim::panel_consumer_counts(progs[v]));
      EXPECT_TRUE(rep.ok()) << ranks << " ranks, variant " << v << ": "
                            << rep.summary();
      EXPECT_EQ(rep.ranks, ranks);
      EXPECT_GT(rep.reads_checked, 0) << ranks << " ranks, variant " << v;
    }
  }
}

// Pick a (panel, rank) pair with at least `min_uses` consuming tasks.
bool find_consumer(const sim::ParallelProgram& prog, int min_uses, int* k_out,
                   int* rank_out, int* uses_out) {
  const auto counts = sim::panel_consumer_counts(prog);
  for (std::size_t k = 0; k < counts.size(); ++k) {
    for (std::size_t r = 0; r < counts[k].size(); ++r) {
      if (counts[k][r] >= min_uses) {
        *k_out = static_cast<int>(k);
        *rank_out = static_cast<int>(r);
        *uses_out = counts[k][r];
        return true;
      }
    }
  }
  return false;
}

// The tasks of `rank` consuming panel k, in program order.
std::vector<sim::TaskId> consuming_tasks(const sim::ParallelProgram& prog,
                                         int rank, int k) {
  std::vector<sim::TaskId> out;
  for (const sim::TaskId t : prog.proc_order(rank))
    for (const LuTask& kc : prog.task(t).kernels)
      if (kc.type == LuTask::Type::kUpdate && kc.k == k)
        out.push_back(t);
  return out;
}

// The tampered entry's count mismatch must be reported exactly once.
void expect_count_mismatch(const analysis::CommAuditReport& rep, int rank,
                           int k, int real, int declared) {
  int mismatches = 0;
  for (const analysis::CommAuditIssue& issue : rep.issues) {
    if (issue.kind != analysis::CommAuditIssue::Kind::kCountMismatch)
      continue;
    ++mismatches;
    EXPECT_EQ(issue.site.rank, rank);
    EXPECT_EQ(issue.panel, k);
    EXPECT_EQ(issue.expected, real);
    EXPECT_EQ(issue.actual, declared);
  }
  EXPECT_EQ(mismatches, 1) << rep.summary();
}

TEST(PanelLifetimeAudit, ForcedEarlyReleaseNamesRankTaskPanel) {
  const auto f = Fixture::make(120, 4, 13, 10, 4);
  const LuTaskGraph graph(*f.layout);
  const sim::MachineModel m = sim::MachineModel::cray_t3e(4);
  const sim::ParallelProgram prog =
      build_1d_program(graph, sched::graph_schedule(graph, m), m);

  int k = -1, rank = -1, uses = 0;
  ASSERT_TRUE(find_consumer(prog, 2, &k, &rank, &uses))
      << "fixture has no panel with >= 2 consuming tasks on one rank";

  auto counts = sim::panel_consumer_counts(prog);
  counts[static_cast<std::size_t>(k)][static_cast<std::size_t>(rank)] = 1;
  const analysis::CommAuditReport rep =
      analysis::audit_comm_plan(prog, *f.layout, counts);
  ASSERT_FALSE(rep.ok());
  expect_count_mismatch(rep, rank, k, uses, 1);

  // The early release loses exactly uses - 1 consuming accesses: every
  // consuming task after the first, named by (rank, task, panel).
  const std::vector<sim::TaskId> consumers = consuming_tasks(prog, rank, k);
  ASSERT_EQ(static_cast<int>(consumers.size()), uses);
  std::vector<sim::TaskId> starved;
  for (const analysis::CommAuditIssue& issue : rep.issues) {
    if (issue.kind != analysis::CommAuditIssue::Kind::kReadAfterRelease)
      continue;
    EXPECT_EQ(issue.site.rank, rank);
    EXPECT_EQ(issue.panel, k);
    EXPECT_GE(issue.site.task, 0);
    EXPECT_FALSE(issue.message().empty());
    starved.push_back(issue.site.task);
  }
  EXPECT_EQ(starved, std::vector<sim::TaskId>(consumers.begin() + 1,
                                              consumers.end()))
      << rep.summary();
  // Nothing else: one mismatch plus uses - 1 reads after release.
  EXPECT_EQ(static_cast<int>(rep.issues.size()), uses) << rep.summary();
}

TEST(PanelLifetimeAudit, OverheldPanelFlaggedAsLeak) {
  const auto f = Fixture::make(120, 4, 13, 10, 4);
  const LuTaskGraph graph(*f.layout);
  const sim::MachineModel m = sim::MachineModel::cray_t3e(4);
  const sim::ParallelProgram prog =
      build_1d_program(graph, sched::graph_schedule(graph, m), m);

  int k = -1, rank = -1, uses = 0;
  ASSERT_TRUE(find_consumer(prog, 1, &k, &rank, &uses));

  // A refcount larger than the real consumer count never reaches zero:
  // the panel is still resident when the rank's program ends.
  auto counts = sim::panel_consumer_counts(prog);
  counts[static_cast<std::size_t>(k)][static_cast<std::size_t>(rank)] =
      uses + 5;
  const analysis::CommAuditReport rep =
      analysis::audit_comm_plan(prog, *f.layout, counts);
  ASSERT_FALSE(rep.ok());
  ASSERT_EQ(rep.issues.size(), 2u) << rep.summary();
  expect_count_mismatch(rep, rank, k, uses, uses + 5);
  const analysis::CommAuditIssue& leak =
      rep.issues[0].kind == analysis::CommAuditIssue::Kind::kLeak
          ? rep.issues[0]
          : rep.issues[1];
  EXPECT_EQ(leak.kind, analysis::CommAuditIssue::Kind::kLeak);
  EXPECT_EQ(leak.site.rank, rank);
  EXPECT_EQ(leak.panel, k);
  EXPECT_EQ(leak.site.task, -1);
}

}  // namespace
}  // namespace sstar
