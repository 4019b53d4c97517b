// sstar_serve — exercise and audit the serving layer from the shell.
//
//   ./sstar_serve --grid=16 --verify            factor a 16x16 stencil,
//                                               then prove session solves
//                                               (all thread counts x RHS
//                                               widths) bitwise equal to
//                                               the sequential solver
//   ./sstar_serve --suite=sherman5 --verify     same on a Table-1 replica
//   ./sstar_serve --grid=16 --audit             static solve-DAG audit:
//                                               every conflicting row-
//                                               block access pair must be
//                                               ordered by an edge path
//   ./sstar_serve --grid=12 --self-test         delete one load-bearing
//                                               DAG edge; exit 0 only if
//                                               the auditor pinpoints it
//
// Default (no mode flag) prints the factor + solve-DAG summary (tasks,
// edges, levels, average parallelism) and runs --verify.
//
// Flags: --suite=NAME --scale=S --grid=N --seed=S --max-block=N
//        --amalg=N --threads=a,b,c (default 1,2,4,8)
//        --widths=a,b,c (default 1,3,8,32) --verbose
//        --alpha=A (threshold-pivoting policy in (0,1] for the served
//        factorization; the summary line reports the active policy,
//        growth factor and relaxed-pivot count so operators can see the
//        stability cost of a relaxed factor they are serving from)
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/reachability.hpp"
#include "matrix/generators.hpp"
#include "matrix/suite.hpp"
#include "serve/factorization.hpp"
#include "serve/session.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace sstar;

namespace {

std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::string cur;
  for (const char c : s + ",") {
    if (c == ',') {
      if (!cur.empty()) out.push_back(std::atoi(cur.c_str()));
      cur.clear();
    } else {
      cur += c;
    }
  }
  return out;
}

std::vector<double> random_panel(int n, int nrhs, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(nrhs));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

int verify(const std::shared_ptr<const serve::Factorization>& factor,
           const std::vector<int>& threads, const std::vector<int>& widths,
           std::uint64_t seed) {
  const int n = factor->n();
  int runs = 0;
  int failures = 0;
  for (const int nrhs : widths) {
    const auto b = random_panel(n, nrhs, seed + static_cast<std::uint64_t>(nrhs));
    std::vector<double> want(b.size());
    for (int c = 0; c < nrhs; ++c) {
      const std::vector<double> col(b.begin() + static_cast<std::ptrdiff_t>(c) * n,
                                    b.begin() + static_cast<std::ptrdiff_t>(c + 1) * n);
      const auto x = factor->solver().solve(col);
      std::copy(x.begin(), x.end(),
                want.begin() + static_cast<std::ptrdiff_t>(c) * n);
    }
    for (const int t : threads) {
      serve::SolveSession session(factor, {t, 32});
      const auto got = session.solve_multi(b, nrhs);
      ++runs;
      if (!bits_equal(got, want)) {
        ++failures;
        std::printf("  !! MISMATCH nrhs=%d threads=%d\n", nrhs, t);
      }
    }
  }
  std::printf("verify: %d session runs vs sequential solver, %d mismatches\n",
              runs, failures);
  return failures == 0 ? 0 : 1;
}

int self_test(const SolveGraph& graph, std::uint64_t seed) {
  // Pick a random LOAD-BEARING edge: one whose deletion actually breaks
  // the ordering (some edges stay covered transitively).
  const auto& edges = graph.edges();
  SSTAR_CHECK(!edges.empty());
  Rng rng(seed);
  const std::size_t start = rng.uniform_u64(edges.size());
  for (std::size_t probe = 0; probe < edges.size(); ++probe) {
    const std::size_t del = (start + probe) % edges.size();
    std::vector<std::pair<int, int>> pruned;
    pruned.reserve(edges.size() - 1);
    for (std::size_t i = 0; i < edges.size(); ++i)
      if (i != del) pruned.push_back(edges[i]);
    const analysis::Reachability reach(graph.num_tasks(), pruned);
    if (reach.ordered(edges[del].first, edges[del].second)) continue;

    std::printf("self-test: dropped edge #%zu (%s -> %s)\n", del,
                graph.task_label(edges[del].first).c_str(),
                graph.task_label(edges[del].second).c_str());
    const auto report = analysis::audit_solve_graph(graph, pruned);
    std::printf("audit without that edge: %s\n", report.summary().c_str());
    for (const auto& v : report.violations) {
      if (v.task_a == edges[del].first && v.task_b == edges[del].second) {
        std::printf("self-test OK: auditor pinpointed the deleted edge\n");
        return 0;
      }
    }
    std::printf("self-test FAILED: deleted edge not flagged\n");
    return 1;
  }
  std::printf("self-test FAILED: no load-bearing edge found\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite_name;
  double scale = 1.0;
  int grid = 16;
  std::uint64_t seed = 1;
  int max_block = 25;
  int amalg = 4;
  double alpha = 1.0;
  std::vector<int> threads = {1, 2, 4, 8};
  std::vector<int> widths = {1, 3, 8, 32};
  bool do_verify = false, do_audit = false, do_self_test = false;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&arg](const char* k) {
      return arg.substr(std::strlen(k));
    };
    if (arg.rfind("--suite=", 0) == 0) suite_name = val("--suite=");
    else if (arg.rfind("--scale=", 0) == 0) scale = std::atof(val("--scale=").c_str());
    else if (arg.rfind("--grid=", 0) == 0) grid = std::atoi(val("--grid=").c_str());
    else if (arg.rfind("--seed=", 0) == 0) seed = std::strtoull(val("--seed=").c_str(), nullptr, 10);
    else if (arg.rfind("--max-block=", 0) == 0) max_block = std::atoi(val("--max-block=").c_str());
    else if (arg.rfind("--amalg=", 0) == 0) amalg = std::atoi(val("--amalg=").c_str());
    else if (arg.rfind("--alpha=", 0) == 0) alpha = std::atof(val("--alpha=").c_str());
    else if (arg.rfind("--threads=", 0) == 0) threads = parse_int_list(val("--threads="));
    else if (arg.rfind("--widths=", 0) == 0) widths = parse_int_list(val("--widths="));
    else if (arg == "--verify") do_verify = true;
    else if (arg == "--audit") do_audit = true;
    else if (arg == "--self-test") do_self_test = true;
    else if (arg == "--verbose") verbose = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (!do_verify && !do_audit && !do_self_test) do_verify = true;

  const SparseMatrix a = [&] {
    if (!suite_name.empty())
      return gen::suite_entry(suite_name).generate(scale, seed);
    gen::ValueOptions vo;
    vo.seed = seed;
    return gen::stencil5(grid, grid, 0.1, vo);
  }();

  SolverOptions opt;
  opt.max_block = max_block;
  opt.amalgamation = amalg;
  opt.pivot.threshold = alpha;
  if (!opt.pivot.valid()) {
    std::fprintf(stderr, "--alpha must be in (0, 1]\n");
    return 2;
  }
  const auto factor = serve::Factorization::create(a, opt);
  const SolveGraph& graph = factor->graph();
  std::printf(
      "matrix n=%d  blocks=%d  solve DAG: %d tasks, %zu edges, %d levels, "
      "avg parallelism %.2f\n",
      factor->n(), graph.num_blocks(), graph.num_tasks(),
      graph.edges().size(), graph.num_levels(), graph.average_parallelism());
  std::printf("pivot policy: %s  growth %.3e  relaxed pivots %d\n",
              opt.pivot.describe().c_str(),
              factor->solver().numeric().growth_factor(),
              factor->solver().stats().relaxed_pivots);

  int rc = 0;
  if (do_audit) {
    const auto report = analysis::audit_solve_graph(graph);
    std::printf("%s\n", report.summary().c_str());
    const std::size_t show = verbose ? report.violations.size()
                                     : std::min<std::size_t>(
                                           report.violations.size(), 5);
    for (std::size_t v = 0; v < show; ++v)
      std::printf("  !! %s\n", report.violations[v].message().c_str());
    if (!report.ok()) rc = 1;
  }
  if (do_self_test && rc == 0) rc = self_test(graph, seed);
  if (do_verify && rc == 0) rc = verify(factor, threads, widths, seed);
  return rc;
}
