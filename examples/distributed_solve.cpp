// Distributed-memory factorization on the simulated Cray-T3E: factor a
// FEM-fluid-class matrix (a goodwin replica) with the 2D asynchronous
// code across a sweep of processor counts, verify the parallel numerics
// against the sequential factors, and print the speedup curve. Each P
// builds ONE program: the simulator prices it and P message-passing
// ranks run its kernels. Exits 1 if any P is not bit-identical.
//
//   ./example_distributed_solve [scale]   (default 0.25)
#include <cstdio>
#include <vector>

#include "baseline/gplu.hpp"
#include "cli/flags.hpp"
#include "core/lu_2d.hpp"
#include "exec/lu_mp.hpp"
#include "matrix/suite.hpp"
#include "solve/solver.hpp"
#include "util/table.hpp"

using namespace sstar;

int main(int argc, char** argv) {
  const double scale =
      argc > 1 ? cli::number<double>("scale", argv[1]) : 0.25;
  const auto a = gen::suite_entry("goodwin").generate(scale, /*seed=*/1);
  std::printf("goodwin replica at scale %.2f: n = %d, nnz = %lld\n", scale,
              a.rows(), (long long)a.nnz());

  const SolverSetup setup = prepare(a, SolverOptions{});
  const auto gplu = baseline::gplu_factor(setup.permuted);
  std::printf("SuperLU-equivalent op count: %lld\n\n",
              (long long)gplu.flops);

  // Sequential reference solve.
  SStarNumeric seq(*setup.layout);
  seq.assemble(setup.permuted);
  seq.factorize();
  std::vector<double> b(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = 1.0 + 0.001 * static_cast<double>(i % 97);
  const auto want = seq.solve(b);

  TextTable table("2D asynchronous code on the simulated Cray-T3E");
  table.set_header({"P", "grid", "time (s)", "speedup", "MFLOPS",
                    "load bal", "overlap", "verified"});
  double t1 = 0.0;
  bool all_same = true;
  for (const int p : {1, 2, 4, 8, 16, 32, 64, 128}) {
    const auto m = sim::MachineModel::cray_t3e(p);
    const auto prog = build_2d_program(*setup.layout, m, /*async=*/true);
    const auto res = simulate_run(prog, m, /*grid_columns=*/true);
    if (p == 1) t1 = res.seconds;
    // The same program, run on P ranks, must produce bit-identical
    // factors.
    SStarNumeric num(*setup.layout);
    exec::execute_program_mp(prog, setup.permuted, num);
    const auto got = num.solve(b);
    bool same = true;
    for (std::size_t i = 0; i < b.size(); ++i) same &= got[i] == want[i];
    all_same &= same;
    table.add_row({std::to_string(p),
                   std::to_string(m.grid.rows) + "x" +
                       std::to_string(m.grid.cols),
                   fmt_double(res.seconds, 4), fmt_double(t1 / res.seconds, 2),
                   fmt_double(res.mflops(static_cast<double>(gplu.flops)), 1),
                   fmt_double(res.load_balance, 3),
                   std::to_string(res.overlap_all), same ? "yes" : "NO"});
  }
  table.print();
  return all_same ? 0 : 1;
}
