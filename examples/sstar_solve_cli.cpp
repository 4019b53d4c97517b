// Command-line sparse direct solver: the "adoptable tool" wrapper around
// the library.
//
//   ./example_sstar_solve_cli MATRIX.mtx [RHS.mtx] [flags]
//
// Reads a Matrix Market matrix (and optionally a dense n x k RHS in
// coordinate form); factors with the S* pipeline; solves (with iterative
// refinement); reports factor statistics, pivot growth, an estimated
// condition number, and solution quality. Without an RHS file, solves
// against b = A * ones.
//
// Flags: --ordering=mindeg|nd|rcm|natural  --max-block=N  --amalg=N
//        --equilibrate  --no-refine  --write-solution=PATH. A numeric
//        value that does not parse, or an unknown flag, exits 2.
#include <cstdio>
#include <string>
#include <vector>

#include "blas/kernel_backend.hpp"
#include "cli/flags.hpp"
#include "matrix/hb_io.hpp"
#include "matrix/io.hpp"
#include "util/check.hpp"
#include "solve/condest.hpp"
#include "solve/refine.hpp"
#include "solve/solver.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace sstar;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s MATRIX.mtx [RHS.mtx] [--ordering=...] "
                 "[--max-block=N] [--amalg=N] [--equilibrate] "
                 "[--no-refine] [--write-solution=PATH]\n",
                 argv[0]);
    return 2;
  }
  std::string matrix_path, rhs_path, solution_path;
  SolverOptions opt;
  bool refine = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (cli::solver_flag(arg, opt)) {
      continue;
    } else if (auto v = cli::flag_value(arg, "--ordering=")) {
      opt.ordering = cli::ordering(*v);
    } else if (arg == "--equilibrate") {
      opt.equilibrate = true;
    } else if (arg == "--no-refine") {
      refine = false;
    } else if (auto v = cli::flag_value(arg, "--write-solution=")) {
      solution_path = *v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    } else if (matrix_path.empty()) {
      matrix_path = arg;
    } else if (rhs_path.empty()) {
      rhs_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument %s\n", arg.c_str());
      return 2;
    }
  }

  try {
    io::HbInfo info;
    const SparseMatrix a = io::read_matrix_file(matrix_path, &info);
    if (!info.type.empty())
      std::printf("Harwell-Boeing %s: %s\n", info.type.c_str(),
                  info.title.c_str());
    std::printf("matrix: %s  n = %d, nnz = %lld\n", matrix_path.c_str(),
                a.rows(), (long long)a.nnz());
    if (a.rows() != a.cols()) {
      std::fprintf(stderr, "matrix must be square\n");
      return 1;
    }

    WallTimer t_sym;
    Solver solver(a, opt);
    const double sym_s = t_sym.seconds();
    WallTimer t_num;
    solver.factorize();
    const double num_s = t_num.seconds();

    std::vector<double> b;
    int nrhs = 1;
    if (!rhs_path.empty()) {
      const SparseMatrix rhs = io::read_matrix_market(rhs_path);
      if (rhs.rows() != a.rows()) {
        std::fprintf(stderr, "RHS row count mismatch\n");
        return 1;
      }
      nrhs = rhs.cols();
      const auto dense = rhs.to_dense();
      b.assign(dense.data(),
               dense.data() + static_cast<std::size_t>(a.rows()) * nrhs);
    } else {
      b = a.multiply(std::vector<double>(a.rows(), 1.0));
    }

    WallTimer t_solve;
    std::vector<double> x;
    double backward = 0.0;
    if (nrhs == 1 && refine) {
      const std::vector<double> b1(b.begin(), b.begin() + a.rows());
      const auto res = refined_solve(solver, a, b1);
      x = res.x;
      backward = res.backward_error;
    } else {
      x = solver.solve_multi(b, nrhs);
    }
    const double solve_s = t_solve.seconds();

    const auto cond = estimate_condition(solver, a);
    const auto& setup = solver.setup();

    TextTable report("solver report");
    report.set_header({"quantity", "value"});
    report.add_row({"symbolic time (s)", fmt_double(sym_s, 3)});
    report.add_row({"numeric time (s)", fmt_double(num_s, 3)});
    report.add_row({"solve time (s)", fmt_double(solve_s, 4)});
    report.add_row({"factor entries (static)",
                    fmt_count(setup.structure.factor_entries())});
    report.add_row({"supernodes",
                    fmt_count(solver.layout().num_blocks())});
    report.add_row({"BLAS-3 flop share",
                    fmt_percent(solver.stats().blas3_fraction(), 1)});
    report.add_row({"kernel backend", blas::kernel_backend_summary()});
    report.add_row({"off-diagonal pivots",
                    fmt_count(solver.stats().off_diagonal_pivots)});
    report.add_row({"pivot growth",
                    fmt_double(solver.numeric().growth_factor(), 2)});
    report.add_row({"cond_1 estimate", fmt_double(cond.condition, 1)});
    if (nrhs == 1 && refine)
      report.add_row({"backward error", fmt_double(backward, 17)});
    report.print();

    if (!solution_path.empty()) {
      std::vector<Triplet> t;
      for (int r = 0; r < nrhs; ++r)
        for (int i = 0; i < a.rows(); ++i)
          t.push_back({i, r, x[static_cast<std::size_t>(r) * a.rows() + i]});
      io::write_matrix_market(
          SparseMatrix::from_triplets(a.rows(), nrhs, std::move(t)),
          solution_path);
      std::printf("solution written to %s\n", solution_path.c_str());
    }
  } catch (const sstar::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
