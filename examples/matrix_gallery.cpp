// Gallery of the benchmark suite: generate every replica at a small
// scale, print its statistics (order, nnz, structural symmetry, static
// fill, supernode shape), and optionally export one to Matrix Market.
//
//   ./example_matrix_gallery [scale] [export-name export-path.mtx]
#include <cstdio>

#include "cli/flags.hpp"
#include "matrix/io.hpp"
#include "matrix/pattern_ops.hpp"
#include "matrix/suite.hpp"
#include "solve/solver.hpp"
#include "util/table.hpp"

using namespace sstar;

int main(int argc, char** argv) {
  const double scale =
      argc > 1 ? cli::number<double>("scale", argv[1]) : 0.1;

  TextTable table("benchmark suite replicas at scale " +
                  fmt_double(scale, 2));
  table.set_header({"matrix", "paper n", "n", "nnz", "nnz/row", "sym",
                    "S* entries", "supernodes", "avg width"});
  for (const auto& entry : gen::suite()) {
    const auto a = entry.generate(scale, /*seed=*/1);
    SolverOptions opt;
    const auto setup = prepare(a, opt);
    table.add_row(
        {entry.name, fmt_count(entry.paper_order), fmt_count(a.rows()),
         fmt_count(a.nnz()),
         fmt_double(static_cast<double>(a.nnz()) / a.rows(), 1),
         fmt_double(structural_symmetry(a), 2),
         fmt_count(setup.structure.factor_entries()),
         fmt_count(setup.layout->num_blocks()),
         fmt_double(setup.layout->partition().average_width(), 2)});
  }
  table.print();

  if (argc > 3) {
    const auto a = gen::suite_entry(argv[2]).generate(scale, 1);
    io::write_matrix_market(a, argv[3]);
    std::printf("wrote %s replica to %s\n", argv[2], argv[3]);
  }
  return 0;
}
