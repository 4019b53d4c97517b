// Matrix Market (coordinate format) reader/writer, and the one reader
// that tells a Matrix Market file from a Harwell–Boeing one.
//
// The paper's benchmark matrices come from the Harwell–Boeing / Davis
// collections, normally distributed in Matrix Market form. The real files
// are not available offline (DESIGN.md substitution #3), but the library
// still supports the format so users can run the solver on their own
// matrices; the synthetic suite can also be exported for inspection.
#pragma once

#include <iosfwd>
#include <string>

#include "matrix/sparse.hpp"

namespace sstar::io {

/// Parse a Matrix Market stream: "%%MatrixMarket matrix coordinate
/// real|integer|pattern general|symmetric". Pattern entries get value 1,
/// symmetric inputs are expanded to full storage. Throws CheckError on
/// malformed input.
SparseMatrix read_matrix_market(std::istream& in);

/// Read from a file path.
SparseMatrix read_matrix_market(const std::string& path);

struct HbInfo;

/// Read a matrix file in either supported format: Matrix Market when
/// the first line starts with "%%MatrixMarket", else Harwell–Boeing
/// (matrix/hb_io.hpp), whose header lands in `hb_info` when non-null.
/// Throws CheckError when the file cannot be opened or parsed.
SparseMatrix read_matrix_file(const std::string& path,
                              HbInfo* hb_info = nullptr);

/// Write in "coordinate real general" form.
void write_matrix_market(const SparseMatrix& m, std::ostream& out);
void write_matrix_market(const SparseMatrix& m, const std::string& path);

}  // namespace sstar::io
