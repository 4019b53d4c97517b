#include "matrix/io.hpp"

#include <algorithm>
#include <climits>
#include <fstream>
#include <sstream>

#include "matrix/hb_io.hpp"
#include "util/check.hpp"

namespace sstar::io {

namespace {
std::string lower(std::string s) {
  for (char& c : s)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return s;
}
}  // namespace

SparseMatrix read_matrix_market(std::istream& in) {
  std::string line;
  SSTAR_CHECK_MSG(std::getline(in, line), "empty Matrix Market stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  SSTAR_CHECK_MSG(banner == "%%MatrixMarket", "missing MatrixMarket banner");
  SSTAR_CHECK_MSG(lower(object) == "matrix" && lower(format) == "coordinate",
                  "only coordinate matrices are supported");
  field = lower(field);
  symmetry = lower(symmetry);
  SSTAR_CHECK_MSG(
      field == "real" || field == "integer" || field == "pattern",
      "unsupported field type: " << field);
  SSTAR_CHECK_MSG(symmetry == "general" || symmetry == "symmetric",
                  "unsupported symmetry: " << symmetry);

  // Skip comments.
  do {
    SSTAR_CHECK_MSG(std::getline(in, line), "truncated Matrix Market stream");
  } while (!line.empty() && line[0] == '%');

  std::istringstream dims(line);
  long long rows = 0, cols = 0, entries = 0;
  dims >> rows >> cols >> entries;
  SSTAR_CHECK_MSG(rows > 0 && cols > 0 && entries >= 0,
                  "bad Matrix Market size line: " << line);
  SSTAR_CHECK_MSG(rows <= INT_MAX && cols <= INT_MAX,
                  "Matrix Market size line " << line
                                             << ": dimensions exceed "
                                             << INT_MAX);

  // The entry count is untrusted: reserve a bounded amount and let the
  // entries actually read grow the vector.
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(std::min(entries, 1LL << 20)));
  for (long long e = 0; e < entries; ++e) {
    long long i = 0, j = 0;
    double v = 1.0;
    const bool read = static_cast<bool>(in >> i >> j) &&
                      (field == "pattern" || static_cast<bool>(in >> v));
    SSTAR_CHECK_MSG(read, "Matrix Market data truncated at entry "
                              << e + 1 << " of " << entries);
    SSTAR_CHECK_MSG(i >= 1 && i <= rows && j >= 1 && j <= cols,
                    "entry out of range: " << i << " " << j);
    t.push_back({static_cast<int>(i - 1), static_cast<int>(j - 1), v});
    if (symmetry == "symmetric" && i != j)
      t.push_back({static_cast<int>(j - 1), static_cast<int>(i - 1), v});
  }
  return SparseMatrix::from_triplets(static_cast<int>(rows),
                                     static_cast<int>(cols), std::move(t));
}

SparseMatrix read_matrix_market(const std::string& path) {
  std::ifstream f(path);
  SSTAR_CHECK_MSG(f.is_open(), "cannot open " << path);
  return read_matrix_market(f);
}

SparseMatrix read_matrix_file(const std::string& path, HbInfo* hb_info) {
  std::ifstream f(path);
  SSTAR_CHECK_MSG(f.is_open(), "cannot open " << path);
  std::string first;
  std::getline(f, first);
  f.clear();
  f.seekg(0);
  if (first.rfind("%%MatrixMarket", 0) == 0) return read_matrix_market(f);
  return read_harwell_boeing(f, hb_info);
}

void write_matrix_market(const SparseMatrix& m, std::ostream& out) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
  std::ostringstream buf;
  buf.precision(17);
  for (int j = 0; j < m.cols(); ++j)
    for (int k = m.col_begin(j); k < m.col_end(j); ++k)
      buf << m.row_idx()[k] + 1 << " " << j + 1 << " " << m.values()[k]
          << "\n";
  out << buf.str();
}

void write_matrix_market(const SparseMatrix& m, const std::string& path) {
  std::ofstream f(path);
  SSTAR_CHECK_MSG(f.is_open(), "cannot open " << path);
  write_matrix_market(m, f);
}

}  // namespace sstar::io
