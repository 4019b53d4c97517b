#include "matrix/hb_io.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace sstar::io {

namespace {

std::string rtrim(std::string s) {
  while (!s.empty() && (s.back() == ' ' || s.back() == '\r' ||
                        s.back() == '\n' || s.back() == '\t'))
    s.pop_back();
  return s;
}

std::string upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

// A Fortran repeat-count format like "(13I6)", "(4E20.12)", "(1P,3E26.18)"
// or "(10F7.1)": how many fields per line and how wide each is.
struct FieldFormat {
  int per_line = 0;
  int width = 0;
};

FieldFormat parse_format(const std::string& fmt) {
  FieldFormat f;
  // Scan for the last <count><letter><width> group; tolerate scale
  // factors like 1P and commas.
  for (std::size_t i = 0; i < fmt.size(); ++i) {
    const char c = static_cast<char>(std::toupper(fmt[i]));
    if (c == 'I' || c == 'E' || c == 'D' || c == 'F' || c == 'G') {
      // Repeat count: digits immediately before the letter.
      std::size_t b = i;
      while (b > 0 && std::isdigit(static_cast<unsigned char>(fmt[b - 1])))
        --b;
      f.per_line = b < i ? std::atoi(fmt.substr(b, i - b).c_str()) : 1;
      // Width: digits after the letter, up to '.' or ')'.
      std::size_t e = i + 1;
      while (e < fmt.size() &&
             std::isdigit(static_cast<unsigned char>(fmt[e])))
        ++e;
      f.width = std::atoi(fmt.substr(i + 1, e - i - 1).c_str());
    }
  }
  SSTAR_CHECK_MSG(f.per_line > 0 && f.width > 0,
                  "unparseable HB field format: " << fmt);
  return f;
}

// Read `count` fixed-width fields laid out `fmt.per_line` per line.
template <typename Parse>
void read_fields(std::istream& in, const FieldFormat& fmt,
                 std::int64_t count, Parse&& parse) {
  std::string line;
  std::int64_t done = 0;
  while (done < count) {
    SSTAR_CHECK_MSG(std::getline(in, line),
                    "truncated HB data section (" << done << "/" << count
                                                  << " fields)");
    for (int k = 0; k < fmt.per_line && done < count; ++k) {
      const std::size_t off = static_cast<std::size_t>(k) * fmt.width;
      if (off >= line.size()) break;  // short trailing line
      std::string field = line.substr(off, static_cast<std::size_t>(fmt.width));
      // Fortran 'D' exponents.
      std::replace(field.begin(), field.end(), 'D', 'E');
      std::replace(field.begin(), field.end(), 'd', 'e');
      parse(field);
      ++done;
    }
  }
  SSTAR_CHECK(done == count);
}

// Header counts are untrusted: size an up-front reservation from one at
// most this large, and let the fields actually read grow the vector.
std::size_t bounded_reserve(long long count) {
  return static_cast<std::size_t>(std::min(count, 1LL << 20));
}

}  // namespace

SparseMatrix read_harwell_boeing(std::istream& in, HbInfo* info) {
  std::string line;

  // Line 1: title + key.
  SSTAR_CHECK_MSG(std::getline(in, line), "empty HB stream");
  HbInfo hb;
  hb.title = rtrim(line.substr(0, std::min<std::size_t>(72, line.size())));
  if (line.size() > 72) hb.key = rtrim(line.substr(72));

  // Line 2: card counts.
  SSTAR_CHECK_MSG(std::getline(in, line), "truncated HB header");
  long long totcrd = 0, ptrcrd = 0, indcrd = 0, valcrd = 0, rhscrd = 0;
  {
    std::istringstream ss(line);
    ss >> totcrd >> ptrcrd >> indcrd >> valcrd >> rhscrd;
    SSTAR_CHECK_MSG(ptrcrd > 0 && indcrd > 0, "bad HB card counts: " << line);
  }

  // Line 3: type + dimensions.
  SSTAR_CHECK_MSG(std::getline(in, line), "truncated HB header");
  hb.type = upper(rtrim(line.substr(0, std::min<std::size_t>(3, line.size()))));
  SSTAR_CHECK_MSG(hb.type.size() == 3, "bad HB MXTYPE: " << line);
  long long nrow = 0, ncol = 0, nnz = 0, neltvl = 0;
  {
    std::istringstream ss(line.size() > 14 ? line.substr(14) : std::string());
    ss >> nrow >> ncol >> nnz >> neltvl;
    SSTAR_CHECK_MSG(nrow > 0 && ncol > 0 && nnz > 0,
                    "bad HB dimensions: " << line);
    const std::pair<const char*, long long> counts[] = {
        {"NROW", nrow}, {"NCOL", ncol}, {"NNZERO", nnz}};
    for (const auto& [field, value] : counts)
      SSTAR_CHECK_MSG(value <= INT_MAX, "HB header " << field << " " << value
                                                     << " exceeds " << INT_MAX);
  }
  const char vtype = hb.type[0];
  const char sym = hb.type[1];
  const char layout = hb.type[2];
  SSTAR_CHECK_MSG(vtype == 'R' || vtype == 'P',
                  "unsupported HB value type: " << hb.type);
  SSTAR_CHECK_MSG(layout == 'A', "element (unassembled) HB matrices are "
                                 "not supported");
  SSTAR_CHECK_MSG(sym == 'U' || sym == 'S' || sym == 'Z' || sym == 'R',
                  "unsupported HB symmetry: " << hb.type);

  // Line 4: formats (pad so pattern files' short cards slice cleanly).
  SSTAR_CHECK_MSG(std::getline(in, line), "truncated HB header");
  line.resize(std::max<std::size_t>(line.size(), 80), ' ');
  const FieldFormat ptrfmt = parse_format(line.substr(0, 16));
  const FieldFormat indfmt = parse_format(line.substr(16, 16));
  FieldFormat valfmt{1, 20};
  if (vtype == 'R') valfmt = parse_format(line.substr(32, 20));

  // Optional line 5 (RHS descriptor) — skipped; we do not load RHS data.
  if (rhscrd > 0)
    SSTAR_CHECK_MSG(std::getline(in, line), "truncated HB header (RHS)");

  // Column pointers (1-based), row indices, values.
  std::vector<long long> col_ptr;
  col_ptr.reserve(bounded_reserve(ncol + 1));
  read_fields(in, ptrfmt, ncol + 1, [&](const std::string& f) {
    col_ptr.push_back(std::atoll(f.c_str()));
  });
  SSTAR_CHECK_MSG(col_ptr.front() == 1 && col_ptr.back() == nnz + 1,
                  "inconsistent HB column pointers");
  for (long long j = 0; j < ncol; ++j) {
    const long long lo = col_ptr[static_cast<std::size_t>(j)];
    const long long hi = col_ptr[static_cast<std::size_t>(j) + 1];
    SSTAR_CHECK_MSG(lo <= hi && hi <= nnz + 1,
                    "HB column " << j + 1 << " has pointers " << lo << ".."
                                 << hi << ", outside non-decreasing [1, "
                                 << nnz + 1 << "]");
  }

  std::vector<int> rows;
  rows.reserve(bounded_reserve(nnz));
  read_fields(in, indfmt, nnz, [&](const std::string& f) {
    rows.push_back(std::atoi(f.c_str()));
  });

  std::vector<double> vals;
  if (vtype == 'R') {
    vals.reserve(bounded_reserve(nnz));
    read_fields(in, valfmt, nnz, [&](const std::string& f) {
      vals.push_back(std::strtod(f.c_str(), nullptr));
    });
  } else {
    vals.assign(static_cast<std::size_t>(nnz), 1.0);
  }

  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(nnz) * (sym == 'U' ? 1 : 2));
  for (long long j = 0; j < ncol; ++j) {
    for (long long k = col_ptr[j] - 1; k < col_ptr[j + 1] - 1; ++k) {
      const int i = rows[k] - 1;
      SSTAR_CHECK_MSG(i >= 0 && i < nrow, "HB row index out of range");
      const double v = vals[k];
      t.push_back({i, static_cast<int>(j), v});
      if (i != j) {
        if (sym == 'S' || sym == 'R')
          t.push_back({static_cast<int>(j), i, v});
        else if (sym == 'Z')
          t.push_back({static_cast<int>(j), i, -v});
      }
    }
  }
  if (info) *info = hb;
  return SparseMatrix::from_triplets(static_cast<int>(nrow),
                                     static_cast<int>(ncol), std::move(t));
}

SparseMatrix read_harwell_boeing(const std::string& path, HbInfo* info) {
  std::ifstream f(path);
  SSTAR_CHECK_MSG(f.is_open(), "cannot open " << path);
  return read_harwell_boeing(f, info);
}

}  // namespace sstar::io
