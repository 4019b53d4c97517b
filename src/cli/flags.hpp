// Command-line flags the tools, benches and examples share: where the
// matrix comes from, how the solver analyses it, and the one strict
// reader for numeric values and comma-separated lists.
//
// A numeric flag value must parse completely (std::from_chars over the
// whole string, finite for reals); anything else exits 2 naming the
// flag and the value, so `--scale=x` or `--ranks=abc` is an error
// instead of a silent 0.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "matrix/generators.hpp"
#include "matrix/io.hpp"
#include "matrix/suite.hpp"
#include "solve/solver.hpp"

namespace sstar::cli {

/// `value` read as a T in full, or exit 2 naming `flag` and `value`.
template <class T>
T number(const char* flag, const std::string& value) {
  T out{};
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, out);
  bool ok = !value.empty() && ec == std::errc() && end == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out);
  if (!ok) {
    std::fprintf(stderr, "error: %s: '%s' is not a valid number\n", flag,
                 value.c_str());
    std::exit(2);
  }
  return out;
}

/// `value` split at commas, empty items skipped: strings as they are,
/// anything else read with number<T>(flag, item).
template <class T>
std::vector<T> list(const char* flag, const std::string& value) {
  std::vector<T> out;
  for (std::size_t begin = 0; begin <= value.size();) {
    const std::size_t end = std::min(value.find(',', begin), value.size());
    const std::string item = value.substr(begin, end - begin);
    if (!item.empty()) {
      if constexpr (std::is_same_v<T, std::string>)
        out.push_back(item);
      else
        out.push_back(number<T>(flag, item));
    }
    begin = end + 1;
  }
  return out;
}

/// The text after `prefix` when `arg` starts with it.
inline std::optional<std::string> flag_value(const std::string& arg,
                                             const char* prefix) {
  const std::string p(prefix);
  if (arg.rfind(p, 0) != 0) return std::nullopt;
  return arg.substr(p.size());
}

/// --ordering=mindeg|nd|rcm|natural, or exit 2.
inline SolverOptions::Ordering ordering(const std::string& value) {
  if (value == "mindeg") return SolverOptions::Ordering::kMinDegreeAtA;
  if (value == "nd") return SolverOptions::Ordering::kNestedDissection;
  if (value == "rcm") return SolverOptions::Ordering::kRcm;
  if (value != "natural") {
    std::fprintf(stderr, "unknown ordering %s\n", value.c_str());
    std::exit(2);
  }
  return SolverOptions::Ordering::kNatural;
}

/// --alpha=A, a threshold-pivoting policy in (0, 1], or exit 2.
inline PivotPolicy alpha(const std::string& value) {
  PivotPolicy policy;
  policy.threshold = number<double>("--alpha", value);
  if (!policy.valid()) {
    std::fprintf(stderr, "--alpha must be in (0, 1]\n");
    std::exit(2);
  }
  return policy;
}

/// --max-block=N and --amalg=N: consume `arg` if it is one, setting
/// `opt`.
inline bool solver_flag(const std::string& arg, SolverOptions& opt) {
  if (auto v = flag_value(arg, "--max-block=")) {
    opt.max_block = number<int>("--max-block", *v);
  } else if (auto v = flag_value(arg, "--amalg=")) {
    opt.amalgamation = number<int>("--amalg", *v);
  } else {
    return false;
  }
  return true;
}

/// The matrix source and solver flags every tool takes: --suite=NAME
/// --scale=S --grid=N --seed=S --max-block=N --amalg=N. Tools that take
/// a file set `path` from their positional argument.
struct MatrixFlags {
  std::string path;
  std::string suite;
  double scale = 1.0;
  int grid = 0;  ///< 0: the tool's default stencil size
  std::uint64_t seed = 1;
  SolverOptions opt;

  /// Consume `arg` if it is one of the shared flags.
  bool parse(const std::string& arg) {
    return parse_source(arg) || solver_flag(arg, opt);
  }

  /// Consume `arg` if it is --suite, --scale, --grid or --seed.
  bool parse_source(const std::string& arg) {
    if (auto v = flag_value(arg, "--suite=")) {
      suite = *v;
    } else if (auto v = flag_value(arg, "--scale=")) {
      scale = number<double>("--scale", *v);
    } else if (auto v = flag_value(arg, "--grid=")) {
      grid = number<int>("--grid", *v);
    } else if (auto v = flag_value(arg, "--seed=")) {
      seed = number<std::uint64_t>("--seed", *v);
    } else {
      return false;
    }
    return true;
  }

  /// The file, else the suite replica, else a five-point stencil of
  /// `grid` (or `default_grid`) squared unknowns.
  SparseMatrix load(int default_grid) const {
    if (!path.empty()) return io::read_matrix_file(path);
    if (!suite.empty()) return gen::suite_entry(suite).generate(scale, seed);
    gen::ValueOptions vo;
    vo.seed = seed;
    const int g = grid != 0 ? grid : default_grid;
    return gen::stencil5(g, g, 0.1, vo);
  }

  /// What load(default_grid) reads: the path, the suite name, or
  /// "stencil5 GxG".
  std::string describe(int default_grid) const {
    if (!path.empty()) return path;
    if (!suite.empty()) return suite;
    const std::string g = std::to_string(grid != 0 ? grid : default_grid);
    return "stencil5 " + g + "x" + g;
  }
};

}  // namespace sstar::cli
