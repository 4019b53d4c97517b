// Measurement plumbing for pipebench: the clock, quantiles, seeded
// inputs, the normwise backward-error check, and the span recorder of
// the traced run.
//
// Spans are recorded from the benchmark's own code around calls into
// the library; nothing here reaches inside src/. A span belongs to one
// group: a setup repetition, one op, or the closing layer pass. Its
// duration is also a sample of the metric "<span name>_ms"; a metric's
// value for a group is the sum of its samples there (prepare's replay
// builds AᵀA twice, for example), and the reported per-layer value is
// the median over groups.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "matrix/sparse.hpp"

namespace pipebench {

/// Seconds on the steady clock since the first call.
inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// Linearly interpolated quantile, q in [0, 1], of an unsorted sample
/// (numpy's default method). An empty sample gives NaN.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// splitmix64 of (a, b): independent per-op seeds from the run seed.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// n values uniform in [-1, 1), a pure function of the seed.
inline std::vector<double> random_rhs(std::uint64_t seed, std::size_t n) {
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    seed = mix(seed, i);
    b[i] = static_cast<double>(seed >> 11) * 0x1.0p-52 - 1.0;
  }
  return b;
}

/// Normwise backward error ‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞) of one solution,
/// computed here rather than through the library under test.
inline double backward_error(const sstar::SparseMatrix& a, const double* x,
                             const double* b) {
  const int n = a.rows();
  std::vector<double> r(b, b + n);
  std::vector<double> row_abs(static_cast<std::size_t>(n), 0.0);
  double xnorm = 0.0, bnorm = 0.0;
  for (int j = 0; j < n; ++j) {
    xnorm = std::max(xnorm, std::fabs(x[j]));
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      const int i = a.row_idx()[k];
      r[i] -= a.values()[k] * x[j];
      row_abs[i] += std::fabs(a.values()[k]);
    }
  }
  double rnorm = 0.0, anorm = 0.0;
  for (int i = 0; i < n; ++i) {
    rnorm = std::max(rnorm, std::fabs(r[i]));
    anorm = std::max(anorm, row_abs[i]);
    bnorm = std::max(bnorm, std::fabs(b[i]));
  }
  const double scale = anorm * xnorm + bnorm;
  // NaN anywhere makes the comparison below fail, which is the point.
  return scale > 0.0 ? rnorm / scale : rnorm;
}

enum class Phase { kSetup, kOp, kPass };

struct Span {
  std::string name;
  int group = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at a group's top
  double t0 = 0.0, t1 = 0.0;
};

struct Group {
  Phase phase = Phase::kSetup;
  int id = 0;  ///< op index, or setup repetition
};

/// In-memory trace of one run: spans, per-group metric samples, and the
/// exact counts. Counts are recorded only outside ops, where the matrix
/// is the setup matrix, so a seed always reproduces them.
class Recorder {
 public:
  void begin_group(Phase phase, int id) {
    groups_.push_back({phase, id});
    open_.clear();
  }
  int open(const char* name) {
    spans_.push_back({name, current(), open_.empty() ? -1 : open_.back(),
                      now_s(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  /// Closes span `s` (and anything left open inside it); returns seconds.
  double close(int s) {
    Span& sp = spans_[static_cast<std::size_t>(s)];
    sp.t1 = now_s();
    while (!open_.empty() && open_.back() >= s) open_.pop_back();
    sample(sp.name + "_ms", (sp.t1 - sp.t0) * 1e3);
    return sp.t1 - sp.t0;
  }
  void sample(const std::string& metric, double value) {
    samples_[metric][current()] += value;
  }
  void count(const std::string& metric, double value) {
    if (groups_.empty() || groups_.back().phase != Phase::kOp)
      counts_[metric] = value;
  }

  /// Median over the op groups that recorded `metric`, or, if no op
  /// did, over the setup and pass groups. NaN when nothing recorded it.
  double layer_value(const std::string& metric) const {
    const auto it = samples_.find(metric);
    if (it == samples_.end()) return std::nan("");
    std::vector<double> ops, other;
    for (const auto& [g, v] : it->second)
      (groups_[static_cast<std::size_t>(g)].phase == Phase::kOp ? ops : other)
          .push_back(v);
    return median(ops.empty() ? other : ops);
  }
  const std::map<std::string, double>& counts() const { return counts_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Group>& groups() const { return groups_; }

 private:
  int current() const { return static_cast<int>(groups_.size()) - 1; }

  std::vector<Group> groups_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, std::map<int, double>> samples_;
  std::map<std::string, double> counts_;
};

/// RAII span; does nothing when the recorder is null (untraced runs).
class Scope {
 public:
  Scope(Recorder* rec, const char* name)
      : rec_(rec), span_(rec ? rec->open(name) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span early; returns its seconds (0 when untraced or
  /// already closed).
  double close() {
    if (span_ < 0) return 0.0;
    const double s = rec_->close(span_);
    span_ = -1;
    return s;
  }

 private:
  Recorder* rec_;
  int span_;
};

}  // namespace pipebench
