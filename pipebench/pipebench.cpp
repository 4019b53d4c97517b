// pipebench — end-to-end and per-layer benchmark of the S* pipeline.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//             [--commit SHA] [--source-digest HEX] [--trace-out PATH]
//
// Runs one named workload as a closed loop with one client for S
// seconds, verifies every op outside the timed region, and prints as
// its last stdout line one JSON object {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics; --trace 1 times
// each layer's public calls from outside the library and reports the
// per-layer metrics. --smoke runs one setup and two ops instead of S
// seconds. README.md explains the workloads and metrics.
//
// The benchmark links the library like any user program and uses only
// its public headers; it adds no instrumentation inside src/.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "blas/kernel_backend.hpp"
#include "core/lu_2d.hpp"
#include "exec/lu_mp.hpp"
#include "exec/lu_real.hpp"
#include "harness.hpp"
#include "matrix/pattern_ops.hpp"
#include "matrix/suite.hpp"
#include "ordering/etree.hpp"
#include "ordering/min_degree.hpp"
#include "ordering/transversal.hpp"
#include "serve/factorization.hpp"
#include "serve/session.hpp"
#include "sim/machine.hpp"
#include "solve/solver.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "trace/analyze.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace pipebench {
namespace {

using namespace sstar;

/// Largest accepted normwise backward error of one solution column.
constexpr double kTolerance = 1e-12;
/// Setup repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// In-process ranks of the layer pass's distributed factorization.
constexpr int kRanks = 2;
/// Width of the layer pass's multi-RHS serving request.
constexpr int kWideRhs = 32;
/// Seed streams apart from the op indices (which are >= -1).
constexpr int kSetupStream = std::numeric_limits<int>::min();
constexpr std::uint64_t kPassStream = ~std::uint64_t{0};

struct MetricDef {
  const char* name;
  const char* unit;
};

// In report order: prepare() and its replayed steps, the analysis
// counts, the numeric layer and kernels, solve, the distributed layers,
// the serving layer, and the cost of tracing itself.
constexpr MetricDef kPerLayer[] = {
    {"solve.prepare_ms", "ms"},
    {"solve.prepare_replay_ms", "ms"},
    {"ordering.transversal_ms", "ms"},
    {"matrix.ata_ms", "ms"},
    {"ordering.mindeg_ms", "ms"},
    {"ordering.etree_ms", "ms"},
    {"matrix.permute_ms", "ms"},
    {"symbolic.static_ms", "ms"},
    {"supernode.partition_ms", "ms"},
    {"matrix.ata_nnz", "count"},
    {"symbolic.fill_nnz", "count"},
    {"supernode.blocks", "count"},
    {"solve.construct_ms", "ms"},
    {"core.assemble_ms", "ms"},
    {"core.factor_ms", "ms"},
    {"core.update_ms", "ms"},
    {"core.factor_kernel_ms", "ms"},
    {"core.scaleswap_ms", "ms"},
    {"blas.gflops", "GFlop/s"},
    {"blas.flops", "count"},
    {"blas.blas1_flops", "count"},
    {"blas.blas2_flops", "count"},
    {"blas.blas3_flops", "count"},
    {"blas.blas3_frac", "ratio"},
    {"core.offdiag_pivots", "count"},
    {"solve.solve_ms", "ms"},
    {"core.build_2d_ms", "ms"},
    {"exec.mp_run_ms", "ms"},
    {"exec.rank_compute_ms", "ms"},
    {"comm.wait_ms", "ms"},
    {"exec.rank_idle_ms", "ms"},
    {"comm.messages", "count"},
    {"comm.bytes", "B"},
    {"core.peak_store_mb", "MiB"},
    {"serve.w1_ms", "ms"},
    {"serve.w32_ms", "ms"},
    {"core.fs_bs_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"core.solve_tasks", "count"},
    {"exec.dag2_w1_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.span_coverage_pct", "%"},
};

// ---------------------------------------------------------------------
// Traced library calls. Each helper does the work an untraced run does;
// with a recorder it adds spans around the calls and, where the
// library's own trace::TraceCollector has kernel or transport events to
// offer, installs one for the call and folds its events into samples.

// Runs `call` inside span `name` with a collector installed; returns
// the events it recorded and the span's seconds through `seconds`.
template <class F>
trace::Trace collect(Recorder& rec, const char* name, double* seconds,
                     F&& call) {
  trace::TraceCollector collector;
  collector.install();
  Scope span(&rec, name);
  call();
  *seconds = span.close();
  collector.uninstall();
  return collector.take();
}

double kind_seconds(const trace::Trace& tr, trace::EventKind kind) {
  double s = 0.0;
  for (const trace::TraceEvent& e : tr.events)
    if (e.kind == kind) s += e.t1 - e.t0;
  return s;
}

/// Sequential numeric factorization of `s`, with its kernel spans and
/// FactorStats folded into the core.* and blas.* metrics when traced.
void factorize(Solver& s, Recorder* rec) {
  if (!rec) {
    s.factorize();
    return;
  }
  double sec = 0.0;
  const trace::Trace tr =
      collect(*rec, "core.factor", &sec, [&] { s.factorize(); });
  rec->sample("core.update_ms",
              kind_seconds(tr, trace::EventKind::kUpdate) * 1e3);
  rec->sample("core.factor_kernel_ms",
              kind_seconds(tr, trace::EventKind::kFactor) * 1e3);
  rec->sample("core.scaleswap_ms",
              kind_seconds(tr, trace::EventKind::kScale) * 1e3);
  const FactorStats& st = s.stats();
  rec->sample("blas.gflops",
              static_cast<double>(st.flops.total()) / sec * 1e-9);
  rec->count("blas.flops", static_cast<double>(st.flops.total()));
  rec->count("blas.blas1_flops", static_cast<double>(st.flops.blas1));
  rec->count("blas.blas2_flops", static_cast<double>(st.flops.blas2));
  rec->count("blas.blas3_flops", static_cast<double>(st.flops.blas3));
  rec->count("blas.blas3_frac", st.blas3_fraction());
  rec->count("core.offdiag_pivots", st.off_diagonal_pivots);
}

/// One distributed factorization of `s`'s matrix: the 2D asynchronous
/// program on kRanks in-process ranks, made as run_2d_mp's two calls
/// (build_2d_program, execute_program_mp) for a span each. True when the
/// factors equal `s`'s sequential ones bit for bit and no panel leaked.
bool distributed_pass(const Solver& s, Recorder& rec) {
  static const sim::MachineModel machine =
      sim::MachineModel::cray_t3e(kRanks);
  SStarNumeric result(s.layout());
  result.set_pivot_policy(s.options().pivot);
  std::optional<sim::ParallelProgram> prog;
  {
    Scope span(&rec, "core.build_2d");
    prog.emplace(build_2d_program(s.layout(), machine, true, nullptr));
  }
  exec::MpStats st;
  double sec = 0.0;
  const trace::Trace tr = collect(rec, "exec.mp_run", &sec, [&] {
    st = exec::execute_program_mp(*prog, s.setup().permuted, result);
  });
  const trace::PhaseBreakdown b = trace::phase_breakdown(tr);
  double idle = 0.0;
  for (const trace::PhaseBreakdown::Lane& lane : b.lanes) idle += lane.idle;
  rec.sample("exec.rank_compute_ms", b.total_compute() * 1e3);
  rec.sample("comm.wait_ms", b.total_comm_wait() * 1e3);
  rec.sample("exec.rank_idle_ms", idle * 1e3);
  rec.sample("core.peak_store_mb",
             static_cast<double>(st.peak_store_bytes_total()) / (1 << 20));
  rec.count("comm.messages", static_cast<double>(st.total_messages()));
  rec.count("comm.bytes", static_cast<double>(st.total_bytes()));
  return exec::factors_bitwise_equal(s.numeric(), result) &&
         st.panels_leaked() == 0;
}

/// One serving request of `nrhs` columns; single-RHS requests, when
/// traced, split into FS/BS kernel time and the session's overhead.
std::vector<double> serve_request(serve::SolveSession& s,
                                  const std::vector<double>& b, int nrhs,
                                  Recorder* rec) {
  const auto call = [&] {
    return nrhs == 1 ? s.solve(b) : s.solve_multi(b, nrhs);
  };
  if (!rec) return call();
  std::vector<double> x;
  double sec = 0.0;
  const trace::Trace tr = collect(*rec, nrhs == 1 ? "serve.w1" : "serve.w32",
                                  &sec, [&] { x = call(); });
  if (nrhs == 1) {
    const double fsbs = kind_seconds(tr, trace::EventKind::kFSolve) +
                        kind_seconds(tr, trace::EventKind::kBSolve);
    rec->sample("core.fs_bs_ms", fsbs * 1e3);
    rec->sample("serve.overhead_ms", (sec - fsbs) * 1e3);
  }
  return x;
}

bool columns_ok(const SparseMatrix& a, const std::vector<double>& x,
                const std::vector<double>& b, int nrhs) {
  const std::size_t n = static_cast<std::size_t>(a.rows());
  if (x.size() != n * static_cast<std::size_t>(nrhs)) return false;
  for (int c = 0; c < nrhs; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * n;
    if (!(backward_error(a, x.data() + off, b.data() + off) <= kTolerance))
      return false;
  }
  return true;
}

/// prepare() timed as one call, then its steps replayed in solver.cpp's
/// order through the same public functions, one span each, so the
/// analysis sub-phases get times; the replay total is reported beside
/// solve.prepare_ms so a divergence shows. Ends with assemble() on a
/// fresh numeric for core.assemble_ms.
void analysis_probe(const SparseMatrix& a, Recorder& rec) {
  const SolverOptions opt;
  SolverSetup setup;
  {
    Scope span(&rec, "solve.prepare");
    setup = prepare(a, opt);
  }

  Scope replay(&rec, "solve.prepare_replay");
  std::vector<int> rowt;
  SparseMatrix a1;
  {
    Scope span(&rec, "ordering.transversal");
    a1 = make_zero_free_diagonal(a, &rowt);
  }
  Pattern ata;
  {
    Scope span(&rec, "matrix.ata");
    ata = ata_pattern(a1);
  }
  std::vector<int> q;
  {
    Scope span(&rec, "ordering.mindeg");
    q = min_degree_order(ata);
  }
  SparseMatrix pm;
  {
    Scope span(&rec, "matrix.permute");
    pm = a1.permuted(q, q);
  }
  Pattern ata2;
  {
    Scope span(&rec, "matrix.ata");
    ata2 = ata_pattern(pm);
  }
  std::vector<int> post;
  {
    Scope span(&rec, "ordering.etree");
    post = postorder(elimination_tree(ata2));
  }
  bool identity = true;
  for (std::size_t i = 0; i < post.size() && identity; ++i)
    identity = post[i] == static_cast<int>(i);
  if (!identity) {
    Scope span(&rec, "matrix.permute");
    pm = pm.permuted(post, post);
  }
  StaticStructure st;
  {
    Scope span(&rec, "symbolic.static");
    st = static_symbolic_factorization(pm);
  }
  std::optional<BlockLayout> layout;
  {
    Scope span(&rec, "supernode.partition");
    SupernodePartition part = find_supernodes(st, opt.max_block);
    part = amalgamate(st, part, opt.amalgamation, opt.max_block);
    layout.emplace(st, std::move(part));
  }
  replay.close();
  if (layout->num_blocks() != setup.layout->num_blocks() ||
      st.factor_entries() != setup.structure.factor_entries())
    std::fprintf(stderr, "warning: the prepare() replay no longer matches "
                         "prepare(); its sub-phase times are stale\n");
  rec.count("matrix.ata_nnz", static_cast<double>(ata.nnz()));
  rec.count("symbolic.fill_nnz",
            static_cast<double>(setup.structure.factor_entries()));
  rec.count("supernode.blocks", setup.layout->num_blocks());

  SStarNumeric num(*setup.layout);
  num.set_pivot_policy(opt.pivot);
  Scope span(&rec, "core.assemble");
  num.assemble(setup.permuted);
}

// ---------------------------------------------------------------------
// Workloads. Each is a closed loop with one client on one thread; it
// generates its inputs from the seed with
// gen::suite_entry(..).generate(scale, seed), and the library only sees
// the generated matrices and right-hand sides. None times the
// distributed executor or the serving layer end to end: on a shared
// 4 vCPU VM, an op whose two ranks need two vCPUs at once ran up to 2x
// slower whenever the host preempted either, and ten-run medians of such
// a workload spread by 35% against a 0.25 bound; ten-run medians of
// single-RHS serving requests (about 2 ms each) spread by up to 26%. Both
// run in the traced layer pass instead.

class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  /// Builds the retained state: inputs, analysis and factor, warm-up.
  virtual void setup(Recorder* rec) = 0;
  /// Makes op i's inputs; untimed.
  virtual void make_inputs(int i) = 0;
  /// The timed operation on the inputs of the last make_inputs().
  virtual void run_op(Recorder* rec) = 0;
  /// Checks the last op's outputs; untimed.
  virtual bool check_op() const = 0;
  /// Traced runs: calls made after a traced op, outside its span.
  virtual void probe_op(Recorder&) {}
  /// The setup matrix, for the analysis probe and, after
  /// release_factor(), the layer pass.
  virtual const SparseMatrix& matrix() const = 0;
  /// The setup matrix's factor, handed to the closing layer pass.
  virtual std::shared_ptr<const serve::Factorization> release_factor() = 0;

 protected:
  std::uint64_t op_seed(int i) const {
    return mix(seed_, static_cast<std::uint64_t>(i));
  }
  /// Setup's warm-up: one op, verified.
  void warm_up(int i, Recorder* rec) {
    make_inputs(i);
    run_op(rec);
    SSTAR_CHECK_MSG(check_op(), "warm-up op " << i << " failed verification");
  }

  std::uint64_t seed_;
};

// oneshot — isolates the analysis layers (matrix/ pattern ops,
// ordering/, symbolic/, supernode/). Every op solves a system never seen
// before: a fresh e40r0100-class replica (2D FEM fluids, scale 0.3,
// n = 5,184, about 164k entries) whose pattern changes with the op's
// seed, through Solver(a) + factorize() + solve(b) on one thread.
// prepare() is about 60% of the op, the numeric factor a third, and no
// pattern repeats, so only a faster analysis can help it.
class Oneshot final : public Workload {
 public:
  using Workload::Workload;
  void setup(Recorder* rec) override { warm_up(-1, rec); }
  void make_inputs(int i) override {
    solver_.reset();  // the last op's teardown stays out of the timer
    a_ = gen::suite_entry("e40r0100").generate(0.3, op_seed(i));
    b_ = random_rhs(mix(op_seed(i), 1), static_cast<std::size_t>(a_.rows()));
  }
  void run_op(Recorder* rec) override {
    {
      Scope span(rec, "solve.construct");
      solver_ = std::make_unique<Solver>(a_);
    }
    factorize(*solver_, rec);
    Scope span(rec, "solve.solve");
    x_ = solver_->solve(b_);
  }
  bool check_op() const override { return columns_ok(a_, x_, b_, 1); }
  void probe_op(Recorder& rec) override { analysis_probe(a_, rec); }
  /// The last op's matrix; right after setup, the setup matrix.
  const SparseMatrix& matrix() const override { return a_; }
  /// Regenerates and factors the setup matrix, so the ops run without
  /// a second factor held beside theirs.
  std::shared_ptr<const serve::Factorization> release_factor() override {
    make_inputs(-1);
    auto solver = std::make_unique<Solver>(a_);
    solver->factorize();
    return std::make_shared<const serve::Factorization>(std::move(solver));
  }

 private:
  SparseMatrix a_;
  std::vector<double> b_, x_;
  std::unique_ptr<Solver> solver_;
};

// refactor — isolates the numeric layer (core/) and the BLAS kernels
// (blas/): Newton or time-stepping, where the pattern stays and the
// matrix is factored again. Setup analyses and factors one
// b33_5600-class replica (3D FEM, scale 0.6, n = 3,300, about 219k
// entries, 279 supernodes); each op is Solver::refactorize(policy) +
// solve(b_i) on one thread. BLAS-3 updates are 96% of each op's 1.42
// GFlop and analysis runs only in setup, so this is the bypass that
// shows an analysis change leaves numeric time alone. A replica that
// drops entries at random, as ex11's does, changes its fill and flops
// with the seed (by up to 32%); this one's pattern is the same for every
// seed, so runs on different seeds do the same work.
class Refactor final : public Workload {
 public:
  using Workload::Workload;
  void setup(Recorder* rec) override {
    a_ = gen::suite_entry("b33_5600").generate(0.6, op_seed(kSetupStream));
    {
      Scope span(rec, "solve.construct");
      solver_ = std::make_unique<Solver>(a_);
    }
    factorize(*solver_, rec);
    warm_up(-1, rec);
  }
  void make_inputs(int i) override {
    b_ = random_rhs(op_seed(i), static_cast<std::size_t>(a_.rows()));
  }
  void run_op(Recorder* rec) override {
    if (rec) {
      // refactorize()'s two numeric calls, made separately for a span
      // each: the same work under the same policy.
      solver_->numeric().set_pivot_policy(solver_->options().pivot);
      {
        Scope span(rec, "core.assemble");
        solver_->numeric().assemble(solver_->setup().permuted);
      }
      factorize(*solver_, rec);
    } else {
      solver_->refactorize(solver_->options().pivot);
    }
    Scope span(rec, "solve.solve");
    x_ = solver_->solve(b_);
  }
  bool check_op() const override { return columns_ok(a_, x_, b_, 1); }
  const SparseMatrix& matrix() const override { return a_; }
  std::shared_ptr<const serve::Factorization> release_factor() override {
    return std::make_shared<const serve::Factorization>(std::move(solver_));
  }

 private:
  SparseMatrix a_;
  std::vector<double> b_, x_;
  std::unique_ptr<Solver> solver_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "oneshot") return std::make_unique<Oneshot>(seed);
  if (name == "refactor") return std::make_unique<Refactor>(seed);
  return nullptr;
}

/// Closing pass of a traced run: the solve, distributed and serving
/// layers run once on the setup matrix's factor, so every per-layer
/// metric exists on every workload. A metric the workload's ops produce
/// ignores these samples (Recorder::layer_value).
void layer_pass(std::shared_ptr<const serve::Factorization> f,
                const SparseMatrix& a, std::uint64_t seed, Recorder& rec) {
  rec.begin_group(Phase::kPass, 0);
  const Solver& s = f->solver();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_rhs(mix(seed, kPassStream), n);
  std::vector<double> x;
  {
    Scope span(&rec, "solve.solve");
    x = s.solve(b);
  }
  SSTAR_CHECK_MSG(columns_ok(a, x, b, 1), "layer pass: solve inaccurate");

  SSTAR_CHECK_MSG(distributed_pass(s, rec),
                  "layer pass: distributed factors differ");

  serve::SolveSession inline_session(f, serve::SessionOptions{1, kWideRhs});
  serve::SolveSession dag2(f, serve::SessionOptions{2, kWideRhs});
  for (const int nrhs : {1, kWideRhs}) {
    const std::vector<double> bb =
        random_rhs(mix(mix(seed, kPassStream), nrhs),
                   n * static_cast<std::size_t>(nrhs));
    SSTAR_CHECK_MSG(
        columns_ok(a, serve_request(inline_session, bb, nrhs, &rec), bb, nrhs),
        "layer pass: session solve inaccurate");
  }
  {
    Scope span(&rec, "exec.dag2_w1");
    x = dag2.solve(b);
  }
  SSTAR_CHECK_MSG(columns_ok(a, x, b, 1),
                  "layer pass: 2-thread solve inaccurate");
  rec.count("core.solve_tasks", f->graph().num_tasks());
}

// ---------------------------------------------------------------------
// The closed loop.

struct Outcome {
  int attempted = 0;
  int failed = 0;
  std::vector<double> untraced_s, traced_s;  ///< verified ops only
  double timed_s = 0.0;  ///< summed over every attempted op
  std::string first_error;
};

void note_failure(Outcome& out, const std::string& what) {
  ++out.failed;
  if (out.first_error.empty()) out.first_error = what;
}

/// Runs ops until `seconds` have passed or `max_ops` were attempted. In a
/// traced run every other op is traced.
Outcome measure(Workload& w, double seconds, int max_ops, Recorder* rec) {
  Outcome out;
  const double end = now_s() + seconds;
  for (int i = 0; i < max_ops && now_s() < end; ++i) {
    const bool traced = rec && i % 2 == 1;
    ++out.attempted;
    double dt = 0.0;
    try {
      w.make_inputs(i);
      if (traced) {
        rec->begin_group(Phase::kOp, i);
        Scope op(rec, "op");
        w.run_op(rec);
        dt = op.close();
      } else {
        const double t0 = now_s();
        w.run_op(nullptr);
        dt = now_s() - t0;
      }
      out.timed_s += dt;
      if (!w.check_op()) {
        note_failure(out, "op " + std::to_string(i) + " failed verification");
        continue;
      }
      if (traced) w.probe_op(*rec);
    } catch (const std::exception& e) {
      note_failure(out, "op " + std::to_string(i) + ": " + e.what());
      continue;
    }
    (traced ? out.traced_s : out.untraced_s).push_back(dt);
  }
  return out;
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name, unit;
  double value;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

/// Per span, the seconds its direct child spans take.
std::vector<double> child_seconds(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  return child;
}

/// Median share of a traced op's time its top-level layer spans cover.
double span_coverage_pct(const Recorder& rec) {
  const std::vector<Span>& spans = rec.spans();
  const std::vector<double> child = child_seconds(spans);
  std::vector<double> shares;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == "op" && spans[i].t1 > spans[i].t0)
      shares.push_back(100.0 * child[i] / (spans[i].t1 - spans[i].t0));
  return median(shares);
}

std::vector<Metric> per_layer_metrics(const Recorder& rec, const Outcome& out) {
  std::vector<Metric> m;
  for (const MetricDef& d : kPerLayer) {
    const std::string name = d.name;
    double v = std::nan("");
    if (name == "trace.overhead_pct") {
      v = 100.0 * (median(out.traced_s) / median(out.untraced_s) - 1.0);
    } else if (name == "trace.span_coverage_pct") {
      v = span_coverage_pct(rec);
    } else if (rec.counts().count(name)) {
      v = rec.counts().at(name);
    } else {
      v = rec.layer_value(name);
    }
    m.push_back({name, d.unit, v});
  }
  return m;
}

std::vector<Metric> end_to_end_metrics(const Outcome& out,
                                       const std::vector<double>& setup_s,
                                       double peak_mb) {
  const double ok = out.attempted - out.failed;
  return {
      {"op_p50_ms", "ms", quantile(out.untraced_s, 0.5) * 1e3},
      {"op_p90_ms", "ms", quantile(out.untraced_s, 0.9) * 1e3},
      {"ops_per_s", "1/s", out.timed_s > 0.0 ? ok / out.timed_s : std::nan("")},
      {"setup_s", "s", median(setup_s)},
      {"peak_rss_mb", "MiB", peak_mb},
  };
}

/// Spans of a traced run, with self times, as one JSON document.
void write_trace(const std::string& path, const std::string& provenance,
                 const Recorder& rec) {
  const std::vector<Span>& spans = rec.spans();
  const std::vector<double> child = child_seconds(spans);
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "warning: cannot write trace %s\n", path.c_str());
    return;
  }
  static const char* const kPhase[] = {"setup", "op", "pass"};
  f << "{\"provenance\": " << provenance << ",\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const Group& g = rec.groups()[static_cast<std::size_t>(s.group)];
    f << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_string(s.name)
      << ", \"phase\": \"" << kPhase[static_cast<int>(g.phase)]
      << "\", \"group\": " << g.id << ", \"parent\": " << s.parent
      << ", \"t0\": " << json_number(s.t0) << ", \"t1\": " << json_number(s.t1)
      << ", \"self_ms\": " << json_number((s.t1 - s.t0 - child[i]) * 1e3)
      << "}";
  }
  f << "\n]}\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  std::string commit = "unknown", source_digest = "unknown", trace_out;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload "
               "oneshot|refactor --seed N --seconds S "
               "--trace 0|1 [--smoke] [--commit SHA] [--source-digest HEX] "
               "[--trace-out PATH]\n",
               msg);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v);
      else if (flag == "--commit") a.commit = v;
      else if (flag == "--source-digest") a.source_digest = v;
      else if (flag == "--trace-out") a.trace_out = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return (a.trace == 0 || a.trace == 1) && a.seconds > 0.0 &&
         std::isfinite(a.seconds);
}

int run(const Args& args) {
  std::ostringstream prov;
  prov << "{\"workload\": " << json_string(args.workload)
       << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
       << ", \"seconds\": " << json_number(args.seconds)
       << ", \"smoke\": " << (args.smoke ? "true" : "false")
       << ", \"commit\": " << json_string(args.commit)
       << ", \"source_digest\": " << json_string(args.source_digest)
       << ", \"nproc\": " << affinity_cpus()
       << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ", \"kernel_backend\": "
       << json_string(blas::kernel_backend_summary())
       << ", \"compiler\": " << json_string(PIPEBENCH_COMPILER)
       << ", \"build_type\": " << json_string(PIPEBENCH_BUILD_TYPE) << "}";
  std::printf("provenance %s\n", prov.str().c_str());
  std::fflush(stdout);

  std::unique_ptr<Recorder> rec;
  if (args.trace == 1) rec = std::make_unique<Recorder>();
  const int reps = args.smoke ? 1 : kSetupReps;
  std::vector<double> setup_s;
  // One timed setup repetition; traced, an analysis probe of its matrix
  // follows it.
  const auto set_up = [&](int r) {
    if (rec) rec->begin_group(Phase::kSetup, r);
    const double t0 = now_s();
    std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
    w->setup(rec.get());
    setup_s.push_back(now_s() - t0);
    if (rec) analysis_probe(w->matrix(), *rec);
    return w;
  };

  std::unique_ptr<Workload> w;
  try {
    w = set_up(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: setup failed: %s\n", e.what());
    return 1;
  }
  const int max_ops =
      args.smoke ? 2 : std::numeric_limits<int>::max();
  const double seconds =
      args.smoke ? std::numeric_limits<double>::infinity() : args.seconds;
  Outcome out = measure(*w, seconds, max_ops, rec.get());
  // Read before the remaining setups, whose freed memory would fragment
  // the heap and move the peak.
  const double peak_mb = peak_rss_mib();

  if (rec) {
    ++out.attempted;  // the closing layer pass is verified like an op
    try {
      // release_factor() first: on oneshot it makes matrix() the setup
      // matrix again.
      std::shared_ptr<const serve::Factorization> f = w->release_factor();
      layer_pass(std::move(f), w->matrix(), args.seed, *rec);
    } catch (const std::exception& e) {
      note_failure(out, std::string("layer pass: ") + e.what());
    }
  }
  w.reset();
  try {
    for (int r = 1; r < reps; ++r) set_up(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: setup failed: %s\n", e.what());
    return 1;
  }

  std::vector<Metric> metrics;
  if (rec) {
    metrics = per_layer_metrics(*rec, out);
    if (!args.trace_out.empty()) write_trace(args.trace_out, prov.str(), *rec);
  } else {
    metrics = end_to_end_metrics(out, setup_s, peak_mb);
  }

  const std::size_t n_ok = out.untraced_s.size() + out.traced_s.size();
  std::printf("ops: %d attempted, %d failed; %zu untraced and %zu traced "
              "verified; %d setup repetitions\n",
              out.attempted, out.failed, out.untraced_s.size(),
              out.traced_s.size(), reps);
  if (!out.first_error.empty())
    std::printf("first failure: %s\n", out.first_error.c_str());
  bool complete = n_ok > 0;
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    complete = complete && std::isfinite(m.value);
  }
  std::ostringstream js;
  js << "{\"correct\": "
     << (out.failed == 0 && complete ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    js << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
       << json_number(metrics[i].value)
       << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  pipebench::Args args;
  if (!pipebench::parse(argc, argv, args))
    return pipebench::usage("bad or missing arguments");
  if (!pipebench::make_workload(args.workload, 0))
    return pipebench::usage(
        ("unknown workload '" + args.workload + "'").c_str());
  return pipebench::run(args);
}
