// bench_serve — serving-layer throughput and latency under open-loop
// Poisson load.
//
// Factors one matrix into an immutable serve::Factorization, then:
//
//   1. closed loop: one session per RHS width solving back-to-back —
//      the blocked multi-RHS amortization gate (width-32 panels must
//      beat 32 single-RHS solves in columns/sec);
//   2. open loop: N client threads, each with its own SolveSession,
//      draining a shared Poisson arrival schedule (arrival times fixed
//      up front — classic open-loop load, queueing delay included in
//      latency). Reports solves/sec, p50/p99 latency, and a per-thread
//      breakdown.
//
// Results land in JSON (default results/bench_serve.json, override
// with --json=PATH).
//
// Flags: --json=PATH --grid=N (default 40) --suite=NAME --scale=S
//        --seed=S (cli/flags.hpp) --requests=N (default 200)
//        --clients=a,b,c (default 1,2,4) --widths=a,b (default 1,32)
//        --session-threads=T (DAG workers per sweep, default 1)
//        --utilization=F (open-loop offered load, default 0.7). A value
//        that does not parse, a count below 1 or an empty list exits 2.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cli/flags.hpp"
#include "common.hpp"
#include "serve/factorization.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace sstar;

namespace {

std::vector<double> random_panel(int n, int nrhs, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(nrhs));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

struct ClosedLoop {
  int width = 0;
  int requests = 0;
  double seconds = 0.0;
  double solves_per_sec = 0.0;
  double columns_per_sec = 0.0;
};

struct ThreadShare {
  int requests = 0;
  double busy_seconds = 0.0;
};

struct OpenLoop {
  int width = 0;
  int clients = 0;
  int requests = 0;
  double offered_rate = 0.0;  ///< arrivals per second
  double seconds = 0.0;       ///< first arrival to last completion
  double solves_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<ThreadShare> per_thread;
};

ClosedLoop run_closed_loop(const std::shared_ptr<const serve::Factorization>& factor,
                           int width, int requests, int session_threads,
                           std::uint64_t seed) {
  ClosedLoop out;
  out.width = width;
  out.requests = requests;
  serve::SolveSession session(factor, {session_threads, 32});
  const auto b = random_panel(factor->n(), width, seed);
  session.solve_multi(b, width);  // warm the session scratch
  const WallTimer t;
  for (int i = 0; i < requests; ++i) session.solve_multi(b, width);
  out.seconds = t.seconds();
  out.solves_per_sec = requests / std::max(out.seconds, 1e-12);
  out.columns_per_sec = out.solves_per_sec * width;
  return out;
}

OpenLoop run_open_loop(const std::shared_ptr<const serve::Factorization>& factor,
                       int width, int clients, int requests,
                       int session_threads, double per_solve_seconds,
                       double utilization, std::uint64_t seed) {
  OpenLoop out;
  out.width = width;
  out.clients = clients;
  out.requests = requests;
  // Offered load: `utilization` of the closed-loop capacity of this
  // many clients on this host.
  out.offered_rate =
      utilization * clients / std::max(per_solve_seconds, 1e-12);

  // The whole arrival schedule is drawn up front (open loop: arrivals
  // do not wait for completions).
  Rng rng(seed);
  std::vector<double> arrival(static_cast<std::size_t>(requests));
  double t = 0.0;
  for (int i = 0; i < requests; ++i) {
    t += -std::log(1.0 - rng.uniform()) / out.offered_rate;
    arrival[static_cast<std::size_t>(i)] = t;
  }
  const auto b = random_panel(factor->n(), width, seed + 1);

  std::vector<double> latency(static_cast<std::size_t>(requests), 0.0);
  std::vector<double> done(static_cast<std::size_t>(requests), 0.0);
  out.per_thread.assign(static_cast<std::size_t>(clients), {});
  std::atomic<int> next{0};

  const auto t0 = std::chrono::steady_clock::now();
  const auto since_start = [t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int w = 0; w < clients; ++w) {
    workers.emplace_back([&, w] {
      serve::SolveSession session(factor, {session_threads, 32});
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= requests) break;
        const double due = arrival[static_cast<std::size_t>(i)];
        // Wait out the open-loop arrival time (never solve early).
        for (double now = since_start(); now < due; now = since_start())
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(due - now, 1e-3)));
        const double begin = since_start();
        session.solve_multi(b, width);
        const double end = since_start();
        latency[static_cast<std::size_t>(i)] = end - due;
        done[static_cast<std::size_t>(i)] = end;
        out.per_thread[static_cast<std::size_t>(w)].requests += 1;
        out.per_thread[static_cast<std::size_t>(w)].busy_seconds +=
            end - begin;
      }
    });
  }
  for (auto& th : workers) th.join();

  out.seconds = *std::max_element(done.begin(), done.end());
  out.solves_per_sec = requests / std::max(out.seconds, 1e-12);
  std::vector<double> sorted = latency;
  std::sort(sorted.begin(), sorted.end());
  const auto pct = [&sorted](double p) {
    const std::size_t idx = static_cast<std::size_t>(
        p * (static_cast<double>(sorted.size()) - 1.0) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)] * 1e3;
  };
  out.p50_ms = pct(0.50);
  out.p99_ms = pct(0.99);
  return out;
}

void write_json(const std::string& json_path, const std::string& matrix_desc,
                int n, const std::vector<ClosedLoop>& closed,
                double multi_rhs_speedup, const std::vector<OpenLoop>& open) {
  util::JsonWriter w;
  w.begin_object().field("bench", "serve").field("matrix", matrix_desc);
  w.field("n", n).key("closed_loop").begin_array();
  for (const ClosedLoop& c : closed) {
    w.begin_object().field("width", c.width).field("requests", c.requests);
    w.field("seconds", c.seconds).field("solves_per_sec", c.solves_per_sec);
    w.field("columns_per_sec", c.columns_per_sec).end_object();
  }
  w.end_array();
  w.field("multi_rhs_speedup_width" + std::to_string(closed.back().width),
          multi_rhs_speedup);
  w.key("open_loop").begin_array();
  for (const OpenLoop& o : open) {
    w.begin_object().field("width", o.width).field("clients", o.clients);
    w.field("requests", o.requests);
    w.field("offered_rate_per_sec", o.offered_rate);
    w.field("seconds", o.seconds).field("solves_per_sec", o.solves_per_sec);
    w.field("p50_ms", o.p50_ms).field("p99_ms", o.p99_ms);
    w.key("per_thread").begin_array();
    for (const ThreadShare& t : o.per_thread) {
      w.begin_object().field("requests", t.requests);
      w.field("busy_seconds", t.busy_seconds).end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  bench::write_results("serve", json_path, w);
}

// Exit 2 naming `flag` unless `ok`.
void require(bool ok, const char* flag, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "error: %s must be %s\n", flag, what);
  std::exit(2);
}

bool all_positive(const std::vector<int>& v) {
  return !v.empty() && *std::min_element(v.begin(), v.end()) > 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  cli::MatrixFlags in;
  int requests = 200;
  int session_threads = 1;
  double utilization = 0.7;
  std::vector<int> clients = {1, 2, 4};
  std::vector<int> widths = {1, 32};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (in.parse_source(arg)) continue;
    if (auto v = cli::flag_value(arg, "--json=")) json_path = *v;
    else if (auto v = cli::flag_value(arg, "--requests=")) requests = cli::number<int>("--requests", *v);
    else if (auto v = cli::flag_value(arg, "--clients=")) clients = cli::list<int>("--clients", *v);
    else if (auto v = cli::flag_value(arg, "--widths=")) widths = cli::list<int>("--widths", *v);
    else if (auto v = cli::flag_value(arg, "--session-threads=")) session_threads = cli::number<int>("--session-threads", *v);
    else if (auto v = cli::flag_value(arg, "--utilization=")) utilization = cli::number<double>("--utilization", *v);
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  require(requests >= 1, "--requests", "at least 1");
  require(all_positive(clients), "--clients", "a list of positive counts");
  require(all_positive(widths), "--widths", "a list of positive widths");
  require(utilization > 0.0, "--utilization", "positive");

  const SparseMatrix a = in.load(40);
  const std::string matrix_desc = in.describe(40);

  const WallTimer factor_timer;
  const auto factor = serve::Factorization::create(a);
  std::printf("factorized %s (n=%d) in %.3f s; solve DAG avg parallelism %.2f\n",
              matrix_desc.c_str(), factor->n(), factor_timer.seconds(),
              factor->graph().average_parallelism());

  // Closed loop: the multi-RHS amortization gate.
  std::vector<ClosedLoop> closed;
  for (const int w : widths)
    closed.push_back(
        run_closed_loop(factor, w, requests, session_threads, in.seed + 10));
  const double multi_rhs_speedup =
      closed.back().columns_per_sec / closed.front().columns_per_sec;
  std::printf("\nclosed loop (%d requests per width):\n", requests);
  for (const ClosedLoop& c : closed)
    std::printf("  width %2d: %9.1f solves/s  %10.1f columns/s\n", c.width,
                c.solves_per_sec, c.columns_per_sec);
  std::printf("  width-%d vs width-%d columns/s: %.2fx\n",
              closed.back().width, closed.front().width, multi_rhs_speedup);

  // Open loop: Poisson arrivals at `utilization` of closed-loop capacity.
  std::vector<OpenLoop> open;
  std::printf("\nopen loop (Poisson, %.0f%% utilization, %d requests):\n",
              utilization * 100.0, requests);
  std::printf("  %5s %7s %12s %12s %9s %9s\n", "width", "clients", "rate/s",
              "solves/s", "p50 ms", "p99 ms");
  for (const int w : widths) {
    double per_solve = 0.0;
    for (const ClosedLoop& c : closed)
      if (c.width == w) per_solve = c.seconds / c.requests;
    for (const int cl : clients) {
      open.push_back(run_open_loop(factor, w, cl, requests, session_threads,
                                   per_solve, utilization,
                                   in.seed + 100 + static_cast<std::uint64_t>(cl)));
      const OpenLoop& o = open.back();
      std::printf("  %5d %7d %12.1f %12.1f %9.3f %9.3f\n", o.width, o.clients,
                  o.offered_rate, o.solves_per_sec, o.p50_ms, o.p99_ms);
    }
  }

  write_json(json_path, matrix_desc, factor->n(), closed, multi_rhs_speedup,
             open);
  return 0;
}
