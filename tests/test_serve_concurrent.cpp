// Concurrency harness for the serving layer: many client threads, each
// with its own SolveSession, hammer ONE shared immutable Factorization
// with interleaved RHS batches. Every session's results must match its
// solo (single-threaded, fresh-session) run bitwise — sessions are
// isolated, the handle is read-only, and the only shared state is the
// factor itself. Runs under the `tsan` ctest label; a data race
// anywhere in the handle or the DAG executor is a TSan hit here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "serve/factorization.hpp"
#include "serve/session.hpp"
#include "test_helpers.hpp"

namespace sstar {
namespace {

void expect_bits_equal(const std::vector<double>& got,
                       const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " differs at i=" << i;
}

std::vector<double> random_panel(int n, int nrhs, std::uint64_t seed) {
  std::vector<double> b;
  b.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(nrhs));
  for (int c = 0; c < nrhs; ++c) {
    const auto col = testing::random_vector(n, seed + static_cast<std::uint64_t>(c));
    b.insert(b.end(), col.begin(), col.end());
  }
  return b;
}

TEST(ServeConcurrent, SessionsIsolatedAcrossClientThreads) {
  constexpr int kN = 100;
  constexpr int kClients = 8;
  constexpr int kBatches = 4;
  const SparseMatrix a = testing::random_sparse(kN, 4, 800, 0.3);
  const auto factor = serve::Factorization::create(a);

  // Per-client batch inputs and their solo-run references, computed
  // before any concurrency (session threads = 1 AND 2: the reference is
  // thread-count-invariant, so one solo run covers both).
  std::vector<std::vector<std::vector<double>>> batches(kClients);
  std::vector<std::vector<std::vector<double>>> want(kClients);
  for (int cl = 0; cl < kClients; ++cl) {
    serve::SolveSession solo(factor);
    for (int bt = 0; bt < kBatches; ++bt) {
      const int nrhs = 1 + (cl + bt) % 5;
      batches[cl].push_back(
          random_panel(kN, nrhs, 900 + static_cast<std::uint64_t>(cl * 17 + bt)));
      want[cl].push_back(solo.solve_multi(batches[cl].back(), nrhs));
    }
  }

  // Interleave: every client thread owns one session and sweeps its
  // batches repeatedly against the shared handle.
  std::vector<std::vector<std::vector<double>>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int cl = 0; cl < kClients; ++cl) {
    clients.emplace_back([&, cl] {
      // Odd clients run their sweeps DAG-parallel: the executor's
      // worker threads nest inside the client threads.
      serve::SolveSession session(factor, {cl % 2 == 0 ? 1 : 2, 32});
      for (int rep = 0; rep < 3; ++rep) {
        got[cl].clear();
        for (int bt = 0; bt < kBatches; ++bt) {
          const int nrhs = static_cast<int>(batches[cl][bt].size()) / kN;
          got[cl].push_back(session.solve_multi(batches[cl][bt], nrhs));
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int cl = 0; cl < kClients; ++cl)
    for (int bt = 0; bt < kBatches; ++bt)
      expect_bits_equal(got[cl][bt], want[cl][bt], "client batch");
}

TEST(ServeConcurrent, SameRhsSolvedEverywhereIdentically) {
  const int n = 80;
  const SparseMatrix a = testing::random_sparse(n, 4, 810, 0.3);
  const auto factor = serve::Factorization::create(a);
  const auto b = testing::random_vector(n, 811);
  const auto want = factor->solver().solve(b);

  constexpr int kClients = 8;
  std::vector<std::vector<double>> got(kClients);
  std::vector<std::thread> clients;
  for (int cl = 0; cl < kClients; ++cl)
    clients.emplace_back([&, cl] {
      serve::SolveSession session(factor, {1 + cl % 4, 32});
      for (int rep = 0; rep < 4; ++rep) got[cl] = session.solve(b);
    });
  for (auto& t : clients) t.join();
  for (int cl = 0; cl < kClients; ++cl)
    expect_bits_equal(got[cl], want, "concurrent same-RHS solve");
}

TEST(ServeConcurrent, HandleOutlivesTheCreatingScope) {
  // shared_ptr keeps the factor alive for in-flight sessions after the
  // creator drops its reference.
  const int n = 60;
  const SparseMatrix a = testing::random_sparse(n, 4, 820);
  auto factor = serve::Factorization::create(a);
  const auto b = testing::random_vector(n, 821);
  const auto want = factor->solver().solve(b);

  std::vector<double> got;
  std::thread client([&got, &b, factor] {
    serve::SolveSession session(factor, {2, 32});
    got = session.solve(b);
  });
  factor.reset();  // the client's copy keeps the handle alive
  client.join();
  expect_bits_equal(got, want, "post-release solve");
}

}  // namespace
}  // namespace sstar
