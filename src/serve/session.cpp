#include "serve/session.hpp"

#include <cstddef>

#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace sstar::serve {

SolveSession::SolveSession(std::shared_ptr<const Factorization> factor,
                           SessionOptions opt)
    : factor_(std::move(factor)), opt_(opt) {
  SSTAR_CHECK_MSG(factor_ != nullptr, "SolveSession from null factorization");
  SSTAR_CHECK(opt_.panel_width >= 1);
  const SolveGraph& graph = factor_->graph();
  const SStarNumeric* num = &factor_->numeric();
  const int nb = graph.num_blocks();
  panel_.reserve(static_cast<std::size_t>(factor_->n()) *
                 static_cast<std::size_t>(opt_.panel_width));

  // Build the task closures once; each sweep replays them against the
  // current panel. Closures read panel_/cur_cols_ through `this` so a
  // later resize never invalidates them.
  tasks_.resize(static_cast<std::size_t>(graph.num_tasks()));
  for (int k = 0; k < nb; ++k) {
    tasks_[static_cast<std::size_t>(graph.forward_task(k))].run =
        [this, num, k] {
          const trace::KernelSpan span(trace::EventKind::kFSolve, k, -1);
          num->forward_block_panel(k, panel_.data(), cur_cols_, cur_cols_);
        };
    tasks_[static_cast<std::size_t>(graph.backward_task(k))].run =
        [this, num, k] {
          const trace::KernelSpan span(trace::EventKind::kBSolve, k, -1);
          num->backward_block_panel(k, panel_.data(), cur_cols_, cur_cols_);
        };
  }
  edges_.reserve(graph.edges().size());
  for (const auto& e : graph.edges())
    edges_.push_back({e.first, e.second});
}

void SolveSession::sweep(int ncols) {
  cur_cols_ = ncols;
  ++stats_.sweeps;
  if (opt_.threads <= 1) {
    // Inline sequential replay: exactly the order solve() uses.
    const int nb = factor_->graph().num_blocks();
    for (int k = 0; k < nb; ++k) tasks_[static_cast<std::size_t>(k)].run();
    for (int k = nb - 1; k >= 0; --k)
      tasks_[static_cast<std::size_t>(nb + k)].run();
    return;
  }
  exec::ExecOptions eopt;
  eopt.threads = opt_.threads;
  exec::run_dag(tasks_, edges_, eopt);
}

std::vector<double> SolveSession::solve(const std::vector<double>& b) {
  return solve_multi(b, 1);
}

std::vector<double> SolveSession::solve_multi(const std::vector<double>& b,
                                              int nrhs) {
  const WallTimer timer;
  std::vector<double> x =
      solve_in_panels(factor_->setup(), b, nrhs, /*transpose=*/false,
                      opt_.panel_width, panel_, [this](int w) { sweep(w); });
  ++stats_.requests;
  stats_.columns += nrhs;
  stats_.seconds += timer.seconds();
  return x;
}

}  // namespace sstar::serve
