#include "analysis/access_log.hpp"

#include <atomic>

#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sstar::analysis {

namespace {

std::atomic<AccessLog*> g_active{nullptr};

}  // namespace

AccessLog::~AccessLog() { uninstall(); }

void AccessLog::install() {
  AccessLog* expected = nullptr;
  SSTAR_CHECK_MSG(
      g_active.compare_exchange_strong(expected, this,
                                       std::memory_order_acq_rel),
      "another AccessLog is already installed");
}

void AccessLog::uninstall() {
  AccessLog* expected = this;
  g_active.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
}

std::vector<AccessEvent> AccessLog::take_events() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<AccessEvent> out = std::move(events_);
  events_.clear();
  return out;
}

AccessLog* AccessLog::active() {
  return g_active.load(std::memory_order_acquire);
}

void AccessLog::record(int i, int j, Access access) {
  AccessLog* log = active();
  if (log == nullptr) return;
  const int task = trace::TraceCollector::current_task();
  if (task < 0) return;
  const std::lock_guard<std::mutex> lock(log->mu_);
  log->events_.push_back({task, {i, j}, access});
}

}  // namespace sstar::analysis
