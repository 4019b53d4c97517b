// Shared result type for the simulated parallel drivers, and the one
// place a simulation of a built program becomes that result.
#pragma once

#include <cstdint>
#include <string>

#include "sim/event_sim.hpp"

namespace sstar {

/// Task kind tags used by the drivers for metrics filtering.
inline constexpr int kKindFactor = 0;
inline constexpr int kKindUpdate = 1;
inline constexpr int kKindOther = 2;

struct ParallelRunResult {
  double seconds = 0.0;            ///< simulated parallel time
  double load_balance = 0.0;       ///< work_total / (P * work_max)
  double comm_bytes = 0.0;         ///< cross-processor volume
  std::int64_t messages = 0;       ///< cross-processor message count
  double total_task_seconds = 0.0; ///< sum of all task compute times
  int overlap_all = 0;             ///< update-stage overlap, all procs
  int overlap_column = 0;          ///< within a processor column
  double buffer_high_water = 0.0;  ///< bytes (§5.2 buffer residency)
  std::string gantt;               ///< ASCII chart if requested

  /// Achieved MFLOPS by the paper's formula: operation count obtained
  /// from the SuperLU-equivalent baseline divided by parallel time.
  double mflops(double baseline_ops) const {
    return seconds > 0.0 ? baseline_ops / seconds / 1e6 : 0.0;
  }
};

/// Simulate `prog` on `machine` and summarize the run. With
/// `grid_columns` (2D mappings) the within-column overlap is measured
/// over machine.grid's processor columns; without it every processor is
/// its own column (1D) and overlap_column == overlap_all.
ParallelRunResult simulate_run(const sim::ParallelProgram& prog,
                               const sim::MachineModel& machine,
                               bool grid_columns, bool capture_gantt = false);

}  // namespace sstar
