// Tests for the machine models and the discrete-event simulator.
#include <gtest/gtest.h>

#include "sim/event_sim.hpp"
#include "sim/machine.hpp"
#include "util/check.hpp"

namespace sstar::sim {
namespace {

MachineModel unit_machine(int p, Grid g = {}) {
  MachineModel m;
  m.name = "unit";
  m.processors = p;
  m.grid = g.size() == p ? g : Grid{1, p};
  m.blas1_rate = m.blas2_rate = m.blas3_rate = 1.0;  // seconds == flops
  // 0.5 s latency, 2 bytes per second on the one link.
  m.topology = Topology::flat(p, {0.5, 2.0});
  m.task_overhead = 0.0;     // exact arithmetic in these unit tests
  return m;
}

TEST(Machine, DefaultGridPrefersRatioTwo) {
  EXPECT_EQ(default_grid(2).rows, 1);
  EXPECT_EQ(default_grid(8).rows, 2);
  EXPECT_EQ(default_grid(8).cols, 4);
  EXPECT_EQ(default_grid(32).rows, 4);
  EXPECT_EQ(default_grid(32).cols, 8);
  EXPECT_EQ(default_grid(128).rows, 8);
  EXPECT_EQ(default_grid(128).cols, 16);
  // Primes degrade to 1 x p.
  EXPECT_EQ(default_grid(7).rows, 1);
  EXPECT_EQ(default_grid(7).cols, 7);
}

TEST(Machine, CrayPresetsMatchPaperConstants) {
  const auto t3d = MachineModel::cray_t3d(64);
  EXPECT_DOUBLE_EQ(t3d.blas3_rate, 103e6);
  EXPECT_DOUBLE_EQ(t3d.blas2_rate, 85e6);
  EXPECT_DOUBLE_EQ(t3d.topology.network_link.bandwidth, 126e6);
  const auto t3e = MachineModel::cray_t3e(128);
  EXPECT_DOUBLE_EQ(t3e.blas3_rate, 388e6);
  EXPECT_DOUBLE_EQ(t3e.blas2_rate, 255e6);
  // The paper's DGEMM/DGEMV gap is the soul of S*: check it persists.
  EXPECT_GT(t3e.blas3_rate / t3e.blas2_rate, 1.2);
}

TEST(EventSim, SerialChainOnOneProc) {
  ParallelProgram prog(1);
  const auto a = prog.add_task({0, 2.0, "a", 0, 0});
  const auto b = prog.add_task({0, 3.0, "b", 0, 0});
  (void)a;
  (void)b;
  const auto res = simulate(prog, unit_machine(1));
  EXPECT_DOUBLE_EQ(res.makespan, 5.0);
  EXPECT_DOUBLE_EQ(res.start[1], 2.0);
  EXPECT_DOUBLE_EQ(res.load_balance(), 1.0);
}

TEST(EventSim, MessageDelaysConsumer) {
  ParallelProgram prog(2);
  const auto a = prog.add_task({0, 1.0, "a", 0, 0});
  const auto b = prog.add_task({1, 1.0, "b", 0, 0});
  prog.add_message(a, b, 4.0);  // 0.5 + 4/2 = 2.5 s transfer
  const auto res = simulate(prog, unit_machine(2));
  EXPECT_DOUBLE_EQ(res.start[b], 3.5);
  EXPECT_DOUBLE_EQ(res.makespan, 4.5);
  EXPECT_EQ(res.message_count, 1);
  EXPECT_DOUBLE_EQ(res.comm_volume_bytes, 4.0);
}

TEST(EventSim, PureDependencyCostsNothing) {
  ParallelProgram prog(2);
  const auto a = prog.add_task({0, 1.0, "a", 0, 0});
  const auto b = prog.add_task({1, 1.0, "b", 0, 0});
  prog.add_dependency(a, b);
  const auto res = simulate(prog, unit_machine(2));
  EXPECT_DOUBLE_EQ(res.start[b], 1.0);
  EXPECT_EQ(res.message_count, 0);
}

TEST(EventSim, SameProcMessageIsOrderingOnly) {
  ParallelProgram prog(1);
  const auto a = prog.add_task({0, 1.0, "a", 0, 0});
  const auto b = prog.add_task({0, 1.0, "b", 0, 0});
  prog.add_message(a, b, 1e9);
  const auto res = simulate(prog, unit_machine(1));
  EXPECT_DOUBLE_EQ(res.makespan, 2.0);
  EXPECT_EQ(res.message_count, 0);
}

TEST(EventSim, DeadlockDetected) {
  ParallelProgram prog(2);
  const auto a = prog.add_task({0, 1.0, "a", 0, 0});
  const auto b = prog.add_task({1, 1.0, "b", 0, 0});
  prog.add_dependency(a, b);
  prog.add_dependency(b, a);
  EXPECT_THROW(simulate(prog, unit_machine(2)), CheckError);
}

TEST(EventSim, LoadBalanceReflectsSkew) {
  ParallelProgram prog(2);
  prog.add_task({0, 3.0, "a", 0, 0});
  prog.add_task({1, 1.0, "b", 0, 0});
  const auto res = simulate(prog, unit_machine(2));
  EXPECT_DOUBLE_EQ(res.load_balance(), 4.0 / (2.0 * 3.0));
}

TEST(EventSim, StageOverlapMeasured) {
  // Two procs run update tasks of stages 0 and 2 concurrently.
  ParallelProgram prog(2);
  prog.add_task({0, 2.0, "u0", 0, 1});
  prog.add_task({1, 2.0, "u2", 2, 1});
  prog.add_task({1, 2.0, "u5", 5, 0});  // different kind: excluded
  const auto res = simulate(prog, unit_machine(2));
  EXPECT_EQ(res.stage_overlap(prog, 1), 2);
  EXPECT_EQ(res.stage_overlap(prog, 0), 0);
}

TEST(EventSim, BufferHighWaterTracksResidency) {
  // A message arrives early but its consumer is blocked behind a long
  // local task: bytes sit in the buffer meanwhile.
  ParallelProgram prog(2);
  const auto a = prog.add_task({0, 1.0, "a", 0, 0});
  const auto blocker = prog.add_task({1, 100.0, "w", 0, 0});
  const auto b = prog.add_task({1, 1.0, "b", 0, 0});
  (void)blocker;
  prog.add_message(a, b, 64.0);
  const auto res = simulate(prog, unit_machine(2));
  EXPECT_DOUBLE_EQ(res.buffer_high_water(prog), 64.0);
}

TEST(EventSim, GanttRendersAllProcs) {
  ParallelProgram prog(2);
  prog.add_task({0, 1.0, "a", 0, 0});
  prog.add_task({1, 2.0, "b", 0, 0});
  const auto res = simulate(prog, unit_machine(2));
  const std::string g = res.gantt(prog, 40);
  EXPECT_NE(g.find("P0"), std::string::npos);
  EXPECT_NE(g.find("P1"), std::string::npos);
  EXPECT_NE(g.find("#"), std::string::npos);
}

}  // namespace
}  // namespace sstar::sim
