// Fault-injection matrix over BOTH transports (satellite of DESIGN.md
// §16): every failure mode must surface as a pinned, grep-stable
// diagnostic — never a hang, never a wrong answer, and never a message
// that depends on which transport ran.
//
//   truncated payload   -> CheckError from the wire-format validator,
//                          on a payload that moved through the real
//                          transport (not just a direct apply call);
//   watchdog timeout    -> DeadlockError with the identical
//                          "recv watchdog expired" text on both;
//   peer process death  -> (proc only) the parent's waitpid monitor
//                          aborts the transport, peers unblock with the
//                          pinned "exited unexpectedly" diagnostic;
//   rank root cause     -> a CheckError thrown inside a rank PROCESS is
//                          reconstructed across the process boundary
//                          and rethrown as the run's root cause, just
//                          as the threaded runtime rethrows it.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "comm/proc_transport.hpp"
#include "comm/serialize.hpp"
#include "comm/transport.hpp"
#include "core/lu_1d.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_mp.hpp"
#include "ordering/transversal.hpp"
#include "sched/list_schedule.hpp"
#include "sim/comm_plan.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace sstar {
namespace {

struct Fixture {
  SparseMatrix a;
  StaticStructure s;
  std::unique_ptr<BlockLayout> layout;

  static Fixture make(int n, int extra, std::uint64_t seed, int mb = 8,
                      int r = 4) {
    Fixture f;
    f.a = make_zero_free_diagonal(testing::random_sparse(n, extra, seed));
    f.s = static_symbolic_factorization(f.a);
    auto part = amalgamate(f.s, find_supernodes(f.s, mb), r, mb);
    f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));
    return f;
  }
};

using TransportFactory =
    std::function<std::unique_ptr<comm::Transport>(int ranks, double wd)>;

std::vector<std::pair<const char*, TransportFactory>> transports() {
  std::vector<std::pair<const char*, TransportFactory>> out;
  out.emplace_back("inproc", [](int ranks, double wd) {
    return std::unique_ptr<comm::Transport>(
        new comm::InProcTransport(ranks, wd));
  });
#if defined(__linux__)
  out.emplace_back("proc", [](int ranks, double wd) {
    return std::unique_ptr<comm::Transport>(
        new comm::ProcTransport(ranks, wd));
  });
#endif
  return out;
}

// A factor panel truncated IN FLIGHT: the receiver's wire-format
// validator must reject it before a byte reaches the store, with the
// same diagnostic whichever transport carried it.
TEST(TransportFault, TruncatedPayloadRejectedOnBothTransports) {
  const Fixture f = Fixture::make(80, 4, 91, 8, 4);
  SStarNumeric sender(*f.layout);
  sender.assemble(f.a);
  sender.factorize();
  const int k = f.layout->num_blocks() - 1;

  for (const auto& [name, make] : transports()) {
    SCOPED_TRACE(name);
    const auto tp = make(2, 60.0);
    auto bytes = comm::serialize_factor_panel(sender, k);
    bytes.pop_back();
    tp->send(0, 1, k, std::move(bytes));
    const comm::Message m = tp->recv(1, 0, k);
    SStarNumeric receiver(*f.layout);
    receiver.assemble(f.a);
    try {
      comm::apply_factor_panel(receiver, k, m.payload.data(),
                               m.payload.size());
      FAIL() << "truncated payload was applied";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("bytes, expected"),
                std::string::npos)
          << e.what();
    }
  }
}

// A rank that stays alive but never sends: no provable deadlock, so the
// wall-clock watchdog must convert the stall into a DeadlockError whose
// text is byte-for-byte the same on both transports.
TEST(TransportFault, WatchdogTimeoutPinnedOnBothTransports) {
  std::vector<std::string> whats;
  for (const auto& [name, make] : transports()) {
    SCOPED_TRACE(name);
    const auto tp = make(2, 0.25);
    try {
      (void)tp->recv(0, 1, 44);  // rank 1 never blocks, finishes, or sends
      FAIL() << "recv returned";
    } catch (const comm::DeadlockError& e) {
      whats.emplace_back(e.what());
    }
  }
  for (const std::string& what : whats) {
    EXPECT_NE(what.find("recv watchdog expired after 0.25s on rank 0"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1: running"), std::string::npos) << what;
  }
  if (whats.size() == 2) {
    EXPECT_EQ(whats[0], whats[1]);
  }
}

#if defined(__linux__)

sim::ParallelProgram program_1d(const Fixture& f, int ranks) {
  const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
  const LuTaskGraph graph(*f.layout);
  return build_1d_program(graph, sched::graph_schedule(graph, m), m);
}

// A rank PROCESS that dies mid-run (here: _exit injected through the
// store hook, which executes inside the forked rank). The parent's
// waitpid monitor must abort the transport so the surviving ranks
// unblock promptly, and the driver must rethrow the pinned diagnostic.
TEST(TransportFault, PeerProcessDeathAbortsRunWithPinnedDiagnostic) {
  const Fixture f = Fixture::make(100, 4, 13, 8, 4);
  exec::MpOptions opt;
  opt.transport_kind = exec::MpOptions::TransportKind::kProc;
  opt.store_hook = [](int rank, DistBlockStore&) {
    if (rank == 1) _exit(7);
  };
  SStarNumeric mp(*f.layout);
  try {
    exec::execute_program_mp(program_1d(f, 4), f.a, mp, opt);
    FAIL() << "run completed despite rank 1 dying";
  } catch (const comm::DeadlockError& e) {
    FAIL() << "peer death must not masquerade as deadlock: " << e.what();
  } catch (const comm::TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1 process exited unexpectedly"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("exit code 7"), std::string::npos) << what;
  }
}

// A rank whose own code throws (forced early panel release -> a later
// consumer's out-of-store access): the CheckError crosses the process
// boundary and is rethrown as the root cause — identical contract to
// the threaded runtime's MpMemory.ForcedEarlyReleaseFailsLoudly.
TEST(TransportFault, RankCheckErrorIsRootCauseAcrossProcessBoundary) {
  const Fixture f = Fixture::make(120, 4, 13, 10, 4);
  const sim::ParallelProgram prog = program_1d(f, 4);
  const auto counts = sim::panel_consumer_counts(prog);
  int bad_k = -1, bad_rank = -1;
  for (std::size_t k = 0; k < counts.size() && bad_k < 0; ++k)
    for (std::size_t r = 0; r < counts[k].size(); ++r)
      if (counts[k][r] >= 2) {
        bad_k = static_cast<int>(k);
        bad_rank = static_cast<int>(r);
        break;
      }
  ASSERT_GE(bad_k, 0) << "fixture has no multi-use remote panel";

  exec::MpOptions opt;
  opt.transport_kind = exec::MpOptions::TransportKind::kProc;
  opt.store_hook = [&](int rank, DistBlockStore& store) {
    if (rank == bad_rank) store.set_release_override(bad_k, 1);
  };
  SStarNumeric mp(*f.layout);
  try {
    exec::execute_program_mp(prog, f.a, mp, opt);
    FAIL() << "forced early release was not detected";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("already released"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank " + std::to_string(bad_rank)),
              std::string::npos)
        << msg;
  }
}

#endif  // __linux__

}  // namespace
}  // namespace sstar
