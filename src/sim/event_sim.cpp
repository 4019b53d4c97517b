#include "sim/event_sim.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <set>
#include <sstream>

#include "util/check.hpp"

namespace sstar::sim {

TaskId ParallelProgram::add_task(TaskDef def) {
  SSTAR_CHECK(def.proc >= 0 && def.proc < procs_);
  const TaskId id = static_cast<TaskId>(tasks_.size());
  if (order_.empty()) order_.resize(procs_);
  order_[def.proc].push_back(id);
  tasks_.push_back(std::move(def));
  return id;
}

void ParallelProgram::add_message(TaskId from, TaskId to, double bytes) {
  SSTAR_CHECK(from >= 0 && from < static_cast<TaskId>(tasks_.size()));
  SSTAR_CHECK(to >= 0 && to < static_cast<TaskId>(tasks_.size()));
  SSTAR_CHECK(from != to);
  messages_.push_back({from, to, bytes});
}

SimulationResult simulate(const ParallelProgram& prog,
                          const MachineModel& machine) {
  const auto n = static_cast<TaskId>(prog.tasks_.size());
  SimulationResult res;
  res.start.assign(n, 0.0);
  res.finish.assign(n, 0.0);
  res.busy.assign(prog.procs_, 0.0);

  // Build full dependency lists: messages + program-order edges.
  std::vector<int> indeg(n, 0);
  std::vector<std::vector<int>> out_msgs(n);  // message indices by source
  for (std::size_t m = 0; m < prog.messages_.size(); ++m) {
    out_msgs[prog.messages_[m].from].push_back(static_cast<int>(m));
    ++indeg[prog.messages_[m].to];
  }
  std::vector<TaskId> prev_on_proc(n, -1);
  std::vector<TaskId> next_on_proc(n, -1);
  if (!prog.order_.empty()) {
    for (const auto& order : prog.order_) {
      for (std::size_t i = 1; i < order.size(); ++i) {
        prev_on_proc[order[i]] = order[i - 1];
        next_on_proc[order[i - 1]] = order[i];
        ++indeg[order[i]];
      }
    }
  }

  // Kahn traversal with a deterministic (smallest-id-first) ready queue.
  // Start times depend only on predecessors, so any topological order
  // yields the same schedule; the id order keeps the traversal fixed.
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<TaskId>>
      ready;
  for (TaskId t = 0; t < n; ++t)
    if (indeg[t] == 0) ready.push(t);

  std::vector<double> msg_arrival(prog.messages_.size(), 0.0);
  res.msg_residency_.assign(prog.messages_.size(), {0.0, 0.0});
  res.msg_dest_proc_.assign(prog.messages_.size(), 0);
  res.msg_bytes_.assign(prog.messages_.size(), 0.0);
  std::vector<std::vector<int>> in_msgs(n);
  for (std::size_t m = 0; m < prog.messages_.size(); ++m)
    in_msgs[prog.messages_[m].to].push_back(static_cast<int>(m));

  TaskId done = 0;
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    const TaskDef& def = prog.tasks_[t];

    double start = 0.0;
    if (prev_on_proc[t] != -1) start = res.finish[prev_on_proc[t]];
    for (const int mi : in_msgs[t]) {
      start = std::max(start, msg_arrival[mi]);
    }
    res.start[t] = start;
    // Real tasks pay the machine's fixed dispatch overhead; zero-cost
    // structural placeholders do not.
    const double dur =
        def.seconds > 0.0 ? def.seconds + machine.task_overhead : 0.0;
    res.finish[t] = start + dur;
    res.busy[def.proc] += dur;
    res.total_work += dur;
    res.makespan = std::max(res.makespan, res.finish[t]);
    ++done;

    for (const int mi : in_msgs[t]) {
      res.msg_residency_[mi].second = start;  // consumed at task start
    }
    for (const int mi : out_msgs[t]) {
      const MessageDef& msg = prog.messages_[mi];
      const bool cross =
          prog.tasks_[msg.from].proc != prog.tasks_[msg.to].proc;
      const bool pure_dep = msg.bytes < 0.0;
      double arrive = res.finish[t];
      if (cross && !pure_dep) {
        // Priced on the link the (src, dst) rank pair actually
        // crosses; identical to comm_seconds(bytes) on flat machines.
        arrive += machine.comm_seconds_between(prog.tasks_[msg.from].proc,
                                               prog.tasks_[msg.to].proc,
                                               msg.bytes);
        res.comm_volume_bytes += msg.bytes;
        ++res.message_count;
      }
      msg_arrival[mi] = arrive;
      res.msg_residency_[mi].first = arrive;
      res.msg_dest_proc_[mi] = prog.tasks_[msg.to].proc;
      res.msg_bytes_[mi] = (cross && !pure_dep) ? msg.bytes : 0.0;
      if (--indeg[msg.to] == 0) ready.push(msg.to);
    }
    if (next_on_proc[t] != -1 && --indeg[next_on_proc[t]] == 0)
      ready.push(next_on_proc[t]);
  }
  SSTAR_CHECK_MSG(done == n, "parallel program deadlocked: " << n - done
                                                             << " tasks stuck");
  return res;
}

double SimulationResult::load_balance() const {
  double wmax = 0.0;
  for (const double b : busy) wmax = std::max(wmax, b);
  const double p = static_cast<double>(busy.size());
  return wmax > 0.0 ? total_work / (p * wmax) : 1.0;
}

namespace {

// Sweep concurrently-active tasks of one kind; report max (max-min)
// stage spread. `member` filters which tasks participate.
int overlap_sweep(const ParallelProgram& prog, const SimulationResult& res,
                  int kind, const std::function<bool(int proc)>& member) {
  struct Ev {
    double t;
    int type;  // 0 = end first, 1 = start
    int stage;
  };
  std::vector<Ev> evs;
  for (std::size_t i = 0; i < res.start.size(); ++i) {
    const auto& def = prog.task(static_cast<TaskId>(i));
    if (def.kind != kind || def.stage < 0) continue;
    if (member && !member(def.proc)) continue;
    if (def.seconds <= 0.0) continue;
    evs.push_back({res.start[i], 1, def.stage});
    evs.push_back({res.finish[i], 0, def.stage});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    return a.t != b.t ? a.t < b.t : a.type < b.type;
  });
  std::multiset<int> active;
  int best = 0;
  for (const auto& e : evs) {
    if (e.type == 1) {
      active.insert(e.stage);
      best = std::max(best, *active.rbegin() - *active.begin());
    } else {
      active.erase(active.find(e.stage));
    }
  }
  return best;
}

}  // namespace

int SimulationResult::stage_overlap(const ParallelProgram& prog,
                                    int kind) const {
  return overlap_sweep(prog, *this, kind, nullptr);
}

int SimulationResult::stage_overlap_within_column(const ParallelProgram& prog,
                                                  int kind,
                                                  const Grid& grid) const {
  int best = 0;
  for (int c = 0; c < grid.cols; ++c) {
    best = std::max(
        best, overlap_sweep(prog, *this, kind, [&](int proc) {
          return proc % grid.cols == c;
        }));
  }
  return best;
}

double SimulationResult::buffer_high_water(const ParallelProgram& prog) const {
  (void)prog;
  struct Ev {
    double t;
    int type;  // 0 release, 1 acquire
    int proc;
    double bytes;
  };
  std::vector<Ev> evs;
  for (std::size_t m = 0; m < msg_bytes_.size(); ++m) {
    if (msg_bytes_[m] <= 0.0) continue;
    const auto [arrive, consume] = msg_residency_[m];
    evs.push_back({arrive, 1, msg_dest_proc_[m], msg_bytes_[m]});
    evs.push_back({std::max(consume, arrive), 0, msg_dest_proc_[m],
                   msg_bytes_[m]});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    return a.t != b.t ? a.t < b.t : a.type < b.type;
  });
  std::vector<double> cur(busy.size(), 0.0);
  double best = 0.0;
  for (const auto& e : evs) {
    cur[e.proc] += e.type == 1 ? e.bytes : -e.bytes;
    best = std::max(best, cur[e.proc]);
  }
  return best;
}

std::string SimulationResult::gantt(const ParallelProgram& prog,
                                    int width) const {
  std::ostringstream os;
  const double span = makespan > 0.0 ? makespan : 1.0;
  for (int p = 0; p < prog.processors(); ++p) {
    os << "P" << p << " |";
    std::string line(static_cast<std::size_t>(width), '.');
    for (std::size_t i = 0; i < start.size(); ++i) {
      const auto& def = prog.task(static_cast<TaskId>(i));
      if (def.proc != p || def.seconds <= 0.0) continue;
      int s = static_cast<int>(start[i] / span * width);
      int f = static_cast<int>(finish[i] / span * width);
      s = std::clamp(s, 0, width - 1);
      f = std::clamp(f, s + 1, width);
      for (int x = s; x < f; ++x) line[x] = '#';
      // Stamp a short label at the start cell if it fits.
      for (std::size_t c = 0; c < def.label.size() && s + static_cast<int>(c) < f;
           ++c)
        line[s + c] = def.label[c];
    }
    os << line << "|\n";
  }
  os << "time 0 .. " << span << " s\n";
  return os.str();
}

}  // namespace sstar::sim
