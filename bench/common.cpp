#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "cli/flags.hpp"
#include "trace/export.hpp"
#include "util/check.hpp"

namespace sstar::bench {

Options Options::parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      opt.full = true;
    } else if (auto v = cli::flag_value(arg, "--scale=")) {
      opt.scale_override = cli::number<double>("--scale", *v);
    } else if (auto v = cli::flag_value(arg, "--seed=")) {
      opt.seed = cli::number<std::uint64_t>("--seed", *v);
    } else if (auto v = cli::flag_value(arg, "--max-block=")) {
      opt.max_block = cli::number<int>("--max-block", *v);
    } else if (auto v = cli::flag_value(arg, "--amalg=")) {
      opt.amalg = cli::number<int>("--amalg", *v);
    } else if (auto v = cli::flag_value(arg, "--matrices=")) {
      opt.only = cli::list<std::string>("--matrices", *v);
    } else if (auto v = cli::flag_value(arg, "--threads=")) {
      opt.threads = cli::list<int>("--threads", *v);
    } else if (auto v = cli::flag_value(arg, "--json=")) {
      opt.json_path = *v;
    } else if (auto v = cli::flag_value(arg, "--trace=")) {
      opt.trace_path = *v;
    } else if (auto v = cli::flag_value(arg, "--machine=")) {
      opt.machine = *v;
    } else if (auto v = cli::flag_value(arg, "--transport=")) {
      opt.transport = *v;
      if (opt.transport != "inproc" && opt.transport != "proc") {
        std::fprintf(stderr, "--transport must be inproc or proc\n");
        std::exit(2);
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "flags: --full --scale=F --seed=N --max-block=N --amalg=N "
          "--matrices=a,b,c --threads=1,2,4 --json=PATH --trace=PATH "
          "--machine=PRESET|FILE.json --transport=inproc|proc\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

double Options::scale_for(const gen::SuiteEntry& e) const {
  if (scale_override) return *scale_override;
  if (full) return 1.0;
  // The paper's "large matrices" and the §3.1 overestimation outliers
  // (memplus fills in catastrophically under the static scheme — that is
  // the point of including it) run scaled by default on this single-core
  // host.
  return e.large || e.extra ? 0.3 : 1.0;
}

std::vector<std::string> Options::select(
    const std::vector<std::string>& names) const {
  if (only.empty()) return names;
  std::vector<std::string> out;
  for (const auto& n : names)
    for (const auto& o : only)
      if (n == o) out.push_back(n);
  return out;
}

SolverOptions Options::solver_options() const {
  SolverOptions s;
  s.max_block = max_block;
  s.amalgamation = amalg;
  return s;
}

Prepared prepare_matrix(const std::string& name, const Options& opt,
                        bool need_gplu) {
  const gen::SuiteEntry& entry = gen::suite_entry(name);
  Prepared p;
  p.name = name;
  p.a = entry.generate(opt.scale_for(entry), opt.seed);
  p.order = p.a.rows();
  p.setup = prepare(p.a, opt.solver_options());
  if (need_gplu) {
    const auto f = baseline::gplu_factor(p.setup.permuted);
    p.superlu_ops = f.flops;
    p.superlu_entries = f.factor_entries();
  }
  return p;
}

std::string matrix_label(const Prepared& p) {
  return p.name + " (n=" + std::to_string(p.order) + ")";
}

std::string paper_cell(double v, int precision) {
  return v > 0.0 ? fmt_double(v, precision) : "-";
}

void print_preamble(const std::string& what, const Options& opt) {
  std::printf("%s\n", what.c_str());
  std::printf(
      "replica scales: small = %s, large = %s | BSIZE = %d, r = %d, "
      "seed = %llu\n",
      opt.scale_override ? fmt_double(*opt.scale_override, 2).c_str() : "1.0",
      opt.scale_override
          ? fmt_double(*opt.scale_override, 2).c_str()
          : (opt.full ? "1.0" : "0.3"),
      opt.max_block, opt.amalg, static_cast<unsigned long long>(opt.seed));
  std::printf(
      "(synthetic structural replicas of the published matrices; see "
      "DESIGN.md)\n\n");
}

std::string trace_file_for(const std::string& base, const std::string& tag) {
  const std::size_t dot = base.rfind('.');
  const std::size_t slash = base.find_last_of("/\\");
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return base + "." + tag;
  return base.substr(0, dot) + "." + tag + base.substr(dot);
}

void write_trace(const std::string& base, const std::string& tag,
                 const trace::Trace& tr, const std::string& lane_name) {
  const std::string path = trace_file_for(base, tag);
  try {
    trace::save_chrome_trace(path, tr, lane_name);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
  std::printf("trace (%zu events) written to %s\n", tr.events.size(),
              path.c_str());
}

void write_results(const std::string& bench, const std::string& json_path,
                   const util::JsonWriter& doc) {
  const std::filesystem::path path =
      json_path.empty() ? "results/bench_" + bench + ".json" : json_path;
  std::error_code ec;
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path(), ec);
  std::ofstream out(path);
  out << doc.str() << '\n' << std::flush;
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("JSON written to %s\n", path.c_str());
}

}  // namespace sstar::bench
