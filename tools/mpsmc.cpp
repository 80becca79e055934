// mpsmc — schedule-exploration model checker for the MPS protocol.
//
// Runs the real generators (core::generate) under the virtual scheduler in
// mps/modelcheck.h and checks every schedule against the property oracles
// in core/mc_runner.h. Three modes:
//
//   --exhaustive        bounded-exhaustive DFS with sleep-set pruning.
//                       Without an explicit --ranks/--n it sweeps the
//                       standard configs (P in {2,3} x n in {16, 64}).
//   --schedules=N       N seeded random schedules (--schedule-seed).
//   --replay=FILE       re-run a dumped schedule trace (config comes from
//                       the trace's meta block).
//
// A failing schedule is dumped as replayable "pagen.mpsmc.v1" JSON to
// --trace-out. Exit status: 0 all schedules clean, 1 a property violation
// was found (or a replay diverged), 2 usage/config error.
//
// See docs/static-analysis.md ("Model checking") for what the properties
// prove and where the bounds come from.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/mc_runner.h"
#include "mps/modelcheck.h"
#include "partition/partition.h"
#include "util/cli.h"

namespace {

using pagen::Cli;
using pagen::PaConfig;
using pagen::core::mc::PropertyRunner;
namespace mc = pagen::mps::mc;

struct ToolConfig {
  PropertyRunner::Options runner;
  bool exhaustive = false;
  bool sweep = false;  ///< exhaustive without explicit --ranks/--n
  std::uint64_t random_schedules = 0;
  std::uint64_t schedule_seed = 1;
  std::uint64_t max_schedules = 1024;
  std::uint64_t max_steps = 1 << 20;
  std::string replay_path;
  std::string trace_out = "mpsmc-failure.json";
  std::string json_out;
  bool quiet = false;
};

struct ConfigReport {
  PropertyRunner::Options options;
  mc::ExploreReport explore;
};

std::string describe(const PropertyRunner::Options& o) {
  std::ostringstream os;
  os << "P=" << o.ranks << " n=" << o.pa.n << " x=" << o.pa.x
     << " p=" << PropertyRunner::p_string(o.pa.p) << " seed=" << o.pa.seed << " scheme=" << pagen::partition::to_string(o.scheme)
     << (o.flush_resolved_after_batch ? "" : " [flush rule OFF]");
  return os.str();
}

void dump_failure(const ToolConfig& cfg, const PropertyRunner& runner,
                  const mc::ExploreReport& report) {
  mc::ScheduleTrace trace = report.failing;
  runner.fill_meta(trace);
  if (!cfg.trace_out.empty()) {
    std::ofstream out(cfg.trace_out);
    out << mc::trace_to_json(trace);
    if (!cfg.quiet) {
      std::cout << "[mpsmc] failing schedule dumped to " << cfg.trace_out
                << " (" << trace.actions.size() << " actions)\n";
    }
  }
}

void write_json_report(const ToolConfig& cfg,
                       const std::vector<ConfigReport>& reports, bool failed) {
  if (cfg.json_out.empty()) return;
  std::ofstream out(cfg.json_out);
  out << "{\n  \"schema\": \"pagen.mpsmc.report.v1\",\n  \"failed\": "
      << (failed ? "true" : "false") << ",\n  \"configs\": [";
  bool first = true;
  for (const ConfigReport& r : reports) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"ranks\": " << r.options.ranks << ", \"n\": " << r.options.pa.n
        << ", \"x\": " << r.options.pa.x
        << ", \"scheme\": \"" << pagen::partition::to_string(r.options.scheme)
        << "\", \"explored\": " << r.explore.schedules_explored
        << ", \"pruned\": " << r.explore.schedules_pruned
        << ", \"decisions\": " << r.explore.decisions
        << ", \"max_depth\": " << r.explore.max_depth
        << ", \"complete\": " << (r.explore.complete ? "true" : "false")
        << "}";
  }
  out << "\n  ]\n}\n";
}

int run_explorations(const ToolConfig& cfg) {
  std::vector<PropertyRunner::Options> configs;
  if (cfg.sweep) {
    for (const int ranks : {2, 3}) {
      for (const pagen::NodeId n : {pagen::NodeId{16}, pagen::NodeId{64}}) {
        PropertyRunner::Options o = cfg.runner;
        o.ranks = ranks;
        o.pa.n = n;
        configs.push_back(o);
      }
    }
  } else {
    configs.push_back(cfg.runner);
  }

  std::vector<ConfigReport> reports;
  bool failed = false;
  for (const PropertyRunner::Options& options : configs) {
    PropertyRunner runner(options);
    mc::ExploreOptions eo;
    eo.nranks = options.ranks;
    eo.max_schedules = cfg.max_schedules;
    eo.max_steps = cfg.max_steps;
    const mc::ExploreReport report =
        cfg.exhaustive
            ? mc::explore_exhaustive(eo, runner.runner())
            : mc::explore_random(eo, cfg.schedule_seed, cfg.random_schedules,
                                 runner.runner());
    reports.push_back(ConfigReport{options, report});
    if (!cfg.quiet) {
      std::cout << "[mpsmc] " << (cfg.exhaustive ? "exhaustive " : "random ")
                << describe(options)
                << ": explored=" << report.schedules_explored
                << " pruned=" << report.schedules_pruned
                << " decisions=" << report.decisions
                << " max_depth=" << report.max_depth
                << (cfg.exhaustive
                        ? (report.complete ? " [tree exhausted]"
                                           : " [schedule budget reached]")
                        : "")
                << (options.causal_check
                        ? " causal chain depths vs " + runner.causal_oracle()
                        : "")
                << '\n';
    }
    if (report.failed) {
      failed = true;
      std::cout << "[mpsmc] VIOLATION " << describe(options) << ": "
                << report.failure << '\n';
      dump_failure(cfg, runner, report);
      break;
    }
  }
  write_json_report(cfg, reports, failed);
  if (!failed && !cfg.quiet) {
    std::cout << "[mpsmc] all schedules clean\n";
  }
  return failed ? 1 : 0;
}

int run_replay(const ToolConfig& cfg) {
  std::ifstream in(cfg.replay_path);
  if (!in) {
    std::cerr << "mpsmc: cannot open " << cfg.replay_path << '\n';
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  mc::ScheduleTrace trace;
  std::string error;
  if (!mc::trace_from_json(buf.str(), trace, error)) {
    std::cerr << "mpsmc: bad trace file: " << error << '\n';
    return 2;
  }
  PropertyRunner::Options options = cfg.runner;
  if (!PropertyRunner::options_from_meta(trace, options, error)) {
    std::cerr << "mpsmc: " << error << '\n';
    return 2;
  }
  PropertyRunner runner(options);
  mc::ExploreOptions eo;
  eo.nranks = options.ranks;
  eo.max_steps = cfg.max_steps;
  const mc::ReplayReport report =
      mc::replay_schedule(eo, trace, runner.runner());
  if (!cfg.quiet) {
    std::cout << "[mpsmc] replay " << describe(options) << " ("
              << trace.actions.size() << " actions): "
              << (report.matched ? "schedule matched" : "schedule DIVERGED")
              << '\n';
    if (report.outcome.failed) {
      std::cout << "[mpsmc] reproduced failure: " << report.outcome.failure
                << '\n';
    } else {
      std::cout << "[mpsmc] schedule passed all checks\n";
    }
    if (!trace.failure.empty()) {
      std::cout << "[mpsmc] recorded failure:   " << trace.failure << '\n';
    }
  }
  // A replay is "good" when it reproduces the recording: same failure (or
  // same pass) on a schedule the world accepted step for step.
  if (!report.matched) return 1;
  const bool recorded_failed = !trace.failure.empty();
  if (recorded_failed != report.outcome.failed) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv,
                {"exhaustive", "schedules", "replay", "n", "x", "p", "seed",
                 "ranks", "scheme", "buffer-capacity", "node-batch",
                 "schedule-seed", "max-schedules", "max-steps",
                 "no-flush-rule", "causal-check", "trace-out", "json-out",
                 "quiet"});
  if (cli.help()) {
    std::cout << cli.usage("mpsmc");
    return 0;
  }

  ToolConfig cfg;
  cfg.runner.pa.n = cli.get_u64("n", 32);
  cfg.runner.pa.x = cli.get_u64("x", 1);
  cfg.runner.pa.p = cli.get_double("p", 0.5);
  cfg.runner.pa.seed = cli.get_u64("seed", 1);
  cfg.runner.ranks = cli.get_int("ranks", 2);
  cfg.runner.scheme =
      pagen::partition::scheme_from_string(cli.get_str("scheme", "rrp"));
  cfg.runner.buffer_capacity = cli.get_u64("buffer-capacity", 8);
  cfg.runner.node_batch = cli.get_u64("node-batch", 16);
  cfg.runner.flush_resolved_after_batch = !cli.get_bool("no-flush-rule", false);
  cfg.runner.causal_check = cli.get_bool("causal-check", false);
  cfg.exhaustive = cli.get_bool("exhaustive", false);
  cfg.sweep = cfg.exhaustive && !cli.has("ranks") && !cli.has("n");
  cfg.random_schedules = cli.get_u64("schedules", 0);
  cfg.schedule_seed = cli.get_u64("schedule-seed", 1);
  cfg.max_schedules = cli.get_u64("max-schedules", 1024);
  cfg.max_steps = cli.get_u64("max-steps", 1 << 20);
  cfg.replay_path = cli.get_str("replay", "");
  cfg.trace_out = cli.get_str("trace-out", "mpsmc-failure.json");
  cfg.json_out = cli.get_str("json-out", "");
  cfg.quiet = cli.get_bool("quiet", false);

  if (!cfg.replay_path.empty()) return run_replay(cfg);
  if (!cfg.exhaustive && cfg.random_schedules == 0) {
    std::cerr << "mpsmc: pick a mode: --exhaustive, --schedules=N, or "
                 "--replay=FILE\n"
              << Cli(argc, argv, {}).usage("mpsmc");
    return 2;
  }
  if (cfg.exhaustive && cfg.random_schedules > 0) {
    std::cerr << "mpsmc: --exhaustive and --schedules are mutually "
                 "exclusive\n";
    return 2;
  }
  return run_explorations(cfg);
}
