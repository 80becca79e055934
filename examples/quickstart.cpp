// Quickstart: generate a scale-free network with the distributed
// preferential-attachment algorithm and look at it.
//
//   ./quickstart [--n=...] [--x=...] [--ranks=...] [--seed=...]
//                [--engine=mps|commfree|seq-copy|seq-bb]
//                [--trace-out=t.json] [--metrics-out=m.json]
//                [--trace-sample=N] [--fault-plan=SPEC]
//                [--checkpoint-dir=DIR] [--reliable]
//
// With --trace-out the run emits a Chrome trace-event JSON (open it at
// https://ui.perfetto.dev — one track per rank with generate/drain/
// collective spans); with --metrics-out a structured metrics JSON (per-rank
// node/message counters, mailbox-depth gauge, chain-latency histogram).
// See docs/observability.md.
#include <iostream>
#include <optional>

#include "analysis/powerlaw_fit.h"
#include "core/generate.h"
#include "core/robustness_cli.h"
#include "graph/csr.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  std::vector<std::string> keys{"n", "x", "ranks", "seed", "engine"};
  for (const std::string& k : obs::cli_keys()) keys.push_back(k);
  for (const std::string& k : core::robustness_cli_keys()) keys.push_back(k);
  const Cli cli(argc, argv, keys);
  if (cli.help()) {
    std::cout << cli.usage("quickstart") << "\n";
    return 0;
  }

  // 1. Describe the network: n nodes, x edges per new node, copy
  //    probability 1/2 (exact Barabási–Albert behaviour).
  PaConfig config;
  config.n = cli.get_u64("n", 100000);
  config.x = cli.get_u64("x", 4);
  config.seed = cli.get_u64("seed", 1);

  // 2. Describe the run: how many ranks, which partitioning scheme, and
  //    whether to observe it (tracing/metrics are off unless asked for).
  core::ParallelOptions options;
  options.ranks = cli.get_int("ranks", 4);
  options.scheme = partition::Scheme::kRrp;
  options.engine = cli.get_str("engine", options.engine);
  core::apply_robustness_cli(cli, options);

  const obs::Config obs_cfg = obs::config_from_cli(cli);
  std::optional<obs::Session> session;
  if (obs_cfg.enabled) {
    session.emplace(options.ranks, obs_cfg);
    options.obs = &*session;
  }

  // 3. Generate.
  Timer timer;
  const core::ParallelResult result = core::generate(config, options);
  std::cout << "generated " << fmt_count(result.total_edges) << " edges over "
            << options.ranks << " ranks in " << fmt_f(timer.seconds(), 2)
            << " s\n";
  if (result.respawns > 0) {
    std::cout << "recovered from " << result.respawns
              << " injected crash(es) via relaunch\n";
  }

  // 4. Inspect: the network is connected, simple, and heavy-tailed.
  const graph::CsrGraph g(result.edges, config.n);
  const NodeId hub = g.max_degree_node();
  std::cout << "largest hub: node " << hub << " with degree "
            << fmt_count(g.degree(hub)) << "\n";

  const auto degrees = graph::degree_sequence(result.edges, config.n);
  const auto fit = analysis::fit_gamma_mle(degrees, config.x);
  std::cout << "power-law exponent gamma ≈ " << fmt_f(fit.gamma, 2)
            << " (paper reports 2.7 for x = 4 at n = 1e9)\n";

  // 5. Export observation artifacts, if any were requested.
  if (session) {
    for (const std::string& file : session->export_files()) {
      std::cout << "wrote " << file << "\n";
    }
  }
  return 0;
}
