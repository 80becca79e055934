// Figure 7(a-d): per-processor node counts, outgoing request messages,
// incoming request messages, and total load, for UCP, LCP and RRP.
//
// Paper setting: n = 1e8, x = 10, P = 160.  Default here: n = 4e5, x = 10,
// P = 160 (same rank count as the paper; the distributions' shapes are size
// independent).
//
// With --metrics-out=m.json / --trace-out=t.json each scheme's run is
// observed through src/obs/ and exported with the scheme spliced into the
// file name (m.ucp.json, m.lcp.json, m.rrp.json) — the same metrics
// pipeline quickstart uses, so Fig. 7 numbers can be diffed across runs
// instead of scraped from stdout. See docs/observability.md.
//
// --engine=all|mps,commfree,... appends a per-engine message-volume sweep
// (capped rank count — commfree trades messages for recomputation) and
// writes --engines-out (default BENCH_engines_fig7.json, a different file
// from fig5's BENCH_engines.json so the two reports coexist in CI).
#include <algorithm>
#include <array>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/load_balance.h"
#include "core/generate.h"
#include "engine_sweep.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using pagen::analysis::LoadMetric;

void print_section(const char* title, LoadMetric metric,
                   const std::array<pagen::core::LoadVector, 3>& loads,
                   int ranks, int step) {
  using namespace pagen;
  std::cout << "\n--- " << title << " ---\n";
  std::array<std::vector<double>, 3> series;
  for (int s = 0; s < 3; ++s) series[s] = analysis::extract(loads[s], metric);

  Table t({"rank", "UCP", "LCP", "RRP"});
  for (int r = 0; r < ranks; r += step) {
    t.add_row({std::to_string(r), fmt_count(static_cast<Count>(series[0][r])),
               fmt_count(static_cast<Count>(series[1][r])),
               fmt_count(static_cast<Count>(series[2][r]))});
  }
  t.print(std::cout);

  Table s({"scheme", "min", "mean", "max", "imbalance(max/mean)"});
  const char* names[3] = {"UCP", "LCP", "RRP"};
  for (int i = 0; i < 3; ++i) {
    const auto sum = analysis::summarize_metric(loads[i], metric);
    s.add_row({names[i], fmt_count(static_cast<Count>(sum.summary.min)),
               fmt_count(static_cast<Count>(sum.summary.mean)),
               fmt_count(static_cast<Count>(sum.summary.max)),
               fmt_f(sum.imbalance, 2)});
  }
  s.print(std::cout);
}

/// "m.json" + "rrp" -> "m.rrp.json" (scheme spliced before the extension).
std::string with_scheme(const std::string& path, const char* scheme) {
  if (path.empty()) return path;
  const auto dot = path.rfind('.');
  if (dot == std::string::npos || dot == 0) {
    return path + "." + scheme;
  }
  return path.substr(0, dot) + "." + scheme + path.substr(dot);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pagen;
  std::vector<std::string> keys{"n",    "x",      "ranks",      "seed",
                                "step", "engine", "engines-out"};
  for (const std::string& k : obs::cli_keys()) keys.push_back(k);
  const Cli cli(argc, argv, keys);
  if (cli.help()) {
    std::cout << cli.usage("fig7_load_balance") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 400000);
  cfg.x = cli.get_u64("x", 10);
  cfg.seed = cli.get_u64("seed", 7);
  const int ranks = cli.get_int("ranks", 160);
  const int step = cli.get_int("step", 16);
  const obs::Config obs_cfg = obs::config_from_cli(cli);

  std::cout << "=== Figure 7: node and message distribution across ranks ===\n"
            << "n=" << fmt_count(cfg.n) << " x=" << cfg.x << " P=" << ranks
            << " (paper: n=1e8, x=10, P=160)\n";

  std::array<core::LoadVector, 3> loads;
  const partition::Scheme schemes[3] = {partition::Scheme::kUcp,
                                        partition::Scheme::kLcp,
                                        partition::Scheme::kRrp};
  const char* scheme_names[3] = {"ucp", "lcp", "rrp"};
  for (int i = 0; i < 3; ++i) {
    core::ParallelOptions opt;
    opt.ranks = ranks;
    opt.scheme = schemes[i];
    opt.gather_edges = false;

    std::unique_ptr<obs::Session> session;
    if (obs_cfg.enabled) {
      obs::Config per_scheme = obs_cfg;
      per_scheme.trace_out = with_scheme(obs_cfg.trace_out, scheme_names[i]);
      per_scheme.metrics_out =
          with_scheme(obs_cfg.metrics_out, scheme_names[i]);
      session = std::make_unique<obs::Session>(ranks, per_scheme);
      opt.obs = session.get();
    }

    loads[static_cast<std::size_t>(i)] = core::generate(cfg, opt).loads;

    if (session) {
      for (const std::string& file : session->export_files()) {
        std::cout << "wrote " << file << "\n";
      }
    }
  }

  print_section("Fig 7(a): nodes per processor", LoadMetric::kNodes, loads,
                ranks, step);
  print_section("Fig 7(b): outgoing request messages",
                LoadMetric::kRequestsSent, loads, ranks, step);
  print_section("Fig 7(c): incoming request messages",
                LoadMetric::kRequestsReceived, loads, ranks, step);
  print_section("Fig 7(d): total load (nodes + messages)",
                LoadMetric::kTotalLoad, loads, ranks, step);

  // World-wide totals, reduced the one canonical way (core::
  // merge_across_ranks: volumes sum, max_queue_depth takes the max).
  std::cout << "\n--- totals (merged across ranks) ---\n";
  Table totals({"scheme", "nodes", "req_out", "req_in", "total_load",
                "max_queue_depth"});
  const char* names[3] = {"UCP", "LCP", "RRP"};
  for (int i = 0; i < 3; ++i) {
    const core::RankLoad t =
        core::merge_across_ranks(loads[static_cast<std::size_t>(i)]);
    totals.add_row({names[i], fmt_count(t.nodes), fmt_count(t.requests_sent),
                    fmt_count(t.requests_received), fmt_count(t.total_load()),
                    fmt_count(t.max_queue_depth)});
  }
  totals.print(std::cout);

  std::cout
      << "\npaper shape: (a) UCP/RRP flat, LCP linearly increasing;\n"
      << "(b) outgoing ∝ nodes, rank 0 sends none under CP schemes;\n"
      << "(c) incoming skewed to low ranks under UCP/LCP (Lemma 3.4), flat\n"
      << "under RRP; (d) RRP nearly perfectly balanced, LCP good, UCP poor.\n";

  // Engine sweep at (up to) the configured rank count: the same Fig. 7
  // totals per engine. commfree's rank count is capped at 32 because its
  // redundant recomputation is O(P · n · x) in the worst case — the cap is
  // printed, never silent.
  const std::vector<std::string> engines =
      bench::parse_engine_list(cli.get_str("engine", "all"));
  const int sweep_ranks = std::min(ranks, 32);
  std::cout << "\n--- engine sweep (RRP, P=" << sweep_ranks;
  if (sweep_ranks != ranks) std::cout << ", capped from " << ranks;
  std::cout << ") ---\n";
  const std::vector<int> ladder{sweep_ranks};
  const auto sweep = bench::run_engine_sweep(cfg, engines, ladder,
                                             partition::Scheme::kRrp);
  bench::print_engine_sweep(std::cout, sweep);
  const std::string engines_out =
      cli.get_str("engines-out", "BENCH_engines_fig7.json");
  if (bench::write_engine_sweep_json(engines_out, "fig7_load_balance", cfg,
                                     sweep)) {
    std::cout << "wrote " << engines_out << "\n";
  }
  return 0;
}
