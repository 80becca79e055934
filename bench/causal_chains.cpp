// Causal-chain reconstruction vs Theorem 3.3 oracle (observability bench).
//
// Runs the x = 1 distributed generator with causal tracing enabled across a
// sweep of n, reconstructs the dependency-chain distribution offline from
// the merged per-rank flow/chain events (obs/causal.h), and cross-checks it
// against the sequential ChainTrace oracle — the same recursion
// bench/thm33_dependency_chains tabulates. A deterministic run must match
// EXACTLY: same record count (n - 2), same sum, same maximum. The table
// also shows the Theorem 3.3 shape on the *traced* data: max_L stays under
// 5 ln(n), i.e. the reconstruction reproduces the O(log n) trend, not just
// the totals.
//
//   ./causal_chains                      # sweep n = 1e4, 1e5, 1e6
//   ./causal_chains --nmax=100000       # CI-sized sweep
//
// Writes the chain-analytics JSON ("pagen.chains.v1") of the largest run to
// --out (default CHAINS_report.json). Exits nonzero on any mismatch.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baseline/chain_tracer.h"
#include "core/generate.h"
#include "obs/causal.h"
#include "obs/config.h"
#include "obs/session.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"nmax", "ranks", "p", "seed", "out"});
  if (cli.help()) {
    std::cout << cli.usage("causal_chains") << "\n";
    return 0;
  }
  const NodeId nmax = cli.get_u64("nmax", 1000000);
  const int ranks = cli.get_int("ranks", 4);
  const double p = cli.get_double("p", 0.5);
  const std::uint64_t seed = cli.get_u64("seed", 33);
  const std::string out_path = cli.get_str("out", "CHAINS_report.json");

  Table t({"n", "records", "traced_max", "oracle_max", "ln(n)", "5*ln(n)",
           "flows", "orphans", "verdict"});
  bool all_match = true;
  for (const NodeId n : {NodeId{10000}, NodeId{100000}, NodeId{1000000}}) {
    if (n > nmax) break;
    PaConfig cfg;
    cfg.n = n;
    cfg.x = 1;
    cfg.p = p;
    cfg.seed = seed;

    // Ring sized so no chain event is dropped: each rank records ~n/ranks
    // chain events plus flow triples for its remote requests.
    obs::Config ocfg;
    ocfg.enabled = true;
    ocfg.causal = true;
    ocfg.ring_capacity =
        static_cast<std::size_t>(4 * n / static_cast<NodeId>(ranks)) + 4096;
    obs::Session session(ranks, ocfg);

    core::ParallelOptions opt;
    opt.ranks = ranks;
    opt.obs = &session;
    (void)core::generate(cfg, opt);

    const obs::ChainReport report = obs::reconstruct_chains(session);

    // Theorem 3.3 oracle: the same per-node draws replayed sequentially.
    const baseline::ChainTrace trace(cfg);
    const std::vector<Count> dep = trace.dependency_lengths();
    std::uint64_t oracle_max = 0;
    std::uint64_t oracle_sum = 0;
    Count oracle_records = 0;
    for (NodeId v = 2; v < n; ++v) {
      oracle_max = std::max(oracle_max, dep[v]);
      oracle_sum += dep[v];
      ++oracle_records;
    }

    const bool match = report.chain_records == oracle_records &&
                       report.chain_length.sum() == oracle_sum &&
                       report.max_chain_length == oracle_max &&
                       report.orphan_starts == 0 && report.orphan_ends == 0;
    const bool log_bound =
        static_cast<double>(report.max_chain_length) <=
        5.0 * std::log(static_cast<double>(n));
    all_match = all_match && match && log_bound;

    t.add_row({fmt_count(n), fmt_count(report.chain_records),
               std::to_string(report.max_chain_length),
               std::to_string(oracle_max),
               fmt_f(std::log(static_cast<double>(n)), 2),
               fmt_f(5.0 * std::log(static_cast<double>(n)), 2),
               fmt_count(report.flows),
               fmt_count(report.orphan_starts + report.orphan_ends),
               match ? (log_bound ? "MATCH" : "MATCH(no-log-bound)")
                     : "MISMATCH"});

    std::ofstream os(out_path, std::ios::trunc);
    obs::write_chain_report(os, report);
  }
  t.print(std::cout);
  std::cout << "\ntraced distribution vs sequential Theorem 3.3 oracle: "
            << (all_match ? "MATCH" : "MISMATCH")
            << " (max_L under 5 ln(n) at every n; report: " << out_path
            << ")\n";
  return all_match ? 0 : 1;
}
