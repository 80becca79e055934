// A synthetic social network study — the workload class the paper's
// introduction motivates (Twitter/instant-messenger scale-free graphs).
//
// Generates a PA network, then answers the questions a network scientist
// asks first: who are the hubs, how heavy is the tail, how many hops
// separate random users from the biggest hub ("small world" check).
#include <algorithm>
#include <iostream>
#include <vector>

#include "analysis/degree_dist.h"
#include "analysis/powerlaw_fit.h"
#include "core/generate.h"
#include "graph/csr.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "x", "ranks", "seed"});
  if (cli.help()) {
    std::cout << cli.usage("social_network") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 300000);
  cfg.x = cli.get_u64("x", 8);  // denser graph: a "follows" network
  cfg.seed = cli.get_u64("seed", 2013);
  core::ParallelOptions opt;
  opt.ranks = cli.get_int("ranks", 8);

  std::cout << "== synthetic social network: " << fmt_count(cfg.n)
            << " users, " << cfg.x << " follows per new user ==\n\n";
  Timer timer;
  const auto result = core::generate(cfg, opt);
  std::cout << fmt_count(result.total_edges) << " follow edges in "
            << fmt_f(timer.seconds(), 2) << " s\n\n";

  const graph::CsrGraph g(result.edges, cfg.n);

  // Celebrity table: the top-degree accounts are the earliest ones.
  std::vector<NodeId> by_degree(cfg.n);
  for (NodeId v = 0; v < cfg.n; ++v) by_degree[v] = v;
  std::partial_sort(by_degree.begin(), by_degree.begin() + 10, by_degree.end(),
                    [&](NodeId a, NodeId b) { return g.degree(a) > g.degree(b); });
  Table celebs({"rank", "user", "followers+following"});
  for (int i = 0; i < 10; ++i) {
    celebs.add_row({std::to_string(i + 1), std::to_string(by_degree[i]),
                    fmt_count(g.degree(by_degree[i]))});
  }
  celebs.print(std::cout);

  // Tail heaviness.
  const auto degrees = graph::degree_sequence(result.edges, cfg.n);
  const auto fit = analysis::fit_gamma_mle(degrees, cfg.x);
  const auto ccdf = analysis::degree_ccdf(degrees);
  double frac_100 = 0;
  for (const auto& point : ccdf) {
    if (point.degree >= 100) {
      frac_100 = point.fraction;
      break;
    }
  }
  std::cout << "\npower-law exponent gamma ≈ " << fmt_f(fit.gamma, 2) << "\n"
            << "fraction of users with degree >= 100: "
            << fmt_f(100.0 * frac_100, 3) << "%\n";

  // Small-world probe: BFS from the biggest hub.
  const NodeId hub = by_degree[0];
  const auto dist = g.bfs_distances(hub);
  std::vector<Count> hops_hist(16, 0);
  Count reachable = 0;
  double mean_hops = 0;
  for (NodeId v = 0; v < cfg.n; ++v) {
    if (dist[v] == kNil) continue;
    ++reachable;
    mean_hops += static_cast<double>(dist[v]);
    ++hops_hist[std::min<NodeId>(dist[v], 15)];
  }
  mean_hops /= static_cast<double>(reachable);
  std::cout << "\nBFS from hub " << hub << ": " << fmt_count(reachable)
            << " reachable users, mean distance " << fmt_f(mean_hops, 2)
            << " hops\n";
  Table hops({"hops", "users"});
  for (std::size_t h = 0; h < hops_hist.size(); ++h) {
    if (hops_hist[h] != 0) {
      hops.add_row({std::to_string(h), fmt_count(hops_hist[h])});
    }
  }
  hops.print(std::cout);
  std::cout << "\nscale-free + small-world: almost everyone sits within a\n"
            << "handful of hops of the main hub.\n";
  return 0;
}
