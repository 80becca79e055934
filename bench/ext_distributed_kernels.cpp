// Extension: the distributed analytics kernel suite running over a
// generated network's per-rank shards — what the paper's target users
// (network scientists running epidemic/cascade/centrality studies on
// synthetic social networks) do right after generation, without ever
// gathering the edge list.
#include <iostream>

#include "core/distributed_bfs.h"
#include "core/distributed_cc.h"
#include "core/distributed_degree.h"
#include "core/distributed_triangles.h"
#include "core/generate.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "x", "ranks", "seed"});
  if (cli.help()) {
    std::cout << cli.usage("ext_distributed_kernels") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 300000);
  cfg.x = cli.get_u64("x", 4);
  cfg.seed = cli.get_u64("seed", 19);
  const int ranks = cli.get_int("ranks", 8);

  std::cout << "=== Extension: distributed kernels over generated shards ===\n"
            << "n=" << fmt_count(cfg.n) << " x=" << cfg.x << " P=" << ranks
            << " (edges never gathered)\n\n";

  core::ParallelOptions opt;
  opt.ranks = ranks;
  opt.gather_edges = false;
  opt.keep_shards = true;
  Timer gen_timer;
  const auto gen = core::generate(cfg, opt);
  std::cout << "generation: " << fmt_count(gen.total_edges) << " edges in "
            << fmt_f(gen_timer.seconds(), 2) << " s\n\n";

  Table t({"kernel", "result", "detail", "seconds"});
  {
    Timer timer;
    const auto hist = core::distributed_degree_distribution(
        gen.shards, cfg.n, opt.scheme);
    Count hub = 0;
    for (const auto& [degree, count] : hist) hub = std::max(hub, degree);
    t.add_row({"degree distribution",
               std::to_string(hist.size()) + " degree classes",
               "max degree " + fmt_count(hub), fmt_f(timer.seconds(), 2)});
  }
  {
    Timer timer;
    const auto cc = core::distributed_connected_components(gen.shards, cfg.n,
                                                           opt.scheme);
    t.add_row({"connected components", fmt_count(cc.components) + " component",
               fmt_count(cc.rounds) + " label rounds",
               fmt_f(timer.seconds(), 2)});
  }
  {
    Timer timer;
    const auto bfs = core::distributed_bfs(gen.shards, cfg.n, opt.scheme, 0);
    t.add_row({"BFS from node 0",
               fmt_count(bfs.visited) + " visited, depth " +
                   fmt_count(bfs.levels),
               "peak frontier " + fmt_count(bfs.frontier_peak),
               fmt_f(timer.seconds(), 2)});
  }
  {
    Timer timer;
    const auto tri =
        core::distributed_triangle_count(gen.shards, cfg.n, opt.scheme);
    t.add_row({"triangle count", fmt_count(tri.triangles) + " triangles",
               fmt_count(tri.wedge_queries) + " wedge queries",
               fmt_f(timer.seconds(), 2)});
  }
  t.print(std::cout);

  std::cout << "\nall four kernels run BSP supersteps over the same shards\n"
            << "the generator produced — the \"generate on the fly and\n"
            << "analyze without disk I/O\" workflow of Section 3.2.\n";
  return 0;
}
