// Distributed end-to-end pipeline: generate with per-rank shards while each
// rank streams its edges into its own file of the compressed store (the
// paper's independent-file-writes model), compute degree distribution and
// connected components WITHOUT gathering the edges, then reload the store
// and cross-check centrally.
//
//   ./distributed_pipeline --n=500000 --x=4 --ranks=8 --dir=/tmp/pagen_store
#include <filesystem>
#include <iostream>

#include "analysis/degree_dist.h"
#include "core/distributed_cc.h"
#include "core/distributed_degree.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "store/graph_view.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "x", "ranks", "seed", "dir", "keep"});
  if (cli.help()) {
    std::cout << cli.usage("distributed_pipeline") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 200000);
  cfg.x = cli.get_u64("x", 4);
  cfg.seed = cli.get_u64("seed", 77);
  core::ParallelOptions opt;
  opt.ranks = cli.get_int("ranks", 8);
  opt.gather_edges = false;
  opt.keep_shards = true;
  const std::string dir = cli.get_str(
      "dir",
      (std::filesystem::temp_directory_path() / "pagen_pipeline_store")
          .string());

  // 1-2. Generate; each rank keeps its own edges and streams them into
  // its own compressed shard file, sealed with the store manifest.
  opt.store_dir = dir;
  Timer timer;
  const auto result = core::generate(cfg, opt);
  std::cout << "1. generated " << fmt_count(result.total_edges)
            << " edges across " << opt.ranks << " rank shards in "
            << fmt_f(timer.seconds(), 2) << " s\n";
  std::cout << "2. wrote compressed store " << dir << " ("
            << fmt_count(result.store_bytes) << " bytes) during generation\n";

  // 3. Distributed analytics straight off the in-memory shards.
  timer.restart();
  const auto hist = core::distributed_degree_distribution(
      result.shards, cfg.n, opt.scheme);
  const auto cc = core::distributed_connected_components(result.shards, cfg.n,
                                                         opt.scheme);
  std::cout << "3. distributed analytics in " << fmt_f(timer.seconds(), 2)
            << " s: " << hist.size() << " distinct degrees, "
            << cc.components << " component(s) in " << cc.rounds
            << " label rounds\n";

  // 4. Reload the store centrally and cross-check.
  timer.restart();
  const graph::EdgeList reloaded = store::ShardedGraphView(dir).load_all();
  const auto deg = graph::degree_sequence(reloaded, cfg.n);
  const auto central = analysis::degree_distribution(deg);
  bool match = central.size() == hist.size();
  for (std::size_t i = 0; match && i < central.size(); ++i) {
    match = central[i].degree == hist[i].first &&
            central[i].count == hist[i].second;
  }
  std::cout << "4. reloaded " << fmt_count(reloaded.size())
            << " edges and cross-checked in " << fmt_f(timer.seconds(), 2)
            << " s: distributed histogram "
            << (match ? "MATCHES" : "DIFFERS FROM")
            << " the centralized one\n";

  if (!cli.get_bool("keep", false)) {
    std::filesystem::remove_all(dir);
    std::cout << "   (store removed; pass --keep to retain it)\n";
  }
  return match ? 0 : 1;
}
