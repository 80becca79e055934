// Model comparison pipeline: preferential attachment vs. Erdős–Rényi.
//
// The introduction's point in one program: ER graphs do not exhibit the
// heavy-tailed structure of real complex networks, PA graphs do. Generates
// both at matched size/density, persists them, reloads, and contrasts their
// structure.
#include <algorithm>
#include <filesystem>
#include <iostream>

#include "analysis/degree_dist.h"
#include "analysis/powerlaw_fit.h"
#include "baseline/er_gen.h"
#include "core/generate.h"
#include "graph/csr.h"
#include "store/edge_writer.h"
#include "store/graph_view.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "x", "ranks", "seed"});
  if (cli.help()) {
    std::cout << cli.usage("graph_pipeline") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 100000);
  cfg.x = cli.get_u64("x", 4);
  cfg.seed = cli.get_u64("seed", 8);
  core::ParallelOptions opt;
  opt.ranks = cli.get_int("ranks", 4);

  // PA network via the distributed generator.
  const auto pa = core::generate(cfg, opt);

  // ER network with the same expected number of edges.
  baseline::ErConfig er_cfg;
  er_cfg.n = cfg.n;
  er_cfg.p = 2.0 * static_cast<double>(pa.total_edges) /
             (static_cast<double>(cfg.n) * static_cast<double>(cfg.n - 1));
  er_cfg.seed = cfg.seed;
  const auto er = baseline::erdos_renyi(er_cfg);

  // Persist + reload both through the compressed store (the one binary
  // edge format, src/store/).
  const auto tmp = std::filesystem::temp_directory_path();
  auto round_trip = [&](const graph::EdgeList& edges, const char* name) {
    const std::string dir = (tmp / name).string();
    store::StoreWriter writer(dir, 1);
    writer.append(0, edges);
    (void)writer.finish(cfg.n);
    graph::EdgeList back = store::ShardedGraphView(dir).load_all();
    std::filesystem::remove_all(dir);
    return back;
  };
  const auto pa_edges = round_trip(pa.edges, "pagen_pipeline_pa");
  const auto er_edges = round_trip(er, "pagen_pipeline_er");

  const auto deg_pa = graph::degree_sequence(pa_edges, cfg.n);
  const auto deg_er = graph::degree_sequence(er_edges, cfg.n);

  auto hub = [](const std::vector<Count>& deg) {
    return *std::max_element(deg.begin(), deg.end());
  };
  auto frac_ge = [&](const std::vector<Count>& deg, Count bound) {
    Count c = 0;
    for (Count d : deg) c += (d >= bound);
    return 100.0 * static_cast<double>(c) / static_cast<double>(deg.size());
  };

  std::cout << "== preferential attachment vs Erdős–Rényi at matched density ==\n"
            << "n=" << fmt_count(cfg.n) << ", ~" << fmt_count(pa.total_edges)
            << " edges each\n\n";
  Table t({"metric", "PA", "ER"});
  t.add_row({"edges", fmt_count(pa_edges.size()), fmt_count(er_edges.size())});
  t.add_row({"max degree", fmt_count(hub(deg_pa)), fmt_count(hub(deg_er))});
  t.add_row({"% nodes with degree >= 3x mean",
             fmt_f(frac_ge(deg_pa, 3 * 2 * pa_edges.size() / cfg.n), 3),
             fmt_f(frac_ge(deg_er, 3 * 2 * er_edges.size() / cfg.n), 3)});
  t.add_row({"connected components",
             fmt_count(graph::connected_components(pa_edges, cfg.n)),
             fmt_count(graph::connected_components(er_edges, cfg.n))});
  const auto fit_pa = analysis::fit_gamma_mle(deg_pa, cfg.x);
  t.add_row({"power-law gamma (MLE)", fmt_f(fit_pa.gamma, 2), "n/a (no tail)"});
  t.print(std::cout);

  std::cout << "\nPA shows hubs orders of magnitude above the mean degree and\n"
            << "a power-law tail; ER concentrates around its mean — the\n"
            << "paper's motivation for scale-free generators.\n";
  return 0;
}
