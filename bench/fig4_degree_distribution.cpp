// Figure 4: log-log degree distribution of a network generated by the
// parallel algorithm, plus the Section 4.2 claim gamma ≈ 2.7.
//
// Paper setting: n = 1e9, x = 4 (4e9 edges). Default here: n = 1e6, x = 4
// (CLI-overridable); the power-law tail and the fitted exponent are already
// stable at this size.
#include <iostream>

#include "analysis/degree_dist.h"
#include "analysis/powerlaw_fit.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "x", "ranks", "seed", "scheme", "tsv"});
  if (cli.help()) {
    std::cout << cli.usage("fig4_degree_distribution") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 1000000);
  cfg.x = cli.get_u64("x", 4);
  cfg.seed = cli.get_u64("seed", 20131117);
  core::ParallelOptions opt;
  opt.ranks = cli.get_int("ranks", 8);
  opt.scheme = partition::scheme_from_string(cli.get_str("scheme", "RRP"));

  std::cout << "=== Figure 4: degree distribution (log-log) ===\n"
            << "n=" << fmt_count(cfg.n) << " x=" << cfg.x
            << " ranks=" << opt.ranks << " scheme="
            << partition::to_string(opt.scheme) << "\n\n";

  Timer timer;
  const auto result = core::generate(cfg, opt);
  std::cout << "generated " << fmt_count(result.total_edges) << " edges in "
            << fmt_f(timer.seconds(), 2) << " s\n\n";

  const auto degrees = graph::degree_sequence(result.edges, cfg.n);
  const auto pdf = analysis::log_binned_pdf(degrees, 1.5);

  Table t({"degree", "density"});
  for (const auto& point : pdf) {
    t.add_row({fmt_f(point.degree, 1), fmt_e(point.density, 3)});
  }
  t.print(std::cout);
  if (t.save_tsv(cli.get_str("tsv", ""))) {
    std::cout << "\n[series written to " << cli.get_str("tsv", "") << "]\n";
  }

  const auto mle = analysis::fit_gamma_mle(degrees, cfg.x);
  const auto reg = analysis::fit_gamma_regression(degrees, cfg.x);
  std::cout << "\nfitted exponent gamma (discrete MLE, d_min=" << cfg.x
            << "): " << fmt_f(mle.gamma, 2) << "  [" << fmt_count(mle.samples)
            << " tail samples]\n"
            << "fitted exponent gamma (log-log regression): "
            << fmt_f(reg.gamma, 2) << "  [R^2=" << fmt_f(reg.r_squared, 3)
            << "]\n"
            << "paper: heavy-tailed, gamma measured 2.7 at n = 1e9, x = 4;\n"
            << "expected window 2 < gamma < infinity for finite mean degree.\n";
  return 0;
}
