// Extension: the copy-model exponent as a function of p.
//
// Kumar et al. (the paper's reference [17]) show the copy model's degree
// exponent depends on the copy probability; in this repo's parameterization
// (p = probability of attaching to the uniformly drawn node directly, 1-p
// of copying) the mean-field exponent for x = 1 is
//
//   gamma(p) = 1 + 1/(1 - p)
//
// so p = 1/2 gives the BA value gamma = 3. This bench sweeps p with the
// *distributed* generator and compares fitted exponents to the formula —
// demonstrating the knob the paper mentions ("the value of the exponent
// gamma depends on the choice of p").
#include <iostream>

#include "analysis/powerlaw_fit.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "ranks", "seed"});
  if (cli.help()) {
    std::cout << cli.usage("ext_gamma_vs_p") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 400000);
  cfg.x = 1;
  cfg.seed = cli.get_u64("seed", 17);
  core::ParallelOptions opt;
  opt.ranks = cli.get_int("ranks", 8);

  std::cout << "=== Extension: copy-model exponent vs p (x = 1, n="
            << fmt_count(cfg.n) << ") ===\n\n";

  // Fit from d_min = 16: the x = 1 degree distribution only becomes a pure
  // power law in its tail, and the MLE is biased by the sub-power-law head
  // at small d_min.
  constexpr Count kDmin = 16;
  Table t({"p", "gamma_measured", "gamma_theory = 1 + 1/(1-p)"});
  for (double p : {0.2, 0.3, 0.4, 0.5, 0.6, 0.7}) {
    cfg.p = p;
    const auto result = core::generate(cfg, opt);
    const auto deg = graph::degree_sequence(result.edges, cfg.n);
    const auto fit = analysis::fit_gamma_mle(deg, kDmin);
    t.add_row({fmt_f(p, 1), fmt_f(fit.gamma, 2), fmt_f(1.0 + 1.0 / (1.0 - p), 2)});
  }
  t.print(std::cout);

  std::cout << "\nshape: measured exponents track the mean-field formula;\n"
            << "p = 0.5 reproduces the Barabási–Albert gamma = 3. Smaller p\n"
            << "(more copying) gives heavier tails. Large p underestimates\n"
            << "slightly at this n: steep tails leave few samples above d_min\n"
            << "(a finite-size effect, not an algorithm error).\n";
  return 0;
}
