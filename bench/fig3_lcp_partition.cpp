// Figure 3: distribution of nodes among processors — the exact solution of
// the Eq. 10 load-balance system vs. its linear (arithmetic-progression)
// approximation used by the LCP scheme.
//
// Paper setting: consecutive partitioning with load model of Section 3.5.
// Shape to reproduce: block sizes grow with rank, and the linear
// approximation tracks the exact curve closely enough that LCP load-balances
// nearly as well as the exact solution.
#include <iostream>

#include "partition/lcp_solver.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "ranks", "b", "step"});
  if (cli.help()) {
    std::cout << cli.usage("fig3_lcp_partition") << "\n";
    return 0;
  }
  const NodeId n = cli.get_u64("n", 100000000);  // paper: n = 1e8-scale
  const int ranks = cli.get_int("ranks", 160);
  const double b = cli.get_double("b", 2.0);
  const int step = cli.get_int("step", 8);

  std::cout << "=== Figure 3: exact Eq.10 solution vs linear approximation ===\n"
            << "n=" << fmt_count(n) << " ranks=" << ranks << " b=" << b
            << "\n\n";

  const auto bounds = partition::solve_eq10(n, ranks, b);
  const auto params = partition::fit_lcp_params(n, ranks, b);
  std::cout << "linear model: nodes(rank i) = a + i*d with a="
            << fmt_f(params.a, 1) << " d=" << fmt_f(params.d, 1) << "\n\n";

  Table t({"rank", "exact_nodes", "linear_nodes", "linear/exact"});
  double worst = 0.0;
  for (int i = 0; i < ranks; ++i) {
    const double exact = bounds[static_cast<std::size_t>(i) + 1] -
                         bounds[static_cast<std::size_t>(i)];
    const double approx = params.a + params.d * i;
    worst = std::max(worst, std::abs(approx / exact - 1.0));
    if (i % step == 0 || i == ranks - 1) {
      t.add_row({std::to_string(i), fmt_count(static_cast<Count>(exact)),
                 fmt_count(static_cast<Count>(approx)),
                 fmt_f(approx / exact, 3)});
    }
  }
  t.print(std::cout);
  std::cout << "\nmax relative deviation of the linear approximation: "
            << fmt_f(100.0 * worst, 1) << "%\n"
            << "paper shape: exact boundaries are nearly linear in rank; the\n"
            << "approximation overlaps the exact curve (Fig. 3), deviating\n"
            << "only at the extreme ranks.\n";
  return 0;
}
