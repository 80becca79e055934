// Figure 6: weak scaling — runtime vs. number of processors with the input
// size growing proportionally (fixed edges per processor).
//
// Paper setting: 1e7 edges per processor, P = 16..768.  Default here:
// 25,000 edges per rank (CLI-overridable).  Modeled time from measured
// loads, as in fig5.  Shape to reproduce: nearly constant runtime for LCP
// and RRP; UCP degrades with P.
#include <iostream>
#include <vector>

#include "baseline/copy_model_seq.h"
#include "core/generate.h"
#include "core/scaling_model.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv,
                {"edges_per_rank", "x", "seed", "pmax", "msg_ratio", "tsv"});
  if (cli.help()) {
    std::cout << cli.usage("fig6_weak_scaling") << "\n";
    return 0;
  }
  const Count edges_per_rank = cli.get_u64("edges_per_rank", 12500);
  const NodeId x = cli.get_u64("x", 6);
  const std::uint64_t seed = cli.get_u64("seed", 6);
  const int pmax = cli.get_int("pmax", 768);
  const double msg_ratio = cli.get_double("msg_ratio", 0.5);

  std::cout << "=== Figure 6: weak scaling (" << fmt_count(edges_per_rank)
            << " edges per rank, x=" << x << ") ===\n"
            << "modeled runtime (ms) from measured per-rank loads\n\n";

  // Calibrate the node cost once, from a real sequential run at the P=16
  // problem size.
  PaConfig calib_cfg{.n = edges_per_rank * 16 / x, .x = x, .p = 0.5,
                     .seed = seed};
  Timer calib_timer;
  (void)baseline::copy_model_general(calib_cfg);
  const core::CostModel model = core::calibrate_cost_model(
      calib_timer.seconds(), calib_cfg.n, msg_ratio / static_cast<double>(x));

  Table t({"P", "n", "edges", "UCP_ms", "LCP_ms", "RRP_ms"});
  for (int p : {16, 32, 64, 128, 256, 512, 768}) {
    if (p > pmax) break;
    PaConfig cfg;
    cfg.x = x;
    cfg.seed = seed;
    cfg.n = edges_per_rank * static_cast<Count>(p) / x;
    std::vector<std::string> row{std::to_string(p), fmt_count(cfg.n),
                                 fmt_count(expected_edge_count(cfg))};
    for (auto scheme : {partition::Scheme::kUcp, partition::Scheme::kLcp,
                        partition::Scheme::kRrp}) {
      core::ParallelOptions opt;
      opt.ranks = p;
      opt.scheme = scheme;
      opt.gather_edges = false;
      const auto result = core::generate(cfg, opt);
      row.push_back(
          fmt_f(1e3 * core::modeled_parallel_seconds(model, result.loads), 1));
    }
    t.add_row(row);
  }
  t.print(std::cout);
  (void)t.save_tsv(cli.get_str("tsv", ""));
  std::cout << "\npaper shape: LCP and RRP stay almost flat as P grows (good\n"
            << "weak scaling); UCP's runtime climbs because rank 0 absorbs\n"
            << "disproportionately many incoming requests (Sec. 4.4).\n";
  return 0;
}
