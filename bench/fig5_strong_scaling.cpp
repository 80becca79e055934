// Figure 5: strong scaling — speedup vs. number of processors for the three
// partitioning schemes (UCP, LCP, RRP), fixed problem size.
//
// Paper setting: n = 1e9, x = 6, P = 1..768 on a Sandy Bridge cluster.
// Default here: n = 5e5, x = 6, P in {1..768} logical ranks on one machine.
// Wall-clock speedup stops at the host's core count (ranks are threads, and
// past it they share cores), so speedup is reported from the calibrated
// load model (DESIGN.md §2/§5): T_s is the *measured*
// sequential copy-model time; T_P comes from the measured per-rank loads.
// Shape to reproduce: near-linear growth, with LCP ≈ RRP > UCP.
//
// --engine=all|mps,commfree,... additionally sweeps the requested engines
// over a small rank ladder and writes the per-engine message-volume report
// to --engines-out (default BENCH_engines.json); commfree must report zero
// logical messages at every P. See bench/engine_sweep.h.
#include <iostream>
#include <string>
#include <vector>

#include "baseline/copy_model_seq.h"
#include "core/generate.h"
#include "core/scaling_model.h"
#include "engine_sweep.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "x", "seed", "pmax", "msg_ratio", "tsv",
                             "engine", "engines-out"});
  if (cli.help()) {
    std::cout << cli.usage("fig5_strong_scaling") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 500000);
  cfg.x = cli.get_u64("x", 6);
  cfg.seed = cli.get_u64("seed", 5);
  const int pmax = cli.get_int("pmax", 768);
  const double msg_ratio = cli.get_double("msg_ratio", 0.5);

  std::cout << "=== Figure 5: strong scaling (n=" << fmt_count(cfg.n)
            << ", x=" << cfg.x << ") ===\n"
            << "speedup = T_seq(measured) / T_P(load model); see DESIGN.md §5\n\n";

  // Sequential reference: real measured time of the sequential copy model.
  Timer seq_timer;
  const auto seq = baseline::copy_model_general(cfg);
  const double t_seq = seq_timer.seconds();
  std::cout << "sequential copy model: " << fmt_f(t_seq, 3) << " s ("
            << fmt_count(seq.edges.size()) << " edges)\n\n";
  const core::CostModel model =
      core::calibrate_cost_model(t_seq, cfg.n, msg_ratio / static_cast<double>(cfg.x));

  const std::vector<int> all_p{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 768};
  Table t({"P", "UCP", "LCP", "RRP", "wall_RRP_s"});
  for (int p : all_p) {
    if (p > pmax) break;
    std::vector<std::string> row{std::to_string(p)};
    double wall_rrp = 0.0;
    for (auto scheme : {partition::Scheme::kUcp, partition::Scheme::kLcp,
                        partition::Scheme::kRrp}) {
      core::ParallelOptions opt;
      opt.ranks = p;
      opt.scheme = scheme;
      opt.gather_edges = false;
      const auto result = core::generate(cfg, opt);
      const double t_p = core::modeled_parallel_seconds(model, result.loads);
      row.push_back(fmt_f(t_seq / t_p, 1));
      if (scheme == partition::Scheme::kRrp) wall_rrp = result.wall_seconds;
    }
    row.push_back(fmt_f(wall_rrp, 2));
    t.add_row(row);
  }
  t.print(std::cout);
  (void)t.save_tsv(cli.get_str("tsv", ""));
  std::cout << "\npaper shape: speedups grow almost linearly with P; LCP and\n"
            << "RRP outperform UCP due to better load balancing (Sec. 4.3).\n"
            << "(wall_RRP_s is the real wall time of the RRP run; ranks\n"
            << "beyond the host's cores share them, so it is for reference.)\n";

  // Engine sweep: the same problem through every requested backend, RRP,
  // over a short rank ladder of measured wall times. The ladder stays short
  // because ranks beyond the host's cores share them. commfree trades
  // messages for an allgather of each epoch's rows at x > 1, so each row is
  // still derived about once at every P.
  const std::vector<std::string> engines =
      bench::parse_engine_list(cli.get_str("engine", "all"));
  std::vector<int> ladder;
  for (const int p : {1, 2, 4, 8, 16}) {
    if (p <= pmax) ladder.push_back(p);
  }
  std::cout << "\n--- engine sweep (RRP, P in {";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    std::cout << (i != 0 ? "," : "") << ladder[i];
  }
  std::cout << "}) ---\n";
  const auto sweep = bench::run_engine_sweep(cfg, engines, ladder,
                                             partition::Scheme::kRrp);
  bench::print_engine_sweep(std::cout, sweep);
  const std::string engines_out =
      cli.get_str("engines-out", "BENCH_engines.json");
  if (bench::write_engine_sweep_json(engines_out, "fig5_strong_scaling", cfg,
                                     sweep)) {
    std::cout << "wrote " << engines_out << "\n";
  }
  return 0;
}
