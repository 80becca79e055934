// Extension: block-cyclic partitioning — interpolating between UCP and RRP.
//
// The paper's Section 3.5 motivates scheme choice by downstream needs
// ("some algorithms require the consecutive nodes to be stored in the same
// processor") versus balance. Block-cyclic partitioning exposes that
// trade-off as one knob: block = 1 is RRP (perfect balance, no locality),
// block = ceil(n/P) is UCP (full locality, worst balance). This bench
// sweeps the block size and reports total-load imbalance and modeled time.
#include <iostream>

#include "analysis/load_balance.h"
#include "baseline/copy_model_seq.h"
#include "core/generate.h"
#include "core/scaling_model.h"
#include "partition/block_cyclic.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "x", "ranks", "seed"});
  if (cli.help()) {
    std::cout << cli.usage("ext_block_cyclic") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 400000);
  cfg.x = cli.get_u64("x", 6);
  cfg.seed = cli.get_u64("seed", 31);
  const int ranks = cli.get_int("ranks", 32);

  std::cout << "=== Extension: block-cyclic partitioning sweep (n="
            << fmt_count(cfg.n) << ", x=" << cfg.x << ", P=" << ranks
            << ") ===\n\n";

  Timer seq_timer;
  (void)baseline::copy_model_general(cfg);
  const core::CostModel model = core::calibrate_cost_model(
      seq_timer.seconds(), cfg.n, 0.5 / static_cast<double>(cfg.x));

  const NodeId ucp_block = (cfg.n + ranks - 1) / ranks;
  Table t({"block", "load imbalance", "msgs imbalance", "modeled_ms",
           "locality (nodes/run)"});
  for (NodeId block :
       {NodeId{1}, NodeId{16}, NodeId{256}, NodeId{4096}, ucp_block}) {
    core::ParallelOptions opt;
    opt.ranks = ranks;
    opt.custom_partition = partition::make_block_cyclic(cfg.n, ranks, block);
    opt.gather_edges = false;
    const auto result = core::generate(cfg, opt);
    const auto load = analysis::summarize_metric(
        result.loads, analysis::LoadMetric::kTotalLoad);
    const auto msgs = analysis::summarize_metric(
        result.loads, analysis::LoadMetric::kTotalMessages);
    t.add_row({block == ucp_block ? fmt_count(block) + " (=UCP)"
                                  : fmt_count(block),
               fmt_f(load.imbalance, 2), fmt_f(msgs.imbalance, 2),
               fmt_f(1e3 * core::modeled_parallel_seconds(model, result.loads),
                     1),
               fmt_count(block)});
  }
  t.print(std::cout);

  std::cout << "\nshape: small blocks behave like RRP (imbalance -> 1.0),\n"
            << "large blocks like UCP (low ranks swamped by requests for\n"
            << "old nodes); locality — the length of consecutive node runs\n"
            << "per rank — is the price of balance.\n";
  return 0;
}
