// Design-choice ablations (Section 3.5, "Message Buffering"):
//  (1) per-destination buffer capacity sweep — how much aggregation cuts
//      envelope counts (the paper's argument for buffering: fewer, larger
//      messages; too many outstanding messages otherwise);
//  (2) the RRP deadlock-avoidance rule — force-flushing resolved buffers
//      after every received batch is mandatory for RRP and merely adds small
//      flush traffic under consecutive schemes.
#include <iostream>

#include "core/generate.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "x", "ranks", "seed"});
  if (cli.help()) {
    std::cout << cli.usage("ablation_buffering") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 500000);
  cfg.x = cli.get_u64("x", 4);
  cfg.seed = cli.get_u64("seed", 99);
  const int ranks = cli.get_int("ranks", 16);

  std::cout << "=== Ablation 1: message-buffer capacity (RRP, n="
            << fmt_count(cfg.n) << ", x=" << cfg.x << ", P=" << ranks
            << ") ===\n\n";

  Table t({"capacity", "envelopes", "bytes_sent", "alg_messages", "wall_s"});
  for (std::size_t capacity :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}, std::size_t{64},
        std::size_t{256}, std::size_t{1024}, std::size_t{4096}}) {
    core::ParallelOptions opt;
    opt.ranks = ranks;
    opt.scheme = partition::Scheme::kRrp;
    opt.buffer_capacity = capacity;
    opt.gather_edges = false;
    Timer timer;
    const auto result = core::generate(cfg, opt);
    const double secs = timer.seconds();
    Count envelopes = 0, bytes = 0, alg = 0;
    for (const auto& s : result.comm_stats) {
      envelopes += s.envelopes_sent;
      bytes += s.bytes_sent;
    }
    for (const auto& l : result.loads) alg += l.total_messages();
    t.add_row({std::to_string(capacity), fmt_count(envelopes),
               fmt_count(bytes), fmt_count(alg), fmt_f(secs, 2)});
  }
  t.print(std::cout);
  std::cout << "\nshape: algorithm-level message counts are invariant; the\n"
            << "envelope (wire) count collapses as capacity grows — the\n"
            << "paper's rationale for buffering.\n";

  std::cout << "\n=== Ablation 2: forced resolved-buffer flush rule ===\n"
            << "(consecutive schemes only; RRP requires the rule to avoid\n"
            << "deadlock, Sec. 3.5.2)\n\n";
  Table t2({"scheme", "flush_rule", "envelopes", "wall_s"});
  for (auto scheme : {partition::Scheme::kUcp, partition::Scheme::kLcp}) {
    for (bool rule : {true, false}) {
      core::ParallelOptions opt;
      opt.ranks = ranks;
      opt.scheme = scheme;
      opt.flush_resolved_after_batch = rule;
      opt.gather_edges = false;
      Timer timer;
      const auto result = core::generate(cfg, opt);
      Count envelopes = 0;
      for (const auto& s : result.comm_stats) envelopes += s.envelopes_sent;
      t2.add_row({partition::to_string(scheme), rule ? "on" : "off",
                  fmt_count(envelopes), fmt_f(timer.seconds(), 2)});
    }
  }
  t2.print(std::cout);
  std::cout << "\nshape: disabling the rule under CP schemes stays correct\n"
            << "(rank i only waits on ranks j < i) and trades a few extra\n"
            << "envelopes for delayed responses.\n";
  return 0;
}
