// Out-of-core massive generation bench (docs/storage.md §6): generate a
// billion-edge-class graph straight into the compressed block store, then
// prove the store is trustworthy by re-loading it under a memory budget
// and checking the exact degree distribution against an oracle.
//
//   ./massive_edges --edges=1000000000 --store-dir=/data/pcs
//       --budget=$((12<<30))                  # x = 1 acceptance run
//   ./massive_edges --edges=1000000000 --x=6 --store-dir=/data/pcs
//       --budget=$((20<<30))                  # the paper's x = 6
//   ./massive_edges --edges=1000000000 --x=6 --engine=mps
//       --store-dir=/data/pcs --budget=$((12<<30))  # on the paper's engine
//   ./massive_edges --edges=10000000          # CI smoke size
//
// The spec is x = --x (default 1) with n the smallest node count whose
// expected_edge_count reaches --edges, on --engine (default commfree).
// Both commfree and mps emit copy_model_general's edge set at any rank
// count, so their degree histograms agree. --budget bounds the peak RSS,
// so it must cover the engine's state. commfree keeps none at x = 1; at
// x > 1 every rank keeps the whole row table, n * x entries of 4 bytes
// (n < 2^32), so ranks * 4 * n * x bytes. An mps rank keeps ~8 bytes per
// slot of its own share (n <= 2^31), so ~8 * n * x bytes over all ranks,
// plus the queues of its in-flight requests.
//
//   1. generate() with store_dir set, timed: every edge streams through the
//      batched sink into delta+varint blocks. Nothing else runs in the
//      timed region.
//   2. Untimed, a second generate() without store_dir feeds a node-degree
//      oracle (one atomic u32 per node; PA graphs are simple, so every
//      degree is below n). The output is a pure function of the spec, so
//      this run emits the stored edges. The oracle folds into a
//      (degree -> count) histogram and is freed.
//   3. Re-open the store as a ShardedGraphView under --budget bytes and
//      run the distributed degree kernel over the *merged* edge source:
//      one rank counting endpoints in place, zero message traffic, while
//      a helper thread reads, verifies and decodes a fixed number of
//      blocks ahead of it.
//   4. The two histograms must match exactly; bytes/edge must be < 8;
//      peak RSS (VmHWM) must stay under the budget. Any miss exits 1.
//
// Writes BENCH_massive.json (see --out), with the commit, the build type
// and the processor count it ran on.
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/distributed_degree.h"
#include "core/generate.h"
#include "store/graph_view.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/rss.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv,
                {"edges", "x", "ranks", "seed", "engine", "store-dir",
                 "budget", "block-edges", "out"});
  if (cli.help()) {
    std::cout << cli.usage("massive_edges") << "\n";
    return 0;
  }
  const Count target_edges = cli.get_u64("edges", 10000000);
  const std::string store_dir =
      cli.get_str("store-dir", "/tmp/pagen_massive_store");
  const std::uint64_t budget =
      cli.get_u64("budget", std::uint64_t{12} << 30);
  const std::string out_path = cli.get_str("out", "BENCH_massive.json");

  PaConfig cfg;
  cfg.x = cli.get_u64("x", 1);
  PAGEN_CHECK_MSG(cfg.x >= 1, "--x must be >= 1 (got " << cfg.x << ")");
  // The smallest n > x whose x-clique plus x edges per later node reach
  // the target (at x = 1, n = edges + 1).
  const Count clique = cfg.x * (cfg.x - 1) / 2;
  cfg.n = cfg.x + (target_edges > clique
                       ? (target_edges - clique + cfg.x - 1) / cfg.x
                       : 1);
  cfg.p = 0.5;
  cfg.seed = cli.get_u64("seed", 1);

  core::ParallelOptions opt;
  opt.engine = cli.get_str("engine", "commfree");
  opt.ranks = cli.get_int("ranks", 4);
  opt.scheme = partition::Scheme::kRrp;
  opt.gather_edges = false;
  opt.store_dir = store_dir;
  opt.store_block_edges = cli.get_u64("block-edges", 65536);
  const unsigned nproc = std::thread::hardware_concurrency();

  std::cout << "=== massive out-of-core generation ===\n"
            << "edges=" << fmt_count(target_edges) << " x=" << cfg.x
            << " n=" << fmt_count(cfg.n) << " ranks=" << opt.ranks
            << " engine=" << opt.engine << " store=" << store_dir
            << " budget=" << fmt_count(budget) << " bytes"
            << " build=" << PAGEN_BUILD_TYPE << " nproc=" << nproc << "\n\n";

  Timer gen_timer;
  const auto result = core::generate(cfg, opt);
  const double gen_secs = gen_timer.seconds();
  const double edges_per_sec =
      static_cast<double>(result.total_edges) / gen_secs;
  const double bytes_per_edge =
      static_cast<double>(result.store_bytes) /
      static_cast<double>(result.total_edges);

  // Degree oracle, outside the timed region: relaxed atomic u32 per node
  // (a simple graph's degrees are below n), bumped by the rank threads of
  // a second run of the same spec without the store. It folds and is freed
  // before the reload phase so its 4n bytes do not sit under the budgeted
  // working set.
  core::DegreeHistogram expected;
  {
    std::vector<std::atomic<std::uint32_t>> oracle(cfg.n);
    core::ParallelOptions oracle_opt = opt;
    oracle_opt.store_dir.clear();
    oracle_opt.edge_batch_sink = [&oracle](Rank,
                                           std::span<const graph::Edge> edges) {
      for (const graph::Edge& e : edges) {
        oracle[e.u].fetch_add(1, std::memory_order_relaxed);
        oracle[e.v].fetch_add(1, std::memory_order_relaxed);
      }
    };
    (void)core::generate(cfg, oracle_opt);
    std::map<Count, Count> fold;
    for (const auto& d : oracle) {
      ++fold[d.load(std::memory_order_relaxed)];
    }
    expected.assign(fold.begin(), fold.end());
  }

  Timer reload_timer;
  const store::ShardedGraphView view(store_dir, budget);
  // Merged source: the degree kernel runs as a single rank streaming all
  // shards in rank order — no mailbox backlog; the working set is the
  // merged stream's budgeted read-ahead plus the kernel's own degree array.
  const core::DegreeHistogram reloaded =
      core::distributed_degree_distribution(view.merged_edge_source(),
                                            partition::Scheme::kRrp);
  const double reload_secs = reload_timer.seconds();

  const bool degree_match = reloaded == expected;
  const std::uint64_t peak_rss = peak_rss_bytes();
  const bool rss_ok = peak_rss > 0 && peak_rss < budget;
  const bool compression_ok = bytes_per_edge < 8.0;
  const bool ok = degree_match && rss_ok && compression_ok;

  Count blocks = 0;
  for (const auto& s : view.manifest().shards) blocks += s.blocks;

  Table t({"metric", "value"});
  t.add_row({"edges generated", fmt_count(result.total_edges)});
  t.add_row({"generation seconds", fmt_f(gen_secs, 2)});
  t.add_row({"edges/second", fmt_count(static_cast<Count>(edges_per_sec))});
  t.add_row({"store bytes", fmt_count(result.store_bytes)});
  t.add_row({"bytes/edge", fmt_f(bytes_per_edge, 3)});
  t.add_row({"blocks", fmt_count(blocks)});
  t.add_row({"reload+degree seconds", fmt_f(reload_secs, 2)});
  t.add_row({"degree histogram match", degree_match ? "EXACT" : "MISMATCH"});
  t.add_row({"peak RSS bytes", fmt_count(peak_rss)});
  t.add_row({"memory budget bytes", fmt_count(budget)});
  t.add_row({"verdict", ok ? "PASS" : "FAIL"});
  t.print(std::cout);

  std::ofstream os(out_path, std::ios::trunc);
  os << "{\n"
     << "  \"schema\": \"pagen.bench.massive.v3\",\n"
     << "  \"provenance\": {\"commit\": \"" << PAGEN_BUILD_COMMIT
     << "\", \"build_type\": \"" << PAGEN_BUILD_TYPE
     << "\", \"nproc\": " << nproc << "},\n"
     << "  \"workload\": {\"edges\": " << target_edges
     << ", \"n\": " << cfg.n << ", \"x\": " << cfg.x
     << ", \"seed\": " << cfg.seed << ", \"ranks\": " << opt.ranks
     << ", \"engine\": \"" << opt.engine << "\""
     << ", \"block_edges\": " << opt.store_block_edges
     << ", \"budget_bytes\": " << budget << "},\n"
     << "  \"results\": {\n"
     << "    \"edges_generated\": " << result.total_edges << ",\n"
     << "    \"generation_seconds\": " << gen_secs << ",\n"
     << "    \"edges_per_second\": " << edges_per_sec << ",\n"
     << "    \"store_bytes\": " << result.store_bytes << ",\n"
     << "    \"bytes_per_edge\": " << bytes_per_edge << ",\n"
     << "    \"blocks\": " << blocks << ",\n"
     << "    \"reload_seconds\": " << reload_secs << ",\n"
     << "    \"degree_histogram_match\": " << (degree_match ? "true" : "false")
     << ",\n"
     << "    \"peak_rss_bytes\": " << peak_rss << ",\n"
     << "    \"rss_under_budget\": " << (rss_ok ? "true" : "false") << ",\n"
     << "    \"compression_under_8_bytes_per_edge\": "
     << (compression_ok ? "true" : "false") << ",\n"
     << "    \"ok\": " << (ok ? "true" : "false") << "\n"
     << "  }\n"
     << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  if (!ok) {
    std::cerr << "FAIL:" << (degree_match ? "" : " degree-mismatch")
              << (compression_ok ? "" : " compression>=8B/edge")
              << (rss_ok ? "" : " rss-over-budget") << "\n";
    return 1;
  }
  return 0;
}
