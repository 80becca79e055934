// pipeline-x1: generate -> compressed store -> reload -> degree analysis.
//
// Why this workload: it is the generate → store → reload → analyze path of
// the ROADMAP, and the only workload where the store write, the store read
// and the degree kernel do most of the work. 3e7 edges with the memo
// bounded at 64 MiB per rank (spill_dir set), the budget of the 1e9-edge
// run: the memo holds ~13% of n, so derivation runs in the memo-miss
// regime of the massive run, and the 1e8-byte store and the kernel's
// per-node state are far larger than any core's cache.
//
// One operation = generate() into the store + reopen with ShardedGraphView
// + distributed_degree_distribution over merged_edge_source().
// Oracle (computed after the measurement): baseline::copy_model_targets
// gives F; every operation's edge count and reloaded histogram must equal
// F's, and every edge (t, v) of the last sealed store must have v == F[t].
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "baseline/copy_model_seq.h"
#include "bench_util.h"
#include "core/distributed_degree.h"
#include "core/generate.h"
#include "store/edge_writer.h"
#include "store/format.h"
#include "store/graph_view.h"
#include "store/shard_reader.h"

namespace pagen::bench {
namespace {

constexpr Count kEdges = 30'000'000;
constexpr Count kSmokeEdges = 40'000;
constexpr int kRanks = 4;
constexpr std::size_t kBlockEdges = 65536;
constexpr std::uint64_t kSpillBudgetBytes = std::uint64_t{64} << 20;
constexpr int kMinPasses = 3;
constexpr int kTracedPasses = 3;
/// Seconds of the budget kept for the oracle (copy_model_targets, the
/// histogram fold and one full store check at 3e7 edges take 3-3.5 s).
constexpr double kOracleReserveS = 4.0;
/// Blocks of shard 0 replayed through encode / checksum / decode / write.
constexpr std::size_t kReplayBlocks = 16;

/// What one operation produced; compared with the oracle afterwards.
struct Observed {
  Count edges = 0;
  std::uint64_t histogram = 0;  ///< fnv of the reloaded degree histogram
};

/// Order-sensitive FNV-1a over the histogram's (degree, count) pairs.
std::uint64_t histogram_digest(const core::DegreeHistogram& h) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& [deg, count] : h) {
    for (const std::uint64_t w : {deg, count}) {
      for (int i = 0; i < 8; ++i) {
        digest ^= (w >> (8 * i)) & 0xffU;
        digest *= 0x100000001b3ULL;
      }
    }
  }
  return digest;
}

/// End-to-end timing of one operation.
struct Pass {
  double gen_s = 0.0;     ///< generate() including the store seal
  double reload_s = 0.0;  ///< reopen + degree kernel
  double cpu_s = 0.0;     ///< process CPU time over both
  double peak_mb = 0.0;   ///< peak resident set over both
  bool peak_reset = false;
  std::uint64_t store_bytes = 0;
};

Pass run_pass(const PaConfig& cfg, const core::ParallelOptions& opt,
              Observed& seen) {
  std::filesystem::remove_all(opt.store_dir);
  trim_heap();
  Pass p;
  p.peak_reset = reset_peak_rss();
  const double cpu0 = cpu_seconds();
  Timer t;
  const core::ParallelResult res = core::generate(cfg, opt);
  p.gen_s = t.seconds();
  t.restart();
  const store::ShardedGraphView view(opt.store_dir);
  const core::DegreeHistogram hist = core::distributed_degree_distribution(
      view.merged_edge_source(), partition::Scheme::kRrp);
  p.reload_s = t.seconds();
  p.cpu_s = cpu_seconds() - cpu0;
  p.peak_mb = peak_rss_mb();
  p.store_bytes = res.store_bytes;
  seen.edges = res.total_edges;
  seen.histogram = histogram_digest(hist);
  return p;
}

/// Per-layer timing of one traced operation. The store tap is bench-owned
/// (the StoreWriter sink core::generate installs for store_dir), so its
/// appends and seal are timed from outside the library.
struct Layers {
  double gen_wall = 0.0;
  double derive_max = 0.0;  ///< slowest rank's derive span
  double derive_mean = 0.0;
  double derive_self_ns_per_edge = 0.0;
  double append_max = 0.0;  ///< slowest rank's time inside the store sink
  double append_ns_per_edge = 0.0;
  double finish_s = 0.0;
  double reload_wall = 0.0;
  double open_s = 0.0;
  double store_visit_s = 0.0;   ///< merged visit time outside the visitor
  double degree_visit_s = 0.0;  ///< time inside the kernel's visitor
  double degree_fold_s = 0.0;   ///< kernel time outside visit_shard
  Count dropped = 0;
};

Layers run_traced_pass(const PaConfig& cfg, const core::ParallelOptions& base,
                       Observed& seen, const std::string& trace_path) {
  std::filesystem::remove_all(base.store_dir);
  trim_heap();
  obs::Config oc;
  oc.enabled = true;
  oc.ring_capacity = std::size_t{1} << 12;
  obs::Session session(kRanks, oc);
  std::vector<RankTally> tally(kRanks);

  Layers l;
  Timer t;
  store::StoreWriter writer(base.store_dir, kRanks, base.store_block_edges);
  core::ParallelOptions opt = base;
  opt.store_dir.clear();
  opt.obs = &session;
  opt.edge_batch_sink = [&writer, &tally](Rank r,
                                          std::span<const graph::Edge> edges) {
    const std::int64_t start = now_ns();
    writer.append(r, edges);
    RankTally& mine = tally[static_cast<std::size_t>(r)];
    mine.sink_ns += now_ns() - start;
    mine.edges += edges.size();
  };
  const core::ParallelResult res = core::generate(cfg, opt);
  Timer tf;
  const store::StoreManifest manifest = writer.finish(cfg.n);
  l.finish_s = tf.seconds();
  l.gen_wall = t.seconds();

  const std::vector<double> derive = rank_span_seconds(session, "derive");
  double derive_sum = 0.0;
  double sink_sum = 0.0;
  for (int r = 0; r < kRanks; ++r) {
    const double sink =
        static_cast<double>(tally[static_cast<std::size_t>(r)].sink_ns) * 1e-9;
    l.derive_max = std::max(l.derive_max, derive[static_cast<std::size_t>(r)]);
    l.append_max = std::max(l.append_max, sink);
    derive_sum += derive[static_cast<std::size_t>(r)];
    sink_sum += sink;
  }
  const auto edges = static_cast<double>(res.total_edges);
  l.derive_mean = derive_sum / kRanks;
  l.derive_self_ns_per_edge = (derive_sum - sink_sum) * 1e9 / edges;
  l.append_ns_per_edge = sink_sum * 1e9 / edges;
  l.dropped = dropped_events(session);
  if (!trace_path.empty()) {
    std::ofstream os(trace_path, std::ios::trunc);
    session.write_trace(os);
  }

  t.restart();
  Timer to;
  const store::ShardedGraphView view(base.store_dir);
  l.open_s = to.seconds();
  const graph::EdgeSource merged = view.merged_edge_source();
  std::int64_t visit_ns = 0;
  std::int64_t visitor_ns = 0;
  graph::EdgeSource timed = merged;
  timed.visit_shard = [&](int shard, const graph::EdgeVisitor& visit) {
    const std::int64_t v0 = now_ns();
    merged.visit_shard(shard, [&](std::span<const graph::Edge> b) {
      const std::int64_t a0 = now_ns();
      visit(b);
      visitor_ns += now_ns() - a0;
    });
    visit_ns += now_ns() - v0;
  };
  Timer tk;
  const core::DegreeHistogram hist =
      core::distributed_degree_distribution(timed, partition::Scheme::kRrp);
  const double kernel_s = tk.seconds();
  l.reload_wall = t.seconds();
  l.store_visit_s = static_cast<double>(visit_ns - visitor_ns) * 1e-9;
  l.degree_visit_s = static_cast<double>(visitor_ns) * 1e-9;
  l.degree_fold_s = kernel_s - static_cast<double>(visit_ns) * 1e-9;

  seen.edges = manifest.total_edges();
  seen.histogram = histogram_digest(hist);
  return l;
}

/// The store codec and I/O replayed on blocks captured from shard 0.
struct Replay {
  double encode_ns_per_edge = 0.0;  ///< encode_block, its checksums included
  double checksum_ns_per_byte = 0.0;
  double decode_ns_per_edge = 0.0;
  double write_ns_per_edge = 0.0;  ///< header + payload stream writes
  bool round_trip = true;
};

Replay replay_blocks(const std::string& store_dir, const std::string& scratch) {
  std::vector<graph::EdgeList> blocks;
  store::EdgeShardReader reader(store::shard_path(store_dir, 0));
  (void)reader.visit([&blocks](std::span<const graph::Edge> b) {
    if (blocks.size() < kReplayBlocks) blocks.emplace_back(b.begin(), b.end());
  });
  Count edges = 0;
  for (const auto& b : blocks) edges += b.size();

  Replay r;
  std::vector<store::BlockHeader> headers(blocks.size());
  std::vector<std::vector<std::uint8_t>> payloads(blocks.size());
  std::int64_t start = now_ns();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    headers[i] = store::encode_block(blocks[i], payloads[i]);
  }
  r.encode_ns_per_edge =
      static_cast<double>(now_ns() - start) / static_cast<double>(edges);

  std::uint64_t bytes = 0;
  std::vector<std::uint64_t> sums(payloads.size());
  start = now_ns();
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    sums[i] = store::fnv1a(payloads[i]);
    bytes += payloads[i].size();
  }
  r.checksum_ns_per_byte =
      static_cast<double>(now_ns() - start) / static_cast<double>(bytes);
  for (std::size_t i = 0; i < headers.size(); ++i) {
    r.round_trip = r.round_trip && sums[i] == headers[i].payload_checksum;
  }

  std::vector<graph::EdgeList> outs(blocks.size());
  start = now_ns();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    store::decode_block(headers[i], payloads[i], outs[i]);
  }
  r.decode_ns_per_edge =
      static_cast<double>(now_ns() - start) / static_cast<double>(edges);
  r.round_trip = r.round_trip && outs == blocks;

  // The writer's own stream writes, replayed to a scratch file that no
  // reader opens.
  std::vector<std::uint8_t> buf;
  std::ofstream os(scratch, std::ios::binary | std::ios::trunc);
  start = now_ns();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    buf.clear();
    store::put_block_header(buf, headers[i]);
    os.write(  // pagen-lint: allow(store-format)
        reinterpret_cast<const char*>(buf.data()),
        static_cast<std::streamsize>(buf.size()));
    os.write(  // pagen-lint: allow(store-format)
        reinterpret_cast<const char*>(payloads[i].data()),
        static_cast<std::streamsize>(payloads[i].size()));
  }
  os.flush();
  r.write_ns_per_edge =
      static_cast<double>(now_ns() - start) / static_cast<double>(edges);
  r.round_trip = r.round_trip && os.good();
  return r;
}

/// The oracle's view of the graph: the degree histogram, and the digest of
/// {(t, F[t])} when `with_digest` (only the one-rank runs need it).
struct Oracle {
  std::vector<NodeId> targets;
  EdgeDigest edges;
  std::uint64_t histogram = 0;
};

Oracle make_oracle(const PaConfig& cfg, bool with_digest) {
  Oracle o;
  o.targets = baseline::copy_model_targets(cfg);
  std::vector<Count> degree(cfg.n, 0);
  for (NodeId t = 1; t < cfg.n; ++t) {
    ++degree[t];
    ++degree[o.targets[t]];
  }
  if (with_digest) {
    for (NodeId t = 1; t < cfg.n; ++t) {
      o.edges.add(graph::Edge{t, o.targets[t]});
    }
  }
  // nodes_of[d] = number of nodes of degree d.
  std::vector<Count> nodes_of;
  for (const Count d : degree) {
    if (d >= nodes_of.size()) nodes_of.resize(d + 1, 0);
    ++nodes_of[d];
  }
  core::DegreeHistogram fold;
  for (Count d = 0; d < nodes_of.size(); ++d) {
    if (nodes_of[d] != 0) fold.emplace_back(d, nodes_of[d]);
  }
  o.histogram = histogram_digest(fold);
  return o;
}

/// Exact check of a sealed store: every node t >= 1 appears once, as the
/// edge (t, F[t]).
bool store_matches_targets(const std::string& dir,
                           const std::vector<NodeId>& targets) {
  const graph::EdgeSource src = store::ShardedGraphView(dir).edge_source();
  std::vector<bool> seen(targets.size(), false);
  bool ok = true;
  Count edges = 0;
  for (int s = 0; s < src.num_shards; ++s) {
    src.visit_shard(s, [&](std::span<const graph::Edge> b) {
      for (const graph::Edge& e : b) {
        ++edges;
        if (e.u == 0 || e.u >= targets.size() || seen[e.u] ||
            e.v != targets[e.u]) {
          ok = false;
          continue;
        }
        seen[e.u] = true;
      }
    });
  }
  return ok && edges + 1 == targets.size();
}

}  // namespace


void run_pipeline_x1(const Args& args, Report& report) {
  const Count target_edges = args.smoke ? kSmokeEdges : kEdges;
  PaConfig cfg;
  cfg.n = target_edges + 1;
  cfg.x = 1;
  cfg.p = 0.5;
  cfg.seed = args.seed;

  const std::string dir = args.work_dir + "/pipeline-x1";
  core::ParallelOptions opt;
  opt.engine = "commfree";
  opt.ranks = kRanks;
  opt.scheme = partition::Scheme::kRrp;
  opt.gather_edges = false;
  opt.store_dir = dir + "/store";
  opt.store_block_edges = kBlockEdges;
  opt.spill_dir = dir + "/spill";
  // Smoke sizes keep the full-size ratio of memo budget to n.
  opt.spill_budget_bytes =
      args.smoke ? std::max<std::uint64_t>(
                       4096, kSpillBudgetBytes * cfg.n / (kEdges + 1))
                 : kSpillBudgetBytes;

  report.param("engine", opt.engine);
  report.param("n", static_cast<double>(cfg.n));
  report.param("x", static_cast<double>(cfg.x));
  report.param("p", cfg.p);
  report.param("ranks", kRanks);
  report.param("scheme", "rrp");
  report.param("store_block_edges", static_cast<double>(kBlockEdges));
  report.param("spill_budget_bytes",
               static_cast<double>(opt.spill_budget_bytes));
  report.param("setups", 1);
  report.param("min_timed_ops", args.trace ? kTracedPasses : kMinPasses);

  std::vector<Observed> seen;
  std::vector<EdgeDigest> solo_seen;  // one-rank runs: stored edges only
  const auto edges = static_cast<double>(target_edges);

  // Set-up: the process's first operation, untimed by the other metrics.
  seen.emplace_back();
  const Pass warm = run_pass(cfg, opt, seen.back());
  const double setup_s = warm.gen_s + warm.reload_s;

  std::vector<double> gen_eps;
  std::vector<double> op_ms;
  std::vector<double> reload_eps;
  std::vector<double> bytes_per_edge;
  std::vector<double> peak_mb;
  double busy_cpu_s = 0.0;
  double busy_wall_s = 0.0;
  const auto measure = [&] {
    seen.emplace_back();
    const Pass p = run_pass(cfg, opt, seen.back());
    busy_cpu_s += p.cpu_s;
    busy_wall_s += p.gen_s + p.reload_s;
    gen_eps.push_back(edges / p.gen_s);
    op_ms.push_back((p.gen_s + p.reload_s) * 1e3);
    reload_eps.push_back(edges / p.reload_s);
    bytes_per_edge.push_back(static_cast<double>(p.store_bytes) / edges);
    peak_mb.push_back(p.peak_mb);
    report.check(p.peak_reset, "cannot reset the peak resident set");
    return p.gen_s + p.reload_s;
  };

  if (!args.trace) {
    repeat_within(args, kOracleReserveS, kMinPasses, measure);
    report.metric("edges_per_s", "1/s", gen_eps, Stat::kMax);
    report.metric("latency_ms", "ms", op_ms, Stat::kMin);
    report.metric("peak_rss_mb", "MB", peak_mb, Stat::kMin);
    report.metric("setup_s", "s", setup_s);
    report.metric("reload_edges_per_s", "1/s", reload_eps);
    report.metric("bytes_per_edge", "B", bytes_per_edge);
  } else {
    // Untraced and traced operations alternate, so tracing_overhead
    // compares operations that ran under the same machine conditions.
    std::vector<double> derive_s, derive_self, imbalance, append_s, append_ns,
        finish_s, open_s, store_visit_s, degree_visit_s, degree_fold_s,
        read_ns, traced_ms, gen_residual, reload_residual, encode, checksum,
        decode, write;
    // Reserve for the one-rank run below (~1.5 four-rank operations).
    const double solo_reserve_s = kOracleReserveS + 1.5 * setup_s;
    repeat_within(args, solo_reserve_s, kTracedPasses, [&] {
      const Timer pair;
      measure();
      seen.emplace_back();
      const Layers l = run_traced_pass(
          cfg, opt, seen.back(),
          traced_ms.empty() ? args.out_dir + "/pipeline-x1.trace.json"
                            : std::string{});
      derive_s.push_back(l.derive_max);
      derive_self.push_back(l.derive_self_ns_per_edge);
      imbalance.push_back(l.derive_max / l.derive_mean);
      append_s.push_back(l.append_max);
      append_ns.push_back(l.append_ns_per_edge);
      finish_s.push_back(l.finish_s);
      open_s.push_back(l.open_s);
      store_visit_s.push_back(l.store_visit_s);
      degree_visit_s.push_back(l.degree_visit_s);
      degree_fold_s.push_back(l.degree_fold_s);
      read_ns.push_back(l.store_visit_s * 1e9 / edges);
      traced_ms.push_back((l.gen_wall + l.reload_wall) * 1e3);
      // The ledger: generate wall = slowest rank's derive span + seal;
      // reload wall = open + store visit + kernel visit + kernel fold.
      gen_residual.push_back(
          (l.gen_wall - (l.derive_max + l.finish_s)) / l.gen_wall);
      reload_residual.push_back(
          (l.reload_wall - (l.open_s + l.store_visit_s + l.degree_visit_s +
                            l.degree_fold_s)) /
          l.reload_wall);
      report.check(l.dropped == 0, "trace ring dropped events");

      const Replay rep = replay_blocks(opt.store_dir, dir + "/replay.bin");
      report.check(rep.round_trip, "store block replay did not round-trip");
      encode.push_back(rep.encode_ns_per_edge);
      checksum.push_back(rep.checksum_ns_per_byte);
      decode.push_back(rep.decode_ns_per_edge);
      write.push_back(rep.write_ns_per_edge);
      return pair.seconds();
    });
    // At smoke sizes thread start-up and file creation, which no layer
    // span covers, are a large share of a ~2 ms generate; the ledger is
    // held to 15% at the workload's real size only.
    if (!args.smoke) {
      report.check(std::abs(summarize(gen_residual).median) <= 0.15,
                   "generate ledger leaves >15% of its wall unaccounted");
      report.check(std::abs(summarize(reload_residual).median) <= 0.15,
                   "reload ledger leaves >15% of its wall unaccounted");
    }

    // Parallel efficiency: the same generation on one rank, against the
    // median four-rank generation of the untraced operations above.
    core::ParallelOptions solo = opt;
    solo.ranks = 1;
    solo.store_dir = dir + "/solo-store";
    std::filesystem::remove_all(solo.store_dir);
    trim_heap();
    const Timer ts;
    const core::ParallelResult solo_res = core::generate(cfg, solo);
    const double t1 = ts.seconds();
    solo_seen.push_back(solo_res.total_edges == target_edges
                            ? digest_store(solo.store_dir)
                            : EdgeDigest{});
    const double t4 = edges / summarize(gen_eps).median;

    report.metric("rng.draw_ns", "ns", draw_ns(cfg));
    report.metric("commfree.derive_s", "s", derive_s);
    report.metric("commfree.derive_self_ns_per_edge", "ns", derive_self);
    report.metric("commfree.rank_imbalance", "ratio", imbalance);
    report.metric("commfree.parallel_efficiency", "ratio", t1 / (kRanks * t4));
    report.metric("store.append_s", "s", append_s);
    report.metric("store.append_ns_per_edge", "ns", append_ns);
    report.metric("store.finish_s", "s", finish_s);
    report.metric("store.encode_ns_per_edge", "ns", encode);
    report.metric("store.checksum_ns_per_byte", "ns", checksum);
    report.metric("store.write_ns_per_edge", "ns", write);
    report.metric("store.bytes_per_edge", "B", bytes_per_edge);
    report.metric("store.open_s", "s", open_s);
    report.metric("store.visit_s", "s", store_visit_s);
    report.metric("store.decode_ns_per_edge", "ns", decode);
    report.metric("store.read_ns_per_edge", "ns", read_ns);
    report.metric("degree.visit_s", "s", degree_visit_s);
    report.metric("degree.fold_s", "s", degree_fold_s);
    report.metric("reload_edges_per_s", "1/s", reload_eps);
    report.metric("process.cpu_utilization", "ratio",
                  busy_cpu_s / (busy_wall_s * nproc()));
    report.metric("tracing_overhead", "ratio",
                  summarize(traced_ms).median / summarize(op_ms).median - 1.0);
    report.metric("ledger.gen_residual", "ratio", gen_residual);
    report.metric("ledger.reload_residual", "ratio", reload_residual);
  }

  // The oracle, after every timed region.
  const Oracle oracle = make_oracle(cfg, !solo_seen.empty());
  for (const Observed& s : seen) {
    report.op(s.edges == target_edges && s.histogram == oracle.histogram,
              "pipeline output differs from copy_model_targets");
  }
  for (const EdgeDigest& d : solo_seen) {
    report.op(d == oracle.edges,
              "one-rank store differs from copy_model_targets");
  }
  report.check(store_matches_targets(opt.store_dir, oracle.targets),
               "a stored edge (t, v) has v != F[t]");
  std::filesystem::remove_all(dir);
}

}  // namespace pagen::bench
