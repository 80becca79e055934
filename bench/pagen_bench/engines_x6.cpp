// commfree-x6 and mps-x6: the paper's x = 6 on both distributed engines,
// same spec, edges streamed into a count-only batch sink (no store).
//
// Why commfree-x6: derivation (XkDeriver with its in-RAM memo) and the rng
// draws do almost all the work; the store, mps and kernel layers do none.
// Why mps-x6: the paper's message-passing engine on the same spec, so the
// mps transport and the core/genrt runtime do the work and commfree
// derivation does none. It is the workload that prices any change to the
// x > 1 retry order. n = 3,333,334 gives 2e7 edges, where commfree's memo
// and mps's per-rank state are far larger than any core's cache.
//
// One operation = one generate() call. Oracles, computed after the
// measurement: every commfree operation must emit exactly the edge
// multiset of baseline::copy_model_general (its sink digests the edges,
// ~1% of the operation); mps output with x > 1 on several ranks depends on
// message timing, so every mps operation must emit the expected edge count
// and one untimed gathered pass must satisfy the structural invariants
// (edge count, v < t, every node's targets distinct).
#include <algorithm>
#include <array>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "baseline/copy_model_seq.h"
#include "bench_util.h"
#include "core/generate.h"

namespace pagen::bench {
namespace {

constexpr NodeId kNodes = 3'333'334;
constexpr NodeId kSmokeNodes = 5'000;
constexpr NodeId kX = 6;
constexpr int kRanks = 4;
constexpr int kTracedPasses = 3;
/// Trace events kept per track: enough that none is overwritten.
constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

constexpr std::array<const char*, 6> kCollectives = {
    "barrier", "allreduce_sum", "allreduce_max",
    "allgather", "allgather_bytes", "broadcast"};

/// Per-engine run shape: warm-up operations (setup_s is their median), the
/// fewest timed operations (the budget decides how many more), and the
/// seconds of the budget kept for the oracle. A commfree operation takes
/// 4-5.5 s and its oracle (copy_model_general) ~2 s; an mps operation
/// 0.5-1 s, its wall varying by up to 3x with message timing, so mps runs
/// more of both (the median of eight set-ups moves far less between runs
/// than that of three), and its oracle (a gathered pass and its sort)
/// takes ~4 s.
struct Shape {
  int setups;
  int min_passes;
  double oracle_reserve_s;
};

Shape shape_of(bool commfree) {
  return commfree ? Shape{1, 3, 2.5} : Shape{8, 10, 4.5};
}

/// One generate() into the bench's count-only sink, which also digests the
/// edges when `digest` is set.
struct Pass {
  double wall = 0.0;
  double cpu_s = 0.0;  ///< process CPU time over the generate() call
  double peak_mb = 0.0;  ///< peak resident set over the generate() call
  bool peak_reset = false;
  Count total_edges = 0;  ///< as the engine reports it
  Count sink_edges = 0;   ///< as the sink counted them
  EdgeDigest digest;
  std::vector<RankTally> tally;
  core::ParallelResult result;
};

Pass run_pass(const PaConfig& cfg, core::ParallelOptions opt, bool digest) {
  Pass p;
  p.tally.resize(static_cast<std::size_t>(opt.ranks));
  opt.edge_batch_sink = [&p, digest](Rank r, std::span<const graph::Edge> es) {
    const std::int64_t start = now_ns();
    RankTally& mine = p.tally[static_cast<std::size_t>(r)];
    mine.edges += es.size();
    if (digest) mine.digest.add(es);
    mine.sink_ns += now_ns() - start;
  };
  trim_heap();
  p.peak_reset = reset_peak_rss();
  const double cpu0 = cpu_seconds();
  const Timer t;
  p.result = core::generate(cfg, opt);
  p.wall = t.seconds();
  p.cpu_s = cpu_seconds() - cpu0;
  p.peak_mb = peak_rss_mb();
  p.total_edges = p.result.total_edges;
  for (const RankTally& r : p.tally) {
    p.sink_edges += r.edges;
    p.digest += r.digest;
  }
  return p;
}

/// The mps oracle: edge count, v < t, and per node exactly min(t, x)
/// distinct targets.
bool structurally_valid(graph::EdgeList edges, const PaConfig& cfg) {
  if (edges.size() != expected_edge_count(cfg)) return false;
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::size_t i = 0;
  while (i < edges.size()) {
    const NodeId t = edges[i].u;
    std::size_t j = i;
    for (; j < edges.size() && edges[j].u == t; ++j) {
      if (edges[j].v >= t || (j > i && edges[j].v == edges[j - 1].v)) {
        return false;
      }
    }
    if (j - i != std::min<NodeId>(t, cfg.x)) return false;
    i = j;
  }
  return true;
}

void run_engine_x6(const std::string& engine, const Args& args,
                   Report& report) {
  PaConfig cfg;
  cfg.n = args.smoke ? kSmokeNodes : kNodes;
  cfg.x = kX;
  cfg.p = 0.5;
  cfg.seed = args.seed;
  const Count expected = expected_edge_count(cfg);
  const bool commfree = engine == "commfree";
  const Shape shape = shape_of(commfree);

  core::ParallelOptions opt;
  opt.engine = engine;
  opt.ranks = kRanks;
  opt.scheme = partition::Scheme::kRrp;
  opt.gather_edges = false;

  report.param("engine", engine);
  report.param("n", static_cast<double>(cfg.n));
  report.param("x", static_cast<double>(cfg.x));
  report.param("p", cfg.p);
  report.param("ranks", kRanks);
  report.param("scheme", "rrp");
  report.param("buffer_capacity", static_cast<double>(opt.buffer_capacity));
  report.param("edge_batch_capacity",
               static_cast<double>(opt.edge_batch_capacity));
  report.param("setups", shape.setups);
  report.param("min_timed_ops", args.trace ? kTracedPasses : shape.min_passes);

  const auto edges = static_cast<double>(expected);
  // What every operation emitted, checked against the oracle at the end.
  std::vector<Pass> seen;
  const auto record = [&seen](Pass&& p) {
    p.result = core::ParallelResult{};
    p.tally.clear();
    seen.push_back(std::move(p));
  };

  std::vector<double> setup_s;
  for (int i = 0; i < shape.setups; ++i) {
    Pass p = run_pass(cfg, opt, commfree);
    setup_s.push_back(p.wall);
    record(std::move(p));
  }

  std::vector<double> eps;
  std::vector<double> op_ms;
  std::vector<double> peak_mb;
  double busy_cpu_s = 0.0;
  double busy_wall_s = 0.0;
  const auto measure = [&] {
    Pass p = run_pass(cfg, opt, commfree);
    busy_cpu_s += p.cpu_s;
    busy_wall_s += p.wall;
    eps.push_back(edges / p.wall);
    op_ms.push_back(p.wall * 1e3);
    peak_mb.push_back(p.peak_mb);
    report.check(p.peak_reset, "cannot reset the peak resident set");
    const double wall = p.wall;
    record(std::move(p));
    return wall;
  };

  Count retries = 0;  // commfree: Σ RankLoad::retries of one traced pass
  if (!args.trace) {
    repeat_within(args, shape.oracle_reserve_s, shape.min_passes, measure);
    report.metric("edges_per_s", "1/s", eps, Stat::kMax);
    report.metric("latency_ms", "ms", op_ms, Stat::kMin);
    report.metric("peak_rss_mb", "MB", peak_mb, Stat::kMin);
    report.metric("setup_s", "s", setup_s);
  } else {
    // Untraced and traced operations alternate, so tracing_overhead
    // compares operations that ran under the same machine conditions.
    std::vector<double> traced_s, residual;
    std::vector<double> derive_s, derive_self, imbalance;
    std::vector<double> generate_s, drain_s, termination_s, collective_s,
        envelopes, bytes, messages, retries_pe, max_queue;
    // Kept for the one-rank run below.
    const double solo_reserve_s =
        shape.oracle_reserve_s + kRanks * summarize(setup_s).median;
    repeat_within(args, solo_reserve_s, kTracedPasses, [&] {
      const Timer pair;
      measure();
      obs::Config oc;
      oc.enabled = true;
      oc.ring_capacity = kRingCapacity;
      obs::Session session(kRanks, oc);
      core::ParallelOptions traced = opt;
      traced.obs = &session;
      Pass p = run_pass(cfg, traced, commfree);
      report.check(dropped_events(session) == 0, "trace ring dropped events");
      if (traced_s.empty()) {
        std::ofstream os(args.out_dir + "/" + args.workload + ".trace.json",
                         std::ios::trunc);
        session.write_trace(os);
      }
      traced_s.push_back(p.wall);
      const core::RankLoad load = core::merge_across_ranks(p.result.loads);

      if (commfree) {
        const std::vector<double> d = rank_span_seconds(session, "derive");
        double sum = 0.0;
        double sink = 0.0;
        for (int r = 0; r < kRanks; ++r) {
          sum += d[static_cast<std::size_t>(r)];
          const RankTally& tally = p.tally[static_cast<std::size_t>(r)];
          sink += static_cast<double>(tally.sink_ns) * 1e-9;
        }
        const double max = *std::max_element(d.begin(), d.end());
        derive_s.push_back(max);
        derive_self.push_back((sum - sink) * 1e9 / edges);
        imbalance.push_back(max / (sum / kRanks));
        residual.push_back((p.wall - max) / p.wall);
        retries = load.retries;
      } else {
        const auto g = rank_span_seconds(session, "generate");
        const auto d = rank_span_seconds(session, "drain");
        const auto t = rank_span_seconds(session, "termination");
        std::vector<double> coll(kRanks, 0.0);
        for (const char* name : kCollectives) {
          const auto c = rank_span_seconds(session, name);
          for (int r = 0; r < kRanks; ++r) {
            coll[static_cast<std::size_t>(r)] += c[static_cast<std::size_t>(r)];
          }
        }
        double phases = 0.0;
        for (int r = 0; r < kRanks; ++r) {
          const auto ri = static_cast<std::size_t>(r);
          phases = std::max(phases, g[ri] + d[ri] + t[ri]);
        }
        generate_s.push_back(*std::max_element(g.begin(), g.end()));
        drain_s.push_back(*std::max_element(d.begin(), d.end()));
        termination_s.push_back(*std::max_element(t.begin(), t.end()));
        collective_s.push_back(*std::max_element(coll.begin(), coll.end()));
        residual.push_back((p.wall - phases) / p.wall);

        mps::CommStats comm;
        for (const mps::CommStats& s : p.result.comm_stats) comm += s;
        envelopes.push_back(static_cast<double>(comm.envelopes_sent) / edges);
        bytes.push_back(static_cast<double>(comm.bytes_sent) / edges);
        messages.push_back(
            static_cast<double>(load.requests_sent + load.resolved_sent) /
            edges);
        retries_pe.push_back(static_cast<double>(load.retries) / edges);
        max_queue.push_back(static_cast<double>(load.max_queue_depth));
      }
      record(std::move(p));
      return pair.seconds();
    });

    // Parallel efficiency: the same generation on one rank, against the
    // median untraced four-rank operation above.
    core::ParallelOptions solo = opt;
    solo.ranks = 1;
    Pass solo_pass = run_pass(cfg, solo, commfree);
    const double efficiency =
        solo_pass.wall / (kRanks * summarize(op_ms).median * 1e-3);
    record(std::move(solo_pass));

    report.metric("rng.draw_ns", "ns", draw_ns(cfg));
    report.metric("process.cpu_utilization", "ratio",
                  busy_cpu_s / (busy_wall_s * nproc()));
    report.metric("tracing_overhead", "ratio",
                  summarize(traced_s).median * 1e3 / summarize(op_ms).median -
                      1.0);
    report.metric("ledger.gen_residual", "ratio", residual);
    if (commfree) {
      report.metric("commfree.derive_s", "s", derive_s);
      report.metric("commfree.derive_self_ns_per_edge", "ns", derive_self);
      report.metric("commfree.rank_imbalance", "ratio", imbalance);
      report.metric("commfree.parallel_efficiency", "ratio", efficiency);
    } else {
      report.metric("genrt.generate_s", "s", generate_s);
      report.metric("genrt.drain_s", "s", drain_s);
      report.metric("genrt.termination_s", "s", termination_s);
      report.metric("mps.collective_s", "s", collective_s);
      report.metric("mps.envelopes_per_edge", "ratio", envelopes);
      report.metric("mps.bytes_per_edge", "B", bytes);
      report.metric("pa.messages_per_edge", "ratio", messages);
      report.metric("pa.retries_per_edge", "ratio", retries_pe);
      report.metric("pa.max_queue_depth", "count", max_queue);
      report.metric("mps.parallel_efficiency", "ratio", efficiency);
    }
  }

  // The oracle, after every timed region.
  EdgeDigest want;
  if (commfree) {
    const baseline::GeneralResult seq = baseline::copy_model_general(cfg);
    want.add(seq.edges);
    if (args.trace) {
      report.metric("commfree.recompute_ratio", "ratio",
                    static_cast<double>(retries) /
                        static_cast<double>(std::max<Count>(seq.retries, 1)));
    }
  } else {
    core::ParallelOptions gather = opt;
    gather.gather_edges = true;
    const core::ParallelResult res = core::generate(cfg, gather);
    report.op(structurally_valid(res.edges, cfg),
              "mps output violates the structural invariants");
  }
  for (const Pass& p : seen) {
    const bool count_ok = p.total_edges == expected && p.sink_edges == expected;
    report.op(count_ok && (!commfree || p.digest == want),
              commfree ? "commfree edges differ from copy_model_general"
                       : "mps emitted the wrong edge count");
  }
}

}  // namespace

void run_commfree_x6(const Args& args, Report& report) {
  run_engine_x6("commfree", args, report);
}

void run_mps_x6(const Args& args, Report& report) {
  run_engine_x6("mps", args, report);
}

}  // namespace pagen::bench
