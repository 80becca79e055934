#include "obs/metrics.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/engine/engine.h"
#include "core/generate.h"
#include "json_lint.h"
#include "mps/stats.h"
#include "obs/prom.h"
#include "obs/session.h"

namespace pagen::obs {
namespace {

using pagen::testing::JsonLint;

TEST(Counter, AddsAndMerges) {
  Counter a;
  EXPECT_EQ(a.value(), 0u);
  a.add();
  a.add(41);
  EXPECT_EQ(a.value(), 42u);
  Counter b;
  b.add(8);
  a += b;
  EXPECT_EQ(a.value(), 50u);
}

TEST(Gauge, TracksLastMinMaxSamples) {
  Gauge g;
  EXPECT_EQ(g.samples(), 0u);
  g.set(5);
  g.set(-2);
  g.set(9);
  EXPECT_EQ(g.samples(), 3u);
  EXPECT_EQ(g.last(), 9);
  EXPECT_EQ(g.min(), -2);
  EXPECT_EQ(g.max(), 9);
}

TEST(Gauge, MergeCombinesExtremaAndIgnoresEmpty) {
  Gauge a;
  a.set(4);
  Gauge empty;
  a += empty;
  EXPECT_EQ(a.samples(), 1u);
  EXPECT_EQ(a.min(), 4);

  Gauge b;
  b.set(-7);
  b.set(20);
  a += b;
  EXPECT_EQ(a.samples(), 3u);
  EXPECT_EQ(a.min(), -7);
  EXPECT_EQ(a.max(), 20);
  EXPECT_EQ(a.last(), 20);

  Gauge target;
  target += b;  // merge into empty adopts the source wholesale
  EXPECT_EQ(target.samples(), 2u);
  EXPECT_EQ(target.min(), -7);
}

TEST(Histogram, PowerOfTwoBucketsAndExactStats) {
  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_DOUBLE_EQ(h.mean(), 206.0);

  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].upper, 0u);  // value 0
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_EQ(buckets[1].upper, 1u);  // value 1
  EXPECT_EQ(buckets[1].count, 1u);
  EXPECT_EQ(buckets[2].upper, 3u);  // values 2, 3
  EXPECT_EQ(buckets[2].count, 2u);
  EXPECT_EQ(buckets[3].upper, 2047u);  // value 1024
  EXPECT_EQ(buckets[3].count, 1u);
}

TEST(Histogram, HandlesHugeValuesAndMerges) {
  Histogram a;
  a.observe(~std::uint64_t{0});  // top bucket must not overflow its bound
  const auto top = a.buckets();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].upper, ~std::uint64_t{0});

  Histogram b;
  b.observe(2);
  b.observe(100);
  a += b;
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 2u);
  EXPECT_EQ(a.max(), ~std::uint64_t{0});

  Histogram empty;
  empty += b;
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.min(), 2u);
  EXPECT_EQ(empty.max(), 100u);
}

TEST(Histogram, PercentilesAreDeterministicAndClamped) {
  // Heavily skewed: one 10 and a thousand 1000s. The median and tails all
  // land in the 1000s bucket [512, 1023]; interpolation stays inside it
  // and the result clamps to the exact observed [min, max].
  Histogram h;
  h.observe(10);
  for (int i = 0; i < 1000; ++i) h.observe(1000);
  EXPECT_GE(h.p50(), 512u);
  EXPECT_LE(h.p50(), 1000u);  // clamped to max
  EXPECT_GE(h.p95(), 512u);
  EXPECT_LE(h.p95(), 1000u);
  EXPECT_GE(h.p99(), h.p50());
  // Determinism: same bucket state, same answer.
  EXPECT_EQ(h.p95(), h.percentile(0.95));

  // Single value: every percentile is that value exactly.
  Histogram one;
  one.observe(77);
  EXPECT_EQ(one.p50(), 77u);
  EXPECT_EQ(one.p95(), 77u);
  EXPECT_EQ(one.p99(), 77u);

  // Empty histogram: defined zero, not UB.
  Histogram empty;
  EXPECT_EQ(empty.p50(), 0u);
  EXPECT_EQ(empty.p99(), 0u);

  // Uniform small values where buckets are exact (widths 0 and 1).
  Histogram exact;
  exact.observe(0);
  exact.observe(1);
  exact.observe(1);
  exact.observe(1);
  EXPECT_EQ(exact.p50(), 1u);
}

TEST(Histogram, PercentilesAreMonotoneInQ) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 4096; v *= 2) {
    for (int i = 0; i < 16; ++i) h.observe(v);
  }
  std::uint64_t prev = 0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const std::uint64_t at = h.percentile(q);
    EXPECT_GE(at, prev) << "q " << q;
    prev = at;
  }
  EXPECT_LE(prev, h.max());
}

TEST(MetricsRegistry, HandlesAreStableAndNamed) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.count");
  c.add(3);
  reg.counter("a.count").add(2);  // same instrument
  EXPECT_EQ(reg.counter("a.count").value(), 5u);
  reg.gauge("a.depth").set(7);
  reg.histogram("a.lat").observe(9);
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.gauges().size(), 1u);
  EXPECT_EQ(reg.histograms().size(), 1u);
}

TEST(MetricsRegistry, MultiRankMergeFollowsPerTypeSemantics) {
  MetricsRegistry r0, r1;
  r0.counter("msgs").add(10);
  r1.counter("msgs").add(32);
  r0.gauge("depth").set(3);
  r1.gauge("depth").set(8);
  r0.histogram("lat").observe(2);
  r1.histogram("lat").observe(1000);
  r1.counter("only_r1").add(1);

  MetricsRegistry total;
  total.merge(r0);
  total.merge(r1);
  EXPECT_EQ(total.counter("msgs").value(), 42u);     // counters sum
  EXPECT_EQ(total.counter("only_r1").value(), 1u);   // missing = 0
  EXPECT_EQ(total.gauge("depth").max(), 8);          // gauges take extrema
  EXPECT_EQ(total.gauge("depth").min(), 3);
  EXPECT_EQ(total.gauge("depth").samples(), 2u);
  EXPECT_EQ(total.histogram("lat").count(), 2u);     // histograms sum
  EXPECT_EQ(total.histogram("lat").max(), 1000u);
}

TEST(MetricsExport, ValidJsonWithDeterministicOrdering) {
  // Insert in different orders on the two ranks; export must sort by name
  // and be byte-identical across repeated exports.
  MetricsRegistry r0, r1;
  r0.counter("zeta").add(1);
  r0.counter("alpha").add(2);
  r1.counter("alpha").add(5);
  r1.counter("zeta").add(7);
  r0.gauge("mid").set(3);
  r1.histogram("lat").observe(4);

  std::ostringstream a, b;
  write_metrics_json(a, {&r0, &r1});
  write_metrics_json(b, {&r0, &r1});
  const std::string json = a.str();
  EXPECT_EQ(json, b.str());
  EXPECT_EQ(JsonLint::check(json), "");
  EXPECT_NE(json.find("\"schema\": \"pagen.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  // Totals merged: alpha = 2 + 5.
  EXPECT_NE(json.find("\"alpha\": 7"), std::string::npos);
}

TEST(MetricsExport, EmptyRegistriesStillProduceValidJson) {
  MetricsRegistry empty;
  std::ostringstream os;
  write_metrics_json(os, {&empty});
  EXPECT_EQ(JsonLint::check(os.str()), "");
}

TEST(MetricsExport, HistogramJsonCarriesPercentilesInSortedKeyOrder) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  h.observe(10);
  h.observe(100);
  h.observe(1000);

  std::ostringstream os;
  write_metrics_json(os, {&reg});
  const std::string json = os.str();
  EXPECT_EQ(JsonLint::check(json), "");
  EXPECT_NE(json.find("\"p50\": "), std::string::npos);
  EXPECT_NE(json.find("\"p95\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99\": "), std::string::npos);
  // Stable field order inside each histogram object: count, sum, min, max,
  // then percentiles, then buckets — consumers diff these files.
  EXPECT_LT(json.find("\"count\""), json.find("\"sum\""));
  EXPECT_LT(json.find("\"max\""), json.find("\"p50\""));
  EXPECT_LT(json.find("\"p50\""), json.find("\"p95\""));
  EXPECT_LT(json.find("\"p95\""), json.find("\"p99\""));
  EXPECT_LT(json.find("\"p99\""), json.find("\"buckets\""));
}

TEST(PrometheusExport, MapsInstrumentsToTextExposition) {
  MetricsRegistry reg;
  reg.counter("svc.submits").add(12);
  reg.gauge("svc.queue_depth").set(3);
  Histogram& lat = reg.histogram("svc.job_latency_ns");
  lat.observe(100);
  lat.observe(900);
  lat.observe(70000);

  std::ostringstream os;
  write_prometheus(os, reg);
  const std::string text = os.str();

  // Names: dots to underscores under a pagen_ prefix, with TYPE headers.
  EXPECT_NE(text.find("# TYPE pagen_svc_submits counter"), std::string::npos);
  EXPECT_NE(text.find("pagen_svc_submits 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pagen_svc_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("pagen_svc_queue_depth 3"), std::string::npos);
  // Histograms: cumulative le buckets closed by +Inf, then _sum/_count and
  // the percentile companion gauges.
  EXPECT_NE(text.find("# TYPE pagen_svc_job_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("pagen_svc_job_latency_ns_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("pagen_svc_job_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("pagen_svc_job_latency_ns_sum 71000"),
            std::string::npos);
  EXPECT_NE(text.find("pagen_svc_job_latency_ns_count 3"), std::string::npos);
  EXPECT_NE(text.find("pagen_svc_job_latency_ns_p50"), std::string::npos);
  EXPECT_NE(text.find("pagen_svc_job_latency_ns_p99"), std::string::npos);

  // Deterministic: two exports are byte-identical.
  std::ostringstream again;
  write_prometheus(again, reg);
  EXPECT_EQ(text, again.str());
}

TEST(PrometheusExport, BucketCountsAreCumulative) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  h.observe(1);   // bucket le=1
  h.observe(2);   // bucket le=3
  h.observe(3);   // bucket le=3
  std::ostringstream os;
  write_prometheus(os, reg);
  const std::string text = os.str();
  EXPECT_NE(text.find("pagen_lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("pagen_lat_bucket{le=\"3\"} 3"), std::string::npos);
  EXPECT_NE(text.find("pagen_lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
}

TEST(CommStatsExport, PerDestinationAndPerTagCountsLandInRegistry) {
  mps::CommStats s;
  s.envelopes_sent = 3;
  s.bytes_sent = 100;
  s.envelopes_to = {2, 0, 1};
  s.sent_by_tag[1] = 2;
  s.sent_by_tag[2] = 1;
  s.received_by_tag[2] = 4;

  MetricsRegistry reg;
  mps::record_metrics(reg, s);
  EXPECT_EQ(reg.counter("mps.envelopes_sent").value(), 3u);
  EXPECT_EQ(reg.counter("mps.envelopes_to.0000").value(), 2u);
  EXPECT_EQ(reg.counter("mps.envelopes_to.0002").value(), 1u);
  // Zero rows are skipped entirely.
  EXPECT_EQ(reg.counters().count("mps.envelopes_to.0001"), 0u);
  EXPECT_EQ(reg.counter("mps.sent_by_tag.1").value(), 2u);
  EXPECT_EQ(reg.counter("mps.received_by_tag.2").value(), 4u);
}

TEST(ObsIntegration, GenerateFillsLoadCommAndLatencyMetrics) {
  constexpr int kRanks = 4;
  Config cfg;
  cfg.enabled = true;
  Session session(kRanks, cfg);

  PaConfig pa;
  pa.n = 30000;
  pa.x = 2;
  pa.seed = 5;
  core::ParallelOptions opt;
  opt.ranks = kRanks;
  opt.gather_edges = false;
  opt.obs = &session;
  const auto result = core::generate(pa, opt);

  Count nodes = 0, edges = 0;
  for (int r = 0; r < kRanks; ++r) {
    MetricsRegistry& m = session.rank(r).metrics();
    nodes += m.counter("pa.nodes").value();
    edges += m.counter("pa.edges").value();
    // The runtime folded its CommStats in as well.
    EXPECT_GT(m.counter("mps.envelopes_sent").value(), 0u) << "rank " << r;
    EXPECT_GT(m.gauge("mps.mailbox_depth").samples(), 0u) << "rank " << r;
  }
  EXPECT_EQ(nodes, pa.n);
  EXPECT_EQ(edges, result.total_edges);

  // Cross-rank traffic existed, so somebody measured a chain resolution.
  Count chain_obs = 0;
  for (int r = 0; r < kRanks; ++r) {
    chain_obs += session.rank(r).metrics().histogram("pa.chain_latency_ns").count();
  }
  EXPECT_GT(chain_obs, 0u);

  std::ostringstream os;
  session.write_metrics(os);
  EXPECT_EQ(JsonLint::check(os.str()), "");
}

// Every engine's ranks record their pa.* metrics once, in the launch, from
// the same RankLoad the result returns.
TEST(ObsIntegration, MetricsAgreeWithRankLoadsAndMergeHelper) {
  for (const core::Engine* engine :
       core::EngineRegistry::instance().engines()) {
    SCOPED_TRACE(std::string(engine->name()));
    const int ranks = engine->capabilities().multi_rank ? 3 : 1;
    Config cfg;
    cfg.enabled = true;
    Session session(ranks, cfg);

    PaConfig pa;
    pa.n = 12000;
    pa.x = 1;
    pa.seed = 9;
    core::ParallelOptions opt;
    opt.engine = std::string(engine->name());
    opt.ranks = ranks;
    opt.gather_edges = false;
    opt.obs = &session;
    const auto result = core::generate(pa, opt);

    const core::RankLoad total = core::merge_across_ranks(result.loads);
    EXPECT_EQ(total.nodes, pa.n);
    EXPECT_EQ(total.edges, result.total_edges);
    // max_queue_depth reduces by max, not sum.
    Count max_depth = 0;
    for (const core::RankLoad& l : result.loads) {
      max_depth = std::max(max_depth, l.max_queue_depth);
    }
    EXPECT_EQ(total.max_queue_depth, max_depth);

    for (int r = 0; r < ranks; ++r) {
      MetricsRegistry& m = session.rank(r).metrics();
      const core::RankLoad& l = result.loads[static_cast<std::size_t>(r)];
      EXPECT_EQ(m.counter("pa.nodes").value(), l.nodes);
      EXPECT_EQ(m.counter("pa.requests_sent").value(), l.requests_sent);
      EXPECT_EQ(m.counter("pa.edges").value(), l.edges);
      EXPECT_EQ(
          static_cast<Count>(m.gauge("pa.max_queue_depth").max()),
          l.max_queue_depth);
    }
  }
}

}  // namespace
}  // namespace pagen::obs
