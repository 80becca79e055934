// Cross-engine equivalence (ISSUE 9): every registered engine, driven
// through the core::generate() facade, must sample the same degree
// distribution as the sequential copy-model oracle — KS distance below the
// two-sample critical value at P in {1, 2, 4, 7}, with capability-gated
// skips for single-rank engines. The communication-free and mps engines
// are pinned harder: bitwise-identical output to the oracle for every P and
// scheme, and retry counts bounded by (commfree, per rank) or equal to (mps,
// merged) the oracle's. commfree also runs with identically zero
// request/resolved message volume and no envelopes, its x > 1 epoch
// exchange (one allgather per epoch) derives each row about once, and its
// degree exponent is in the preferential-attachment range.
//
// When PAGEN_ENGINE_REPORT names a file, the KS sweep also writes the
// per-engine KS / message-volume report that the engine-equivalence CI job
// uploads as an artifact.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ks_distance.h"
#include "analysis/powerlaw_fit.h"
#include "baseline/copy_model_seq.h"
#include "core/engine/engine.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "obs/session.h"
#include "partition/block_cyclic.h"
#include "store/graph_view.h"
#include "util/error.h"

namespace pagen::core {
namespace {

constexpr int kRankSweep[] = {1, 2, 4, 7};

graph::EdgeList normalized(graph::EdgeList edges) {
  graph::normalize(edges);
  return edges;
}

PaConfig oracle_config() {
  PaConfig cfg;
  cfg.n = 20000;
  cfg.x = 4;
  cfg.p = 0.5;  // the copy model at p = 1/2 is exact preferential attachment
  cfg.seed = 7;
  return cfg;
}

TEST(EngineRegistry, ListsTheBuiltinEngines) {
  auto& reg = EngineRegistry::instance();
  for (const char* name : {"mps", "commfree", "seq-copy", "seq-bb"}) {
    const Engine* engine = reg.find(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
  }
  EXPECT_EQ(reg.find("no-such-engine"), nullptr);
  EXPECT_GE(reg.engines().size(), 4U);
}

TEST(EngineRegistry, RequireNamesTheAlternativesOnUnknown) {
  try {
    (void)EngineRegistry::instance().require("warp-drive");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown engine 'warp-drive'"), std::string::npos);
    EXPECT_NE(what.find("mps"), std::string::npos);
    EXPECT_NE(what.find("commfree"), std::string::npos);
  }
}

TEST(EngineEquivalence, KsDistanceVsSequentialOracleForEveryEngine) {
  const PaConfig cfg = oracle_config();
  const baseline::GeneralResult oracle = baseline::copy_model_general(cfg);
  const std::vector<Count> oracle_deg =
      graph::degree_sequence(oracle.edges, cfg.n);

  std::ostringstream report;
  report << "{\n  \"config\": {\"n\": " << cfg.n << ", \"x\": " << cfg.x
         << ", \"p\": " << cfg.p << ", \"seed\": " << cfg.seed
         << "},\n  \"engines\": [\n";
  bool first_row = true;

  for (const Engine* engine : EngineRegistry::instance().engines()) {
    const EngineCaps caps = engine->capabilities();
    for (const int ranks : kRankSweep) {
      if (ranks > 1 && !caps.multi_rank) continue;  // capability-gated skip

      ParallelOptions opt;
      opt.engine = std::string(engine->name());
      opt.ranks = ranks;
      const ParallelResult result = generate(cfg, opt);
      const std::vector<Count> deg =
          graph::degree_sequence(result.edges, cfg.n);

      const double ks = analysis::ks_distance(deg, oracle_deg);
      const double critical =
          analysis::ks_critical_value(deg.size(), oracle_deg.size());
      EXPECT_LE(ks, critical)
          << "engine=" << engine->name() << " P=" << ranks;

      const RankLoad total = merge_across_ranks(result.loads);
      EXPECT_EQ(total.edges, result.total_edges);
      if (!first_row) report << ",\n";
      first_row = false;
      report << "    {\"engine\": \"" << engine->name()
             << "\", \"ranks\": " << ranks << ", \"ks\": " << ks
             << ", \"ks_critical\": " << critical
             << ", \"requests_sent\": " << total.requests_sent
             << ", \"resolved_sent\": " << total.resolved_sent
             << ", \"total_messages\": " << total.total_messages()
             << ", \"edges\": " << total.edges << "}";
    }
  }
  report << "\n  ]\n}\n";

  if (const char* path = std::getenv("PAGEN_ENGINE_REPORT")) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << report.str();
  }
}

// The commfree engine resolves in the canonical sequential order, so it
// reproduces the oracle bitwise for EVERY rank count and scheme.
// Both ends of the x = 1 chain walk: at p = 0 every walk runs to the
// bootstrap node 1, the only place a walk stops without a direct draw; at
// p = 1 no walk copies.
TEST(EngineEquivalence, CommFreeBitwiseMatchesOracleX1) {
  for (const double p : {0.0, 0.1, 0.5, 1.0}) {
    PaConfig cfg;
    cfg.n = 6000;
    cfg.x = 1;
    cfg.p = p;
    cfg.seed = 3;
    const std::vector<NodeId> oracle = baseline::copy_model_targets(cfg);

    for (const int ranks : kRankSweep) {
      for (const auto scheme :
           {partition::Scheme::kRrp, partition::Scheme::kUcp,
            partition::Scheme::kLcp}) {
        ParallelOptions opt;
        opt.engine = "commfree";
        opt.ranks = ranks;
        opt.scheme = scheme;
        const ParallelResult result = generate(cfg, opt);
        EXPECT_EQ(result.targets, oracle)
            << "p=" << p << " P=" << ranks
            << " scheme=" << partition::to_string(scheme);
        EXPECT_EQ(result.total_edges, cfg.n - 1);
      }
    }
  }
}

// mps commits each node's slots in order, so it emits the same edge set.
// Beyond the output, the retry counts pin that each commfree rank derives
// every row at most once: at P = 1 the deriver performs exactly the oracle's
// retries, and at any P no rank performs more. A deriver that re-derived
// rows would still emit the oracle's edges, so equality alone cannot catch
// it. An mps rank retries only its own slots, so its merged retries equal
// the oracle's at every P.
TEST(EngineEquivalence, CommFreeBitwiseMatchesOracleXk) {
  for (const PaConfig& cfg :
       {PaConfig{.n = 3000, .x = 5, .p = 0.4, .seed = 11},  // direct + copy
        PaConfig{.n = 3000, .x = 5, .p = 0.0, .seed = 11},  // copy-only
        PaConfig{.n = 200, .x = 8, .p = 0.2, .seed = 5}}) {  // heavy retries
    const baseline::GeneralResult seq = baseline::copy_model_general(cfg);
    const graph::EdgeList oracle = normalized(seq.edges);

    for (const char* engine : {"commfree", "mps"}) {
      SCOPED_TRACE(engine);
      for (const int ranks : kRankSweep) {
        for (const auto scheme :
             {partition::Scheme::kRrp, partition::Scheme::kUcp,
              partition::Scheme::kLcp}) {
          ParallelOptions opt;
          opt.engine = engine;
          opt.ranks = ranks;
          opt.scheme = scheme;
          const ParallelResult result = generate(cfg, opt);
          const std::string where = "n=" + std::to_string(cfg.n) +
                                    " x=" + std::to_string(cfg.x) +
                                    " p=" + std::to_string(cfg.p) +
                                    " P=" + std::to_string(ranks) +
                                    " scheme=" + partition::to_string(scheme);
          EXPECT_EQ(normalized(result.edges), oracle) << where;
          for (const RankLoad& load : result.loads) {
            EXPECT_LE(load.retries, seq.retries) << where;
          }
          if (ranks == 1 || opt.engine == "mps") {
            EXPECT_EQ(merge_across_ranks(result.loads).retries, seq.retries)
                << where;
          }
        }
      }
    }
  }
}

// At x > 1 commfree derives its rows in node epochs and allgathers each
// epoch's rows (comm_free_engine.cpp). The specs above fit in one or two
// epochs; these are long enough for at least ten at every P > 1 under RRP
// and a fine block-cyclic partition, while UCP and LCP run one epoch. The
// output stays the oracle's bitwise. The rows_derived counter pins the
// point of the exchange: at P = 1 every row is derived exactly once, and
// at P = 4 under RRP at most 1.5 times; without the exchange each rank
// re-derives most of the prefix. No rank sends an envelope, and the
// exchange carries at most one copy of every row.
TEST(EngineEquivalence, CommFreeEpochsMatchOracleXk) {
  struct Layout {
    const char* name;
    partition::Scheme scheme;
    NodeId block;  ///< block-cyclic block size, 0 = the scheme itself
    bool epochs;   ///< derives in epochs at P > 1
  };
  constexpr Layout kLayouts[] = {
      {"rrp", partition::Scheme::kRrp, 0, true},
      {"block-cyclic-16", partition::Scheme::kRrp, 16, true},
      {"ucp", partition::Scheme::kUcp, 0, false},
      {"lcp", partition::Scheme::kLcp, 0, false},
  };
  for (const PaConfig& cfg :
       {PaConfig{.n = 80000, .x = 5, .p = 0.4, .seed = 17},
        PaConfig{.n = 80000, .x = 8, .p = 0.1, .seed = 19}}) {  // retries
    const baseline::GeneralResult seq = baseline::copy_model_general(cfg);
    const graph::EdgeList oracle = normalized(seq.edges);
    const Count rows = cfg.n - cfg.x - 1;  // row x is the bootstrap row
    for (const int ranks : kRankSweep) {
      for (const Layout& layout : kLayouts) {
        // At P = 1 every layout is the same one part.
        if (ranks == 1 && &layout != &kLayouts[0]) continue;
        const std::string where = "x=" + std::to_string(cfg.x) +
                                  " P=" + std::to_string(ranks) + " " +
                                  layout.name;
        obs::Config oc;
        oc.enabled = true;
        obs::Session session(ranks, oc);
        ParallelOptions opt;
        opt.engine = "commfree";
        opt.ranks = ranks;
        opt.scheme = layout.scheme;
        if (layout.block != 0) {
          opt.custom_partition =
              partition::make_block_cyclic(cfg.n, ranks, layout.block);
        }
        opt.obs = &session;
        const ParallelResult result = generate(cfg, opt);
        EXPECT_EQ(normalized(result.edges), oracle) << where;

        Count derived = 0;
        Count shared_bytes = 0;
        for (int r = 0; r < ranks; ++r) {
          const auto& counters = session.rank(r).metrics().counters();
          derived += counters.at("commfree.rows_derived").value();
          const Count epochs = counters.at("commfree.epochs").value();
          if (ranks > 1 && layout.epochs) {
            EXPECT_GE(epochs, 10U) << where;
          } else {
            EXPECT_EQ(epochs, 1U) << where;
          }
          const auto rank = static_cast<std::size_t>(r);
          EXPECT_EQ(result.comm_stats[rank].envelopes_sent, 0U) << where;
          shared_bytes += result.comm_stats[rank].collective_bytes;
          EXPECT_LE(result.loads[rank].retries, seq.retries) << where;
        }
        EXPECT_GE(derived, rows) << where;
        if (ranks == 1) {
          EXPECT_EQ(derived, rows) << where;
          EXPECT_EQ(merge_across_ranks(result.loads).retries, seq.retries)
              << where;
        }
        const double per_row =
            static_cast<double>(derived) / static_cast<double>(rows);
        if (ranks == 4 && layout.block == 0 && layout.epochs) {
          EXPECT_LE(per_row, 1.5) << where;
        }
        EXPECT_LE(shared_bytes, sizeof(std::uint32_t) * cfg.x * cfg.n)
            << where;
      }
    }
  }
}

TEST(EngineEquivalence, CommFreeRunsWithZeroMessageVolume) {
  const PaConfig cfg = oracle_config();

  ParallelOptions opt;
  opt.engine = "commfree";
  opt.ranks = 7;
  const ParallelResult result = generate(cfg, opt);
  ASSERT_EQ(result.loads.size(), 7U);
  for (const RankLoad& load : result.loads) {
    EXPECT_EQ(load.requests_sent, 0U);
    EXPECT_EQ(load.requests_received, 0U);
    EXPECT_EQ(load.resolved_sent, 0U);
    EXPECT_EQ(load.resolved_received, 0U);
    EXPECT_EQ(load.queued, 0U);
    EXPECT_EQ(load.max_queue_depth, 0U);
  }
  EXPECT_EQ(merge_across_ranks(result.loads).total_messages(), 0U);

  // Same spec through mps for contrast: the protocol *does* move messages.
  ParallelOptions mps_opt;
  mps_opt.ranks = 7;
  const ParallelResult via_mps = generate(cfg, mps_opt);
  EXPECT_GT(merge_across_ranks(via_mps.loads).total_messages(), 0U);
}

TEST(EngineEquivalence, CommFreeDegreeDistributionIsPowerLaw) {
  PaConfig cfg;
  cfg.n = 50000;
  cfg.x = 4;
  cfg.p = 0.5;
  cfg.seed = 13;

  ParallelOptions opt;
  opt.engine = "commfree";
  opt.ranks = 4;
  const ParallelResult result = generate(cfg, opt);
  const std::vector<Count> deg = graph::degree_sequence(result.edges, cfg.n);
  const analysis::PowerLawFit fit = analysis::fit_gamma_mle(deg, 4);
  // Preferential attachment's gamma = 3 (paper Fig. 3); MLE on a finite
  // sample lands near it.
  EXPECT_GT(fit.gamma, 2.5);
  EXPECT_LT(fit.gamma, 3.5);
}

TEST(EngineCapabilities, DeclaredMatrixMatchesTheBackends) {
  auto& reg = EngineRegistry::instance();
  const EngineCaps mps = reg.require("mps").capabilities();
  EXPECT_TRUE(mps.checkpointing);
  EXPECT_TRUE(mps.fault_tolerance);
  EXPECT_TRUE(mps.multi_rank);

  const EngineCaps commfree = reg.require("commfree").capabilities();
  EXPECT_FALSE(commfree.checkpointing);
  EXPECT_FALSE(commfree.fault_tolerance);
  EXPECT_FALSE(commfree.delivery_hook);
  EXPECT_TRUE(commfree.multi_rank);

  for (const char* seq : {"seq-copy", "seq-bb"}) {
    EXPECT_FALSE(reg.require(seq).capabilities().multi_rank) << seq;
  }
}

TEST(EngineCapabilities, GenerateRejectsUnsupportedOptionsLoudly) {
  PaConfig cfg;
  cfg.n = 100;
  cfg.x = 1;
  cfg.seed = 1;

  {
    // No checkpoint support: a checkpoint_dir must be rejected with a clear
    // error, never silently ignored.
    ParallelOptions opt;
    opt.engine = "commfree";
    opt.ranks = 2;
    opt.checkpoint_dir = "/tmp/does-not-matter";
    try {
      (void)generate(cfg, opt);
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("commfree"), std::string::npos);
      EXPECT_NE(what.find("checkpoint"), std::string::npos);
    }
  }
  {
    ParallelOptions opt;
    opt.engine = "commfree";
    opt.resume = true;
    EXPECT_THROW((void)generate(cfg, opt), CheckError);
  }
  {
    ParallelOptions opt;
    opt.engine = "commfree";
    opt.transport.reliable = true;
    EXPECT_THROW((void)generate(cfg, opt), CheckError);
  }
  {
    ParallelOptions opt;
    opt.engine = "seq-copy";
    opt.ranks = 2;
    try {
      (void)generate(cfg, opt);
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("single-rank"), std::string::npos);
    }
  }
  {
    ParallelOptions opt;
    opt.engine = "no-such-engine";
    EXPECT_THROW((void)generate(cfg, opt), CheckError);
  }
}

// A spec whose tables cannot be addressed is rejected before anything is
// allocated, with a CheckError naming n and x: n * x past 2^64 for every
// engine (each sizes a table by it, and a wrapped size indexes past the
// table), and n past the widest mps F word's parked bit for mps.
TEST(EngineCapabilities, GenerateRejectsSpecsPastTheirTables) {
  const NodeId wrapping_n = (NodeId{1} << 62) + 2;  // n * 4 wraps to 8
  for (const Engine* engine : EngineRegistry::instance().engines()) {
    const PaConfig cfg{.n = wrapping_n, .x = 4, .p = 0.5, .seed = 1};
    ParallelOptions opt;
    opt.engine = std::string(engine->name());
    opt.ranks = 1;
    try {
      (void)generate(cfg, opt);
      ADD_FAILURE() << "expected CheckError: engine=" << engine->name();
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("n * x overflows"), std::string::npos) << what;
      EXPECT_NE(what.find("n = 4611686018427387906"), std::string::npos)
          << what;
      EXPECT_NE(what.find("x = 4"), std::string::npos) << what;
    }
  }
  const PaConfig cfg{.n = (NodeId{1} << 63) + 1, .x = 1, .p = 0.5, .seed = 1};
  ParallelOptions opt;
  opt.engine = "mps";
  opt.ranks = 2;
  try {
    (void)generate(cfg, opt);
    ADD_FAILURE() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'mps' supports n <= 9223372036854775808"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("n = 9223372036854775809"), std::string::npos)
        << what;
  }
}

// A zero node_batch or buffer_capacity is rejected for every engine, named,
// before dispatch: mps divides by node_batch once per owned node.
TEST(EngineCapabilities, GenerateRejectsZeroBatchAndBufferSizes) {
  for (const Engine* engine : EngineRegistry::instance().engines()) {
    for (const bool zero_batch : {true, false}) {
      const std::string option = zero_batch ? "node_batch" : "buffer_capacity";
      PaConfig cfg;
      cfg.n = 100;
      cfg.x = 1;
      cfg.seed = 1;
      ParallelOptions opt;
      opt.engine = std::string(engine->name());
      opt.ranks = 1;  // every engine runs single-rank
      (zero_batch ? opt.node_batch : opt.buffer_capacity) = 0;
      try {
        (void)generate(cfg, opt);
        ADD_FAILURE() << "expected CheckError: engine=" << engine->name()
                      << " " << option << " = 0";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
            << "engine=" << engine->name() << ": " << e.what();
      }
    }
  }
}

// p is a probability for every engine, NaN included; a p outside [0, 1]
// must not quietly yield a star or some other graph.
TEST(EngineCapabilities, GenerateRejectsPOutsideUnitInterval) {
  for (const Engine* engine : EngineRegistry::instance().engines()) {
    for (const double p :
         {-0.5, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
      PaConfig cfg;
      cfg.n = 100;
      cfg.x = 1;
      cfg.p = p;
      cfg.seed = 1;
      ParallelOptions opt;
      opt.engine = std::string(engine->name());
      opt.ranks = 1;  // every engine runs single-rank
      try {
        (void)generate(cfg, opt);
        ADD_FAILURE() << "expected CheckError: engine=" << engine->name()
                      << " p=" << p;
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("p must be in [0, 1]"),
                  std::string::npos)
            << "engine=" << engine->name() << " p=" << p << ": " << e.what();
      }
    }
  }
}

// A run cancelled before launch throws Cancelled for every engine and
// leaves the store that the same spec sealed earlier intact: the cancel
// check precedes the store tap, whose writer truncates every shard.
TEST(EngineCapabilities, CancelBeforeLaunchThrowsForEveryEngine) {
  const PaConfig cfg{.n = 20000, .x = 1, .p = 0.5, .seed = 3};
  for (const Engine* engine : EngineRegistry::instance().engines()) {
    const std::string name(engine->name());
    ParallelOptions opt;
    opt.engine = name;
    opt.ranks = engine->capabilities().multi_rank ? 2 : 1;
    opt.gather_edges = false;
    opt.store_dir = ::testing::TempDir() + "pagen_cancel_" + name;
    std::filesystem::remove_all(opt.store_dir);
    (void)generate(cfg, opt);
    ASSERT_NO_THROW(store::ShardedGraphView(opt.store_dir).verify()) << name;

    opt.cancel_requested = [] { return true; };
    EXPECT_THROW((void)generate(cfg, opt), Cancelled) << name;
    const store::ShardedGraphView view(opt.store_dir);
    EXPECT_NO_THROW(view.verify()) << name;
    EXPECT_EQ(view.manifest().total_edges(), cfg.n - 1) << name;
    std::filesystem::remove_all(opt.store_dir);
  }
}

// A cancel that fires mid-run at x > 1 and P = 4: the rank that sees it
// throws Cancelled while its peers wait in an epoch's allgather or derive
// toward the next one. The rendezvous is poisoned, so nobody hangs, and
// the launch rethrows the root cause, never the peers' WorldAborted.
TEST(EngineCapabilities, CancelMidRunThrowsCancelledFromTheEpochExchange) {
  const PaConfig cfg{.n = 200000, .x = 6, .p = 0.5, .seed = 23};
  ParallelOptions opt;
  opt.engine = "commfree";
  opt.ranks = 4;
  opt.node_batch = 256;
  opt.gather_edges = false;
  std::atomic<Count> streamed{0};
  opt.edge_batch_sink = [&](Rank, std::span<const graph::Edge> batch) {
    streamed += batch.size();
  };
  std::atomic<int> polls{0};
  // Each rank polls once per 256 own nodes, ~780 times in a whole run.
  opt.cancel_requested = [&polls] { return ++polls > 200; };
  EXPECT_THROW((void)generate(cfg, opt), Cancelled);
  EXPECT_GT(streamed.load(), 0U);
  EXPECT_LT(streamed.load(), cfg.n * cfg.x);
}

TEST(EngineCapabilities, SupportedOptionShapesStillRun) {
  PaConfig cfg;
  cfg.n = 400;
  cfg.x = 1;
  cfg.seed = 9;

  // Single-rank sequential engines produce the x = 1 gather shape.
  for (const char* name : {"seq-copy", "seq-bb"}) {
    ParallelOptions opt;
    opt.engine = name;
    opt.ranks = 1;
    const ParallelResult result = generate(cfg, opt);
    EXPECT_EQ(result.total_edges, cfg.n - 1) << name;
    ASSERT_EQ(result.targets.size(), cfg.n) << name;
    EXPECT_EQ(result.targets[1], 0U) << name;
    ASSERT_EQ(result.loads.size(), 1U) << name;
    EXPECT_EQ(result.loads[0].total_messages(), 0U) << name;
  }

  // commfree honors the streaming sinks and shard surface.
  std::atomic<Count> streamed{0};
  ParallelOptions opt;
  opt.engine = "commfree";
  opt.ranks = 3;
  opt.keep_shards = true;
  opt.edge_batch_sink = [&](Rank, std::span<const graph::Edge> batch) {
    streamed += batch.size();
  };
  const ParallelResult result = generate(cfg, opt);
  EXPECT_EQ(streamed.load(), result.total_edges);
  ASSERT_EQ(result.shards.size(), 3U);
  Count sharded = 0;
  for (const auto& shard : result.shards) sharded += shard.size();
  EXPECT_EQ(sharded, result.total_edges);
}

}  // namespace
}  // namespace pagen::core
