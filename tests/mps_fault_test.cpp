// Deterministic fault injection end to end: the FaultPlan grammar, the
// injector's pure decision function, exactly-once ordered delivery under
// transport chaos, and the generators' crash/checkpoint recovery — a fault
// run must produce the bitwise-identical edge list of a fault-free run
// (docs/robustness.md).
#include "mps/fault.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/copy_model_seq.h"
#include "core/checkpoint.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "mps/engine.h"
#include "partition/partition.h"
#include "util/error.h"

namespace pagen {
namespace {

using namespace std::chrono_literals;

TEST(FaultPlan, ParseRoundTripsThroughToString) {
  const auto plan = mps::FaultPlan::parse(
      "seed=7,drop=0.02,dup=0.01,reorder=0.05,crash=3@1000,stall=1@50:20");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.drop, 0.02);
  EXPECT_DOUBLE_EQ(plan.dup, 0.01);
  EXPECT_DOUBLE_EQ(plan.reorder, 0.05);
  EXPECT_EQ(plan.crash_rank, 3);
  EXPECT_EQ(plan.crash_step, 1000u);
  EXPECT_EQ(plan.stall_rank, 1);
  EXPECT_EQ(plan.stall_step, 50u);
  EXPECT_EQ(plan.stall_ms, 20u);
  EXPECT_TRUE(plan.active());
  EXPECT_TRUE(plan.has_crash());

  const auto again = mps::FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.to_string(), plan.to_string());

  EXPECT_FALSE(mps::FaultPlan{}.active());
  EXPECT_FALSE(mps::FaultPlan::parse("").active());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)mps::FaultPlan::parse("bogus=1"), CheckError);
  EXPECT_THROW((void)mps::FaultPlan::parse("drop"), CheckError);
  EXPECT_THROW((void)mps::FaultPlan::parse("drop=1.5"), CheckError);
  EXPECT_THROW((void)mps::FaultPlan::parse("drop=-0.1"), CheckError);
  EXPECT_THROW((void)mps::FaultPlan::parse("crash=3"), CheckError);
  EXPECT_THROW((void)mps::FaultPlan::parse("stall=1@5"), CheckError);
  EXPECT_THROW((void)mps::FaultPlan::parse("drop=0.6,dup=0.6"), CheckError);
}

TEST(FaultInjector, DecisionIsAPureFunctionOfItsInputs) {
  const auto plan = mps::FaultPlan::parse("seed=42,drop=0.2,dup=0.2,reorder=0.2");
  mps::FaultInjector a(plan, 8);
  mps::FaultInjector b(plan, 8);
  int non_deliver = 0;
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    const auto action = a.decide(1, 2, 1, seq, 0);
    EXPECT_EQ(action, b.decide(1, 2, 1, seq, 0)) << "seq " << seq;
    // A retransmission (attempt 1) of the same envelope draws independently.
    (void)a.decide(1, 2, 1, seq, 1);
    if (action != mps::FaultAction::kDeliver) ++non_deliver;
  }
  // ~60% of transmissions should be faulted; allow a generous band.
  EXPECT_GT(non_deliver, 200);
  EXPECT_LT(non_deliver, 400);

  // A different seed must give a different schedule.
  const auto other = mps::FaultPlan::parse("seed=43,drop=0.2,dup=0.2,reorder=0.2");
  mps::FaultInjector c(other, 8);
  int differing = 0;
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    if (a.decide(1, 2, 1, seq, 0) != c.decide(1, 2, 1, seq, 0)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultTransport, ExactlyOnceInOrderUnderDropDupReorder) {
  constexpr int kRanks = 8;
  mps::WorldOptions o;
  o.fault_plan = mps::FaultPlan::parse("seed=5,drop=0.1,dup=0.1,reorder=0.15");
  o.reliable = true;
  o.rto_base_ms = 10;
  mps::run_ranks(kRanks, o, [](mps::Comm& comm) {
    constexpr std::uint64_t kPerPeer = 100;
    for (Rank dst = 0; dst < kRanks; ++dst) {
      if (dst == comm.rank()) continue;
      for (std::uint64_t i = 0; i < kPerPeer; ++i) {
        comm.send_item<std::uint64_t>(dst, 1, i);
      }
    }
    constexpr std::size_t kExpect = kPerPeer * (kRanks - 1);
    std::vector<mps::Envelope> in;
    while (in.size() < kExpect) {
      (void)comm.poll_wait(in, 100ms);
    }
    ASSERT_EQ(in.size(), kExpect);
    // Per source flow: sequence numbers and payloads are exactly 0..99 in
    // order — no loss, no duplicate, no overtaking survived the repair.
    std::map<Rank, std::uint64_t> next;
    for (const mps::Envelope& env : in) {
      EXPECT_EQ(env.seq, next[env.src]);
      EXPECT_EQ(mps::unpack<std::uint64_t>(env.payload)[0], next[env.src]);
      ++next[env.src];
    }
    for (const auto& [src, n] : next) EXPECT_EQ(n, kPerPeer) << "src " << src;
    comm.barrier();  // serviced: keeps retransmitting for slower peers
  });
}

// ---------------------------------------------------------------------------
// Generator-level acceptance: fault plans must be invisible in the output.

core::ParallelOptions fault_test_options() {
  core::ParallelOptions opt;
  opt.ranks = 8;
  opt.scheme = partition::Scheme::kRrp;
  // Small buffers => many envelopes => the fault script gets real traffic
  // to chew on and scripted crash steps land mid-generation.
  opt.buffer_capacity = 4;
  opt.node_batch = 128;
  opt.checkpoint_every = 256;
  return opt;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pagen_fault_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FaultGenerator, X1EdgeListUnaffectedByDropDupReorderStall) {
  const PaConfig cfg{.n = 12000, .x = 1, .p = 0.5, .seed = 3};
  const auto reference = baseline::copy_model_targets(cfg);

  core::ParallelOptions opt = fault_test_options();
  opt.transport.fault_plan =
      mps::FaultPlan::parse("seed=11,drop=0.06,dup=0.05,reorder=0.08,stall=2@100:20");
  const auto faulty = core::generate(cfg, opt);

  // Acceptance (a): bitwise-identical targets — the faults were repaired
  // below the algorithm, which never saw them.
  EXPECT_EQ(faulty.targets, reference);
  EXPECT_EQ(faulty.total_edges, cfg.n - 1);
  EXPECT_EQ(faulty.respawns, 0u);

  // The transport did inject (and repair) real faults.
  mps::CommStats world;
  for (const auto& s : faulty.comm_stats) world += s;
  EXPECT_GT(world.injected_drops, 0u);
  EXPECT_GT(world.injected_dups, 0u);
  EXPECT_GT(world.retransmits, 0u);
  EXPECT_GT(world.duplicates_dropped, 0u);
}

TEST(FaultGenerator, X1FaultRunsAreDeterministicGivenTheSeed) {
  const PaConfig cfg{.n = 8000, .x = 1, .p = 0.5, .seed = 19};
  core::ParallelOptions opt = fault_test_options();
  opt.transport.fault_plan =
      mps::FaultPlan::parse("seed=23,drop=0.05,dup=0.05,reorder=0.05");

  const auto first = core::generate(cfg, opt);
  const auto second = core::generate(cfg, opt);
  // Acceptance (c): with the same fault seed the output is identical (the
  // injection schedule is pure, so this holds bitwise for the edge set).
  EXPECT_EQ(first.targets, second.targets);
  EXPECT_EQ(first.targets, baseline::copy_model_targets(cfg));
}

TEST(FaultGenerator, X1CrashRecoversFromCheckpointBitwiseIdentical) {
  const PaConfig cfg{.n = 12000, .x = 1, .p = 0.5, .seed = 3};
  const auto reference = baseline::copy_model_targets(cfg);

  core::ParallelOptions opt = fault_test_options();
  opt.transport.fault_plan =
      mps::FaultPlan::parse("seed=11,drop=0.03,crash=3@200");
  opt.checkpoint_dir = fresh_dir("x1_crash");
  const auto result = core::generate(cfg, opt);

  // Acceptance (b): the scripted mid-generation crash was absorbed by a
  // relaunch + checkpoint restore, and the output is still bitwise right.
  EXPECT_GE(result.respawns, 1u);
  EXPECT_EQ(result.targets, reference);
  EXPECT_EQ(result.total_edges, cfg.n - 1);
  // The crashed rank really did write a checkpoint for the relaunch.
  EXPECT_TRUE(std::filesystem::exists(core::checkpoint_path(opt.checkpoint_dir, 3)));
}

TEST(FaultGenerator, X1CrashWithoutCheckpointDirReplaysFromScratch) {
  const PaConfig cfg{.n = 8000, .x = 1, .p = 0.5, .seed = 5};
  core::ParallelOptions opt = fault_test_options();
  opt.transport.fault_plan = mps::FaultPlan::parse("seed=2,crash=5@160");
  const auto result = core::generate(cfg, opt);
  EXPECT_GE(result.respawns, 1u);
  EXPECT_EQ(result.targets, baseline::copy_model_targets(cfg));
}

TEST(FaultGenerator, X1CrashOfTheTerminationRootRecovers) {
  // Rank 0 is the done-counting root; its death must abort the world like
  // any other rank's, and the relaunch counts every rank's done afresh.
  const PaConfig cfg{.n = 8000, .x = 1, .p = 0.5, .seed = 7};
  core::ParallelOptions opt = fault_test_options();
  opt.transport.fault_plan = mps::FaultPlan::parse("seed=4,crash=0@150");
  opt.checkpoint_dir = fresh_dir("x1_crash_root");
  const auto result = core::generate(cfg, opt);
  EXPECT_GE(result.respawns, 1u);
  EXPECT_EQ(result.targets, baseline::copy_model_targets(cfg));
}

TEST(FaultGenerator, X1CrashPlusChaosRecovers) {
  const PaConfig cfg{.n = 8000, .x = 1, .p = 0.5, .seed = 13};
  core::ParallelOptions opt = fault_test_options();
  opt.transport.fault_plan =
      mps::FaultPlan::parse("seed=13,drop=0.04,dup=0.04,reorder=0.06,crash=2@170");
  opt.checkpoint_dir = fresh_dir("x1_crash_chaos");
  const auto result = core::generate(cfg, opt);
  EXPECT_GE(result.respawns, 1u);
  EXPECT_EQ(result.targets, baseline::copy_model_targets(cfg));
}

TEST(FaultGenerator, XkStructureSurvivesDropDupReorder) {
  const PaConfig cfg{.n = 4000, .x = 4, .p = 0.5, .seed = 17};
  core::ParallelOptions opt = fault_test_options();
  opt.transport.fault_plan =
      mps::FaultPlan::parse("seed=6,drop=0.05,dup=0.05,reorder=0.08");
  const auto result = core::generate(cfg, opt);
  EXPECT_EQ(result.total_edges, expected_edge_count(cfg));
  EXPECT_EQ(result.edges.size(), expected_edge_count(cfg));
  EXPECT_EQ(graph::count_self_loops(result.edges), 0u);
  EXPECT_EQ(graph::count_duplicates(result.edges), 0u);
  EXPECT_EQ(graph::connected_components(result.edges, cfg.n), 1u);
}

TEST(FaultGenerator, XkCrashRecoversFromCheckpoint) {
  const PaConfig cfg{.n = 4000, .x = 4, .p = 0.5, .seed = 17};
  core::ParallelOptions opt = fault_test_options();
  opt.transport.fault_plan = mps::FaultPlan::parse("seed=8,crash=3@200");
  opt.checkpoint_dir = fresh_dir("xk_crash");
  const auto result = core::generate(cfg, opt);
  EXPECT_GE(result.respawns, 1u);
  EXPECT_EQ(result.total_edges, expected_edge_count(cfg));
  EXPECT_EQ(graph::count_self_loops(result.edges), 0u);
  EXPECT_EQ(graph::count_duplicates(result.edges), 0u);
  EXPECT_EQ(graph::connected_components(result.edges, cfg.n), 1u);
  graph::EdgeList edges = result.edges;
  graph::EdgeList oracle = baseline::copy_model_general(cfg).edges;
  graph::normalize(edges);
  graph::normalize(oracle);
  EXPECT_EQ(edges, oracle);
}

// Retry state is allocated at a rank's first duplicate retry: x = 1 never
// retries, so its checkpoints carry no extras, and an x > 1 checkpoint holds
// either none or one per slot.
TEST(FaultGenerator, CheckpointExtrasEmptyUntilTheFirstRetry) {
  for (const std::uint64_t x : {1, 3}) {
    for (const int ranks : {1, 3}) {
      SCOPED_TRACE("x=" + std::to_string(x) + " P=" + std::to_string(ranks));
      const PaConfig cfg{.n = 3000, .x = x, .p = 0.5, .seed = 21};
      core::ParallelOptions opt;
      opt.ranks = ranks;
      opt.checkpoint_every = 64;
      opt.checkpoint_dir = fresh_dir("extras_x" + std::to_string(x) + "_P" +
                                     std::to_string(ranks));
      (void)core::generate(cfg, opt);

      const auto part = partition::make_partition(opt.scheme, cfg.n, ranks);
      for (Rank r = 0; r < ranks; ++r) {
        core::RankCheckpoint ck;
        ASSERT_TRUE(core::load_checkpoint(opt.checkpoint_dir, r, ck)) << r;
        EXPECT_EQ(ck.f.size(), part->part_size(r) * x) << r;
        if (x == 1) {
          EXPECT_TRUE(ck.attempts.empty()) << r;
          EXPECT_TRUE(ck.locked_copy.empty()) << r;
        } else {
          EXPECT_TRUE(ck.attempts.empty() || ck.attempts.size() == ck.f.size())
              << r;
          EXPECT_TRUE(ck.locked_copy.empty() ||
                      ck.locked_copy.size() == ck.f.size())
              << r;
        }
      }
    }
  }
}

// A resume pins the retry-state restore bitwise: a run that dies halfway
// leaves checkpoints holding attempt counters, and the resumed run must
// equal the sequential model, at one rank and at three. Every value a
// halfway checkpoint holds is already the sequential model's F for its
// slot: a candidate parked behind its row's earlier slots never reaches
// disk.
TEST(FaultGenerator, XkResumeMatchesTheSequentialModel) {
  const PaConfig cfg{.n = 3000, .x = 8, .p = 0.5, .seed = 29};
  const baseline::GeneralResult seq = baseline::copy_model_general(cfg);
  graph::EdgeList oracle = seq.edges;
  graph::normalize(oracle);
  for (const int ranks : {1, 3}) {
    SCOPED_TRACE("P=" + std::to_string(ranks));
    core::ParallelOptions opt;
    opt.ranks = ranks;
    opt.node_batch = 64;
    opt.checkpoint_every = 64;
    opt.checkpoint_dir = fresh_dir("xk_resume_P" + std::to_string(ranks));
    const Count half = expected_edge_count(cfg) / 2;
    std::atomic<Count> seen{0};
    opt.edge_batch_sink = [&](Rank, std::span<const graph::Edge> es) {
      if ((seen += es.size()) >= half) {
        throw CheckError("sink failure halfway");
      }
    };
    EXPECT_THROW((void)core::generate(cfg, opt), CheckError);

    const auto part = partition::make_partition(opt.scheme, cfg.n, ranks);
    for (Rank r = 0; r < ranks; ++r) {
      core::RankCheckpoint ck;
      ASSERT_TRUE(core::load_checkpoint(opt.checkpoint_dir, r, ck)) << r;
      EXPECT_FALSE(ck.attempts.empty())
          << "no retry before rank " << r << "'s checkpoint";
      Count values = 0;
      Count wrong = 0;
      for (Count s = 0; s < ck.f.size(); ++s) {
        if (ck.f[s] == kNil) continue;
        const NodeId t = part->node_at(r, s / cfg.x);
        ++values;
        if (ck.f[s] != seq.targets[t * cfg.x + s % cfg.x]) ++wrong;
      }
      EXPECT_GT(values, 0u) << "rank " << r;
      EXPECT_EQ(wrong, 0u) << "rank " << r << ": values unlike the oracle's";
    }

    opt.edge_batch_sink = nullptr;
    opt.resume = true;
    const auto resumed = core::generate(cfg, opt);
    EXPECT_GT(resumed.restored_slots, 0u);
    graph::EdgeList edges = resumed.edges;
    graph::normalize(edges);
    EXPECT_EQ(edges, oracle);
  }
}

// A checkpoint restores only into the run that wrote it: resuming a
// finished p = 0.3 run at p = 0.7, or a UCP run under RRP, must refuse the
// files instead of returning the old run's graph.
TEST(FaultGenerator, ResumeRefusesAnotherPOrPartition) {
  const PaConfig cfg{.n = 4000, .x = 1, .p = 0.3, .seed = 31};
  const auto written = [&](const PaConfig& c, partition::Scheme scheme,
                           const std::string& name) {
    core::ParallelOptions opt;
    opt.ranks = 2;
    opt.scheme = scheme;
    opt.checkpoint_every = 16;
    opt.checkpoint_dir = fresh_dir(name);
    (void)core::generate(c, opt);
    opt.resume = true;
    return opt;
  };

  core::ParallelOptions resume_p =
      written(cfg, partition::Scheme::kRrp, "resume_other_p");
  PaConfig other_p = cfg;
  other_p.p = 0.7;
  EXPECT_THROW((void)core::generate(other_p, resume_p), CheckError);

  core::ParallelOptions resume_part =
      written(cfg, partition::Scheme::kUcp, "resume_other_partition");
  resume_part.scheme = partition::Scheme::kRrp;
  EXPECT_THROW((void)core::generate(cfg, resume_part), CheckError);

  // The matching resume still restores every slot.
  resume_part.scheme = partition::Scheme::kUcp;
  const auto same = core::generate(cfg, resume_part);
  EXPECT_EQ(same.restored_slots, cfg.n - 1);
  EXPECT_EQ(same.targets, baseline::copy_model_targets(cfg));
}

// A checkpoint directory reused across runs: the second run's crash
// relaunch restores every rank's file, so a file the first run left behind
// (another seed) must be gone by then. A fresh run removes its own rank's
// file before the start barrier; without that the relaunch refused the
// stale file as "checkpoint does not match this run's parameters".
TEST(FaultGenerator, CrashRelaunchIgnoresAnEarlierRunsCheckpoints) {
  core::ParallelOptions opt;
  opt.ranks = 4;
  opt.checkpoint_dir = fresh_dir("reused_dir");
  const PaConfig first{.n = 20000, .x = 3, .p = 0.5, .seed = 1};
  (void)core::generate(first, opt);
  for (Rank r = 0; r < opt.ranks; ++r) {
    const std::string path = core::checkpoint_path(opt.checkpoint_dir, r);
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
  }

  const PaConfig second{.n = 20000, .x = 3, .p = 0.5, .seed = 2};
  opt.transport.fault_plan = mps::FaultPlan::parse("seed=7,crash=2@10");
  const auto result = core::generate(second, opt);
  EXPECT_EQ(result.respawns, 1u);
  graph::EdgeList edges = result.edges;
  graph::EdgeList oracle = baseline::copy_model_general(second).edges;
  graph::normalize(edges);
  graph::normalize(oracle);
  EXPECT_EQ(edges, oracle);
}

TEST(FaultGenerator, CheckpointRoundTripsThroughDisk) {
  const std::string dir = fresh_dir("ckpt_io");
  core::RankCheckpoint ck;
  ck.n = 100;
  ck.x = 2;
  ck.seed = 9;
  ck.rank = 1;
  ck.nranks = 4;
  ck.f = {kNil, 0, 5, kNil, 17};
  ck.attempts = {0, 1, 2, 0, 7};
  ck.locked_copy = {0, 1, 0, 0, 1};
  core::save_checkpoint(dir, ck);

  core::RankCheckpoint loaded;
  ASSERT_TRUE(core::load_checkpoint(dir, 1, loaded));
  EXPECT_EQ(loaded.n, ck.n);
  EXPECT_EQ(loaded.x, ck.x);
  EXPECT_EQ(loaded.seed, ck.seed);
  EXPECT_EQ(loaded.nranks, ck.nranks);
  EXPECT_EQ(loaded.f, ck.f);
  EXPECT_EQ(loaded.attempts, ck.attempts);
  EXPECT_EQ(loaded.locked_copy, ck.locked_copy);

  core::RankCheckpoint missing;
  EXPECT_FALSE(core::load_checkpoint(dir, 2, missing));  // no such rank file
  // A file whose recorded rank disagrees with the requested one is corrupt.
  std::filesystem::copy_file(core::checkpoint_path(dir, 1),
                             core::checkpoint_path(dir, 3));
  EXPECT_THROW((void)core::load_checkpoint(dir, 3, missing), CheckError);
}

}  // namespace
}  // namespace pagen
