// Golden-output pinning for the mps engine's rank (MpsRank in
// core/engine/mps_engine.cpp).
//
// The hashes below were recorded from the hand-rolled generators that
// preceded the shared rank (parallel_pa.cpp / parallel_pa_general.cpp at
// commit fdba5f5) and assert that the one rank class produces
// bitwise-identical output for every pinned configuration: x = 1 across P
// in {1, 2, 4, 7}, seeds, and UCP/LCP/RRP, fault-free and under a fault
// plan with crash and checkpoint recovery, plus x > 1 at P = 1.
//
// The rank commits a node's slots in order (core/engine/mps_engine.cpp), so
// the edge set is a pure function of (n, x, p, seed): independent of rank
// count, scheme, message timing and faults. The x > 1 rows at P > 1 reuse
// the hashes of their P = 1 rows, and the multi-rank matrix below compares
// every run with baseline::copy_model_general. At x = 1 the targets array
// pins bitwise as well.
//
// Regenerating (only legitimate after an intentional output change):
//   PAGEN_GOLDEN_DUMP=1 ./genrt_golden_test
// prints the replacement table rows.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/copy_model_seq.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "mps/fault.h"
#include "partition/partition.h"
#include "util/hash.h"
#include "util/types.h"

namespace pagen {
namespace {

struct GoldenCase {
  NodeId n;
  std::uint64_t x;
  double p;
  std::uint64_t seed;
  int ranks;
  partition::Scheme scheme;
  const char* fault;     ///< FaultPlan spec; "" = fault-free
  bool checkpoint;       ///< give the run a checkpoint dir (crash recovery)
  std::uint64_t targets_hash;  ///< 0 for x > 1 (no targets row)
  std::uint64_t edges_hash;
};

constexpr partition::Scheme kUcp = partition::Scheme::kUcp;
constexpr partition::Scheme kLcp = partition::Scheme::kLcp;
constexpr partition::Scheme kRrp = partition::Scheme::kRrp;

// clang-format off
const GoldenCase kGolden[] = {
    // --- x = 1, fault-free: P x scheme x seed (targets are P/scheme
    // invariant; every row re-proves it against the same two hashes) ---
    {6000, 1, 0.5, 3,  1, kRrp, "", false, 0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    {6000, 1, 0.5, 3,  2, kUcp, "", false, 0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    {6000, 1, 0.5, 3,  2, kLcp, "", false, 0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    {6000, 1, 0.5, 3,  2, kRrp, "", false, 0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    {6000, 1, 0.5, 3,  4, kUcp, "", false, 0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    {6000, 1, 0.5, 3,  4, kLcp, "", false, 0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    {6000, 1, 0.5, 3,  4, kRrp, "", false, 0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    {6000, 1, 0.5, 3,  7, kUcp, "", false, 0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    {6000, 1, 0.5, 3,  7, kLcp, "", false, 0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    {6000, 1, 0.5, 3,  7, kRrp, "", false, 0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    {6000, 1, 0.8, 41, 4, kRrp, "", false, 0xb239256336b718a8ULL, 0x80b7351c53018d4cULL},
    {6000, 1, 0.8, 41, 7, kLcp, "", false, 0xb239256336b718a8ULL, 0x80b7351c53018d4cULL},
    {6000, 1, 0.2, 41, 7, kUcp, "", false, 0x2fe01dd2cffc3550ULL, 0xaf18fcecffdaf0fcULL},
    // --- x = 1 under transport chaos (drop/dup/reorder/stall): repaired
    // below the algorithm, so the same hashes must come out ---
    {6000, 1, 0.5, 3, 7, kRrp,
     "seed=11,drop=0.06,dup=0.05,reorder=0.08,stall=2@100:20", false,
     0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    // --- x = 1 crash + checkpoint recovery (PR 3 path): a scripted
    // mid-generation crash, relaunch and restore must also be invisible in
    // the output. Rank 3 of the first case always sends 99
    // <request> envelopes, one <done> and its 363 <resolved> answers in at
    // least 91 envelopes of 4; how the answers coalesce depends on timing,
    // so it sends at least 191 envelopes, and step 125 fires with a wide
    // margin, usually after the rank's first checkpoint ---
    {6000, 1, 0.5, 3, 7, kRrp, "seed=11,drop=0.03,crash=3@125", true,
     0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    {6000, 1, 0.5, 3, 4, kLcp, "seed=4,crash=0@150", true,
     0x6d309c247e909654ULL, 0xb8298caaf5abfd30ULL},
    // --- x > 1, P = 1 ---
    {3000, 2, 0.5, 17, 1, kRrp, "", false, 0, 0x9538bfc32748c9c7ULL},
    {3000, 4, 0.5, 17, 1, kRrp, "", false, 0, 0x07e805c7ce6b4f48ULL},
    {3000, 4, 0.3, 5,  1, kRrp, "", false, 0, 0x7185c2e0a591222aULL},
    // --- x > 1, P > 1: the P = 1 hashes, fault-free, under the x = 1
    // transport chaos, and after a crash with checkpoint recovery. Rank 0 of
    // the crash row sent 368-376 envelopes fault-free, so step 150 fires
    // with a wide margin ---
    {3000, 2, 0.5, 17, 4, kRrp, "", false, 0, 0x9538bfc32748c9c7ULL},
    {3000, 4, 0.5, 17, 7, kLcp, "", false, 0, 0x07e805c7ce6b4f48ULL},
    {3000, 4, 0.3, 5,  2, kUcp, "", false, 0, 0x7185c2e0a591222aULL},
    {3000, 4, 0.5, 17, 7, kRrp,
     "seed=11,drop=0.06,dup=0.05,reorder=0.08,stall=2@100:20", false,
     0, 0x07e805c7ce6b4f48ULL},
    {3000, 4, 0.5, 17, 4, kLcp, "seed=4,crash=0@150", true,
     0, 0x07e805c7ce6b4f48ULL},
    // --- heavy retry: x = 8 at p = 0.1 draws ~2,800 duplicate retries at
    // P = 1 (~400 per rank at P = 7), so the rank's table of retried slots
    // grows many times past its first capacity, and at P = 7 waiter queues
    // reach depth 9-13 ---
    {3000, 8, 0.1, 17, 1, kRrp, "", false, 0, 0x1835fca60e89f0ffULL},
    {3000, 8, 0.1, 17, 7, kRrp, "", false, 0, 0x1835fca60e89f0ffULL},
};
// clang-format on

std::string fresh_dir(std::size_t case_idx) {
  const std::string dir =
      ::testing::TempDir() + "pagen_golden_" + std::to_string(case_idx);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::ParallelResult run_case(const GoldenCase& c, std::size_t idx) {
  const PaConfig cfg{.n = c.n, .x = c.x, .p = c.p, .seed = c.seed};
  core::ParallelOptions opt;
  opt.ranks = c.ranks;
  opt.scheme = c.scheme;
  if (c.fault[0] != '\0') {
    opt.transport.fault_plan = mps::FaultPlan::parse(c.fault);
    // Small buffers => enough envelopes for the fault script to chew on and
    // for scripted crash steps to land mid-generation.
    opt.buffer_capacity = 4;
    opt.node_batch = 128;
    opt.checkpoint_every = 256;
  }
  if (c.checkpoint) opt.checkpoint_dir = fresh_dir(idx);
  return core::generate(cfg, opt);  // engine defaults to mps
}

TEST(GenrtGolden, OutputsMatchPreRefactorHashes) {
  const bool dump = std::getenv("PAGEN_GOLDEN_DUMP") != nullptr;
  for (std::size_t i = 0; i < std::size(kGolden); ++i) {
    const GoldenCase& c = kGolden[i];
    const auto result = run_case(c, i);
    const std::uint64_t th = c.x == 1 ? fnv1a_words(result.targets) : 0;
    const std::uint64_t eh = graph::hash_edges(result.edges);
    if (dump) {
      std::cout << "case " << i << ": targets=0x" << std::hex << th
                << "ULL edges=0x" << eh << "ULL" << std::dec << '\n';
      continue;
    }
    EXPECT_EQ(th, c.targets_hash) << "targets hash drifted, case " << i;
    EXPECT_EQ(eh, c.edges_hash) << "edge hash drifted, case " << i;
    if (c.checkpoint) {
      EXPECT_GE(result.respawns, 1u) << "case " << i
                                     << ": the scripted crash did not fire";
    }
  }
}

// The multi-rank general algorithm equals the sequential model for every P
// and scheme the x = 1 matrix covers, fault-free and under the PR 3
// crash-recovery path, and keeps its structural invariants: exact edge
// count, no self-loops, no parallel edges, one component. Rank 1 sent at
// least 220 envelopes fault-free in every cell (P = 7 LCP is the smallest;
// how its answers coalesce depends on timing), so the scripted crash at its
// 100th send step fires with a wide margin.
TEST(GenrtGolden, GeneralAlgorithmInvariantsAcrossRanksAndSchemes) {
  const PaConfig cfg{.n = 2000, .x = 4, .p = 0.5, .seed = 17};
  graph::EdgeList oracle = baseline::copy_model_general(cfg).edges;
  graph::normalize(oracle);
  std::size_t idx = 100;  // checkpoint-dir namespace distinct from the table
  for (const int ranks : {2, 4, 7}) {
    for (const auto scheme : {kUcp, kLcp, kRrp}) {
      for (const bool crash : {false, true}) {
        core::ParallelOptions opt;
        opt.ranks = ranks;
        opt.scheme = scheme;
        if (crash) {
          opt.transport.fault_plan =
              mps::FaultPlan::parse("seed=8,crash=1@100");
          opt.buffer_capacity = 4;
          opt.node_batch = 128;
          opt.checkpoint_every = 256;
          opt.checkpoint_dir = fresh_dir(idx++);
        }
        const auto result = core::generate(cfg, opt);
        ASSERT_EQ(result.total_edges, expected_edge_count(cfg));
        EXPECT_EQ(graph::count_self_loops(result.edges), 0u);
        EXPECT_EQ(graph::count_duplicates(result.edges), 0u);
        EXPECT_EQ(graph::connected_components(result.edges, cfg.n), 1u);
        graph::EdgeList edges = result.edges;
        graph::normalize(edges);
        EXPECT_EQ(edges, oracle)
            << "P=" << ranks << " scheme=" << partition::to_string(scheme)
            << " crash=" << crash;
        if (crash) {
          EXPECT_GE(result.respawns, 1u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace pagen
