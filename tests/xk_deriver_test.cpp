// The commfree engine's x > 1 row table at both entry widths: XkDeriver
// derives every row of baseline::copy_model_general with u32 and with u64
// entries, in RAM and spilled under a one-page budget, rows it reads out
// and installs for the epoch exchange rebuild the same table, and the rule
// that picks the width (row_entries_fit_u32) switches exactly at n = 2^32.
// The engine only ever builds the width the rule picks, so this is the one
// place that runs the other one.
#include "core/engine/xk_deriver.h"

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/copy_model_seq.h"
#include "util/error.h"

namespace pagen::core {
namespace {

// The specs of EngineEquivalence.CommFreeBitwiseMatchesOracleXk.
const PaConfig kSpecs[] = {
    {.n = 3000, .x = 5, .p = 0.4, .seed = 11},  // direct + copy
    {.n = 3000, .x = 5, .p = 0.0, .seed = 11},  // copy-only
    {.n = 200, .x = 8, .p = 0.2, .seed = 5}};   // heavy retries

template <typename Entry>
class XkDeriverWidth : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pagen_xk_deriver_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             "_" + std::to_string(sizeof(Entry))))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Resolves every row in node order, so each is derived exactly once,
  /// and compares it with the oracle's; the retries must be the oracle's.
  static void expect_oracle_rows(const std::string& spill_path,
                                 std::uint64_t budget) {
    for (const PaConfig& cfg : kSpecs) {
      const baseline::GeneralResult seq = baseline::copy_model_general(cfg);
      XkDeriver<Entry> derive(cfg, spill_path, budget);
      for (NodeId t = cfg.x; t < cfg.n; ++t) {
        derive.resolve(t);
        for (NodeId e = 0; e < cfg.x; ++e) {
          ASSERT_EQ(derive.at(t, e), seq.targets[t * cfg.x + e])
              << "n=" << cfg.n << " x=" << cfg.x << " p=" << cfg.p
              << " row " << t << " slot " << e;
        }
      }
      EXPECT_EQ(derive.retries(), seq.retries)
          << "n=" << cfg.n << " x=" << cfg.x << " p=" << cfg.p;
    }
  }

  std::string dir_;
};

using Widths = ::testing::Types<std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(XkDeriverWidth, Widths);

TYPED_TEST(XkDeriverWidth, RowsMatchTheOracleInRam) {
  TestFixture::expect_oracle_rows("", 0);
}

TYPED_TEST(XkDeriverWidth, RowsMatchTheOracleSpilledUnderOnePage) {
  // A budget below one page keeps one page: every page switch evicts.
  TestFixture::expect_oracle_rows(this->dir_ + "/rows.spill", 1);
}

// The epoch exchange's two operations (comm_free_engine.cpp): rows read
// out of one deriver and installed into another rebuild the oracle's
// table without deriving anything, a row the receiver already derived is
// checked against the one it receives, and a mismatch is refused.
TYPED_TEST(XkDeriverWidth, InstalledRowsMatchTheOracleAndAMismatchIsRefused) {
  const PaConfig& cfg = kSpecs[0];
  const baseline::GeneralResult seq = baseline::copy_model_general(cfg);
  const std::size_t row_bytes = cfg.x * sizeof(TypeParam);
  XkDeriver<TypeParam> sender(cfg, "", 0);
  std::vector<std::byte> rows;
  for (NodeId t = cfg.x; t < cfg.n; ++t) {
    sender.resolve(t);
    sender.append_row(t, rows);
  }
  EXPECT_EQ(sender.rows_derived(), cfg.n - cfg.x - 1);  // row x: bootstrap
  ASSERT_EQ(rows.size(), (cfg.n - cfg.x) * row_bytes);

  XkDeriver<TypeParam> receiver(cfg, "", 0);
  const NodeId mid = cfg.n / 2;
  receiver.resolve(mid);  // mid and its closure, derived locally
  const Count derived = receiver.rows_derived();
  for (NodeId t = cfg.x; t < cfg.n; ++t) {
    receiver.install_row(t, rows.data() + (t - cfg.x) * row_bytes);
  }
  EXPECT_EQ(receiver.rows_derived(), derived);
  for (NodeId t = cfg.x; t < cfg.n; ++t) {
    for (NodeId e = 0; e < cfg.x; ++e) {
      ASSERT_EQ(receiver.at(t, e), seq.targets[t * cfg.x + e])
          << "row " << t << " slot " << e;
    }
  }

  std::vector<std::byte> wrong(rows.begin() + (mid - cfg.x) * row_bytes,
                               rows.begin() + (mid - cfg.x + 1) * row_bytes);
  wrong[0] ^= std::byte{1};
  EXPECT_THROW(receiver.install_row(mid, wrong.data()), CheckError);
}

TEST(XkDeriverWidthRule, U32UpToTwoToThe32MinusOneNodes) {
  constexpr NodeId kTwoTo32 = NodeId{1} << 32;
  static_assert(row_entries_fit_u32(kTwoTo32 - 1));
  static_assert(!row_entries_fit_u32(kTwoTo32));
  EXPECT_TRUE(row_entries_fit_u32(1'000'000'000));  // the paper's largest n
  EXPECT_TRUE(row_entries_fit_u32(kTwoTo32 - 1));
  EXPECT_FALSE(row_entries_fit_u32(kTwoTo32));
}

TEST(XkDeriverWidthRule, U32TableRefusesNodeIdsItCannotHold) {
  // n = 2^32 has node id 2^32 - 1, the u32 nil. The spilled table is
  // sparse, so even without the check nothing of size n would be allocated.
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "pagen_xk_deriver_refuses")
                              .string();
  std::filesystem::create_directories(dir);
  const PaConfig cfg{.n = NodeId{1} << 32, .x = 2, .p = 0.5, .seed = 1};
  EXPECT_THROW(XkDeriver<std::uint32_t>(cfg, dir + "/rows.spill", 1),
               CheckError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pagen::core
