// The commfree engine's x > 1 row table at both entry widths: XkDeriver
// derives every row of baseline::copy_model_general with u32 and with u64
// entries, in RAM and spilled under a one-page budget, and the rule that
// picks the width (row_entries_fit_u32) switches exactly at n = 2^32.
// The engine only ever builds the width the rule picks, so this is the one
// place that runs the other one.
#include "core/engine/xk_deriver.h"

#include <cstdint>
#include <filesystem>
#include <string>

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
