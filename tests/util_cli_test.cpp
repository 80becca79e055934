#include "util/cli.h"

#include <stdexcept>

#include <gtest/gtest.h>

#include "core/options.h"
#include "core/robustness_cli.h"

namespace pagen {
namespace {

Cli make(std::vector<const char*> args, std::vector<std::string> allowed) {
  args.insert(args.begin(), "prog");
  return Cli(static_cast<int>(args.size()), args.data(), std::move(allowed));
}

/// A Cli holding the one flag --key=value.
Cli one(const std::string& key, const std::string& value) {
  const std::string arg = "--" + key + "=" + value;
  return make({arg.c_str()}, {key});
}

TEST(Cli, ParsesKeyValues) {
  const Cli cli = make({"--n=1000", "--p=0.25", "--scheme=RRP"},
                       {"n", "p", "scheme"});
  EXPECT_EQ(cli.get_u64("n", 0), 1000u);
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0.0), 0.25);
  EXPECT_EQ(cli.get_str("scheme", ""), "RRP");
}

TEST(Cli, DefaultsWhenAbsent) {
  const Cli cli = make({}, {"n"});
  EXPECT_EQ(cli.get_u64("n", 42), 42u);
  EXPECT_FALSE(cli.has("n"));
}

TEST(Cli, BareFlagIsTrue) {
  const Cli cli = make({"--verbose"}, {"verbose"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, ExplicitBooleans) {
  const Cli cli = make({"--a=false", "--b=1", "--c=yes"}, {"a", "b", "c"});
  EXPECT_FALSE(cli.get_bool("a", true));
  EXPECT_TRUE(cli.get_bool("b", false));
  EXPECT_TRUE(cli.get_bool("c", false));
}

TEST(Cli, IntegersParseWholeOrThrow) {
  EXPECT_EQ(one("n", "18446744073709551615").get_u64("n", 0), ~0ULL);
  EXPECT_EQ(one("seed", "007").get_u64("seed", 0), 7u);
  // Scientific notation, a sign, a suffix, nothing, a leading space.
  for (const char* bad : {"1e9", "-1", "+5", "4x", "", " 5"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)one("n", bad).get_u64("n", 0), std::invalid_argument);
  }
  EXPECT_THROW((void)one("n", "18446744073709551616").get_u64("n", 0),
               std::invalid_argument);
}

TEST(Cli, IntsFitAnIntOrThrowNamingTheFlag) {
  EXPECT_EQ(one("ranks", "2147483647").get_int("ranks", 1), 2147483647);
  EXPECT_EQ(one("ranks", "0").get_int("ranks", 1), 0);
  EXPECT_EQ(make({}, {"ranks"}).get_int("ranks", 4), 4);
  // 2^32 + 4 once wrapped to 4 ranks through an int cast of get_u64.
  for (const char* bad : {"4294967300", "2147483648", "-1", "4x"}) {
    SCOPED_TRACE(bad);
    try {
      (void)one("ranks", bad).get_int("ranks", 1);
      FAIL() << bad << " parsed as an int";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--ranks"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
}

TEST(Cli, DoublesParseWholeOrThrow) {
  EXPECT_DOUBLE_EQ(one("seconds", "30.0").get_double("seconds", 0.0), 30.0);
  EXPECT_DOUBLE_EQ(one("p", "1e-12").get_double("p", 0.0), 1e-12);
  EXPECT_DOUBLE_EQ(one("p", "-2.5").get_double("p", 0.0), -2.5);
  for (const char* bad : {"0.5x", "", "x0.5", "0.5 "}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)one("p", bad).get_double("p", 0.0),
                 std::invalid_argument);
  }
}

TEST(Cli, BooleansAcceptSixWordsOnly) {
  EXPECT_FALSE(one("b", "0").get_bool("b", true));
  EXPECT_FALSE(one("b", "no").get_bool("b", true));
  EXPECT_TRUE(one("b", "true").get_bool("b", false));
  for (const char* bad : {"ture", "", "2", "on"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)one("b", bad).get_bool("b", false),
                 std::invalid_argument);
  }
}

TEST(Cli, BadValueErrorNamesFlagAndValue) {
  try {
    (void)one("ranks", "4x").get_u64("ranks", 1);
    FAIL() << "4x parsed as an integer";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--ranks"), std::string::npos) << what;
    EXPECT_NE(what.find("4x"), std::string::npos) << what;
  }
}

/// The options --rto=value leaves behind (robustness_cli.h).
core::ParallelOptions with_rto(const std::string& value) {
  const std::string arg = "--rto=" + value;
  core::ParallelOptions options;
  core::apply_robustness_cli(make({arg.c_str()}, core::robustness_cli_keys()),
                             options);
  return options;
}

TEST(Cli, RtoParsesBaseAndOptionalMaxWhole) {
  const core::ParallelOptions base_only = with_rto("25");
  EXPECT_EQ(base_only.transport.rto_base_ms, 25);
  EXPECT_EQ(base_only.transport.rto_max_ms, 400);
  const core::ParallelOptions both = with_rto("5:80");
  EXPECT_EQ(both.transport.rto_base_ms, 5);
  EXPECT_EQ(both.transport.rto_max_ms, 80);
  for (const char* bad :
       {"25x", "abc", "25:", "25:40x", ":5", "-5", "1000000000000"}) {
    SCOPED_TRACE(bad);
    try {
      (void)with_rto(bad);
      ADD_FAILURE() << "--rto=" << bad << " parsed";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--rto"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
}

TEST(Cli, RejectsUnknownKey) {
  EXPECT_THROW(make({"--oops=1"}, {"n"}), std::invalid_argument);
}

TEST(Cli, RejectsPositional) {
  EXPECT_THROW(make({"positional"}, {"n"}), std::invalid_argument);
}

TEST(Cli, HelpRecognized) {
  const Cli cli = make({"--help"}, {"n"});
  EXPECT_TRUE(cli.help());
}

TEST(Cli, UsageListsKeys) {
  const Cli cli = make({}, {"n", "x"});
  const std::string u = cli.usage("prog");
  EXPECT_NE(u.find("--n=VALUE"), std::string::npos);
  EXPECT_NE(u.find("--x=VALUE"), std::string::npos);
}

}  // namespace
}  // namespace pagen
