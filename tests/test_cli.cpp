// tarr::cli: the shared strict argument parsers behind every tarr-* CLI.
// One contract everywhere: the full token must parse, the value must land
// in range, and any violation throws UsageError (surfaced by the CLIs as
// usage text + exit 2).

#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>

namespace tarr::cli {
namespace {

TEST(Cli, ParseIntAcceptsWholeTokenInRange) {
  EXPECT_EQ(parse_int("--n", "0", 0, 10), 0);
  EXPECT_EQ(parse_int("--n", "10", 0, 10), 10);
  EXPECT_EQ(parse_int("--n", "-3", -5, 5), -3);
  EXPECT_EQ(parse_int("--n", "9223372036854775807",
                      std::numeric_limits<long long>::min(),
                      std::numeric_limits<long long>::max()),
            std::numeric_limits<long long>::max());
}

TEST(Cli, ParseIntRejectsMalformedTokens) {
  // Trailing garbage, empty, non-numeric, embedded whitespace: all the shapes
  // that strtol would silently half-accept.
  EXPECT_THROW(parse_int("--n", "8x", 0, 100), UsageError);
  EXPECT_THROW(parse_int("--n", "", 0, 100), UsageError);
  EXPECT_THROW(parse_int("--n", "x8", 0, 100), UsageError);
  EXPECT_THROW(parse_int("--n", "1 2", 0, 100), UsageError);
  EXPECT_THROW(parse_int("--n", "1.5", 0, 100), UsageError);
  EXPECT_THROW(parse_int("--n", " 1", 0, 100), UsageError);
}

TEST(Cli, ParseIntRejectsOutOfRangeAndOverflow) {
  EXPECT_THROW(parse_int("--n", "11", 0, 10), UsageError);
  EXPECT_THROW(parse_int("--n", "-1", 0, 10), UsageError);
  // Past the 64-bit boundary entirely (errno == ERANGE path).
  EXPECT_THROW(parse_int("--n", "99999999999999999999",
                         std::numeric_limits<long long>::min(),
                         std::numeric_limits<long long>::max()),
               UsageError);
}

TEST(Cli, ParseIntErrorNamesTheOption) {
  try {
    parse_int("--nodes", "8x", 0, 100);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--nodes"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("8x"), std::string::npos);
  }
}

TEST(Cli, ParseDoubleAcceptsWholeTokenInRange) {
  EXPECT_DOUBLE_EQ(parse_double("--x", "0.25", 0.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(parse_double("--x", "1", 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_double("--x", "-2.5e-1", -1.0, 1.0), -0.25);
}

TEST(Cli, ParseDoubleRejectsMalformedOutOfRangeAndNan) {
  EXPECT_THROW(parse_double("--x", "0.5z", 0.0, 1.0), UsageError);
  EXPECT_THROW(parse_double("--x", "", 0.0, 1.0), UsageError);
  EXPECT_THROW(parse_double("--x", "1.5", 0.0, 1.0), UsageError);
  EXPECT_THROW(parse_double("--x", "-0.1", 0.0, 1.0), UsageError);
  // NaN passes strtod and every naive range check (NaN < lo is false); the
  // parser must reject it explicitly.
  EXPECT_THROW(parse_double("--x", "nan", 0.0, 1.0), UsageError);
  EXPECT_THROW(parse_double("--x", "NAN", 0.0, 1.0), UsageError);
}

TEST(Cli, ParseSeedCoversTheFullUnsignedRange) {
  EXPECT_EQ(parse_seed("--seed", "0"), 0u);
  EXPECT_EQ(parse_seed("--seed", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Cli, ParseSeedRejectsNegativeAndMalformed) {
  // strtoull silently wraps negatives ("-1" -> 2^64-1); the parser must not.
  EXPECT_THROW(parse_seed("--seed", "-1"), UsageError);
  EXPECT_THROW(parse_seed("--seed", "12x"), UsageError);
  EXPECT_THROW(parse_seed("--seed", ""), UsageError);
  EXPECT_THROW(parse_seed("--seed", "18446744073709551616"), UsageError);
}

TEST(Cli, UsageErrorIsATarrError) {
  // CLIs catch UsageError before Error; the hierarchy must support that.
  try {
    throw UsageError("boom");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

// ---------------------------------------------------------------------------
// tarrmap rejects bad input through the usage path (exit 2) before it builds
// the machine or opens an output.

/// Exit code of `binary` run with `args` (stdout and stderr discarded).
int run_binary(const std::string& binary, const std::string& args) {
  const std::string cmd = binary + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int run_tarrmap(const std::string& args) {
  return run_binary(TARRMAP_BINARY, args);
}

TEST(TarrmapCli, UnknownNamesExitTwoAndLeaveNoCapture) {
  const std::string tlog = ::testing::TempDir() + "/tarrmap_reject.tlog";
  const std::string dir = ::testing::TempDir() + "/tarrmap_reject_dir";
  std::filesystem::remove(tlog);
  std::filesystem::remove_all(dir);
  for (const std::string bad :
       {"--mapper rdmh", "--layout diagonal", "--pattern butterfly"}) {
    EXPECT_EQ(run_tarrmap("--nodes 2 --procs 16 --quiet --tlog " + tlog +
                          " " + bad),
              2)
        << bad;
    EXPECT_FALSE(std::filesystem::exists(tlog)) << bad;
    EXPECT_EQ(run_tarrmap("--nodes 2 --procs 16 --quiet --out-dir " + dir +
                          " " + bad),
              2)
        << bad;
    EXPECT_FALSE(std::filesystem::exists(dir)) << bad;
  }
}

TEST(TarrmapCli, SizesTheJobCannotUseExitTwo) {
  const std::string tlog = ::testing::TempDir() + "/tarrmap_big.tlog";
  std::filesystem::remove(tlog);
  EXPECT_EQ(run_tarrmap("--nodes 961 --quiet --tlog " + tlog), 2);
  EXPECT_EQ(run_tarrmap("--nodes 2 --procs 17 --quiet --tlog " + tlog), 2);
  EXPECT_EQ(run_tarrmap("--nodes 2 --procs 12 --pattern recursive-doubling "
                        "--quiet --tlog " + tlog),
            2);
  EXPECT_FALSE(std::filesystem::exists(tlog));
  // The largest accepted sizes still pass validation.
  EXPECT_EQ(run_tarrmap("--nodes 2 --procs 16 --quiet --pattern ring"), 0);
}

// ---------------------------------------------------------------------------
// tarr-report, tarr-viz and tarr-insight check the same run options while
// parsing, so bad input exits 2 before a machine is built or a capture
// opened.

TEST(ScenarioClis, BadRunOptionsExitTwoAndLeaveNoCapture) {
  const std::string tlog = ::testing::TempDir() + "/scenario_reject.tlog";
  std::filesystem::remove(tlog);
  const std::string report = std::string(TARR_REPORT_BINARY) +
                             " critical-path --save-tlog " + tlog;
  const std::string viz =
      std::string(TARR_VIZ_BINARY) + " topo --save-tlog " + tlog;
  const std::string insight = std::string(TARR_INSIGHT_BINARY) +
                              " diagnose --save-tlog " + tlog;
  for (const std::string& cli : {report, viz, insight}) {
    for (const std::string bad :
         {"--nodes 961", "--pattern bogus", "--mapper rdmh",
          "--layout diagonal", "--nodes 2 --procs 17"}) {
      EXPECT_EQ(run_binary(cli, bad), 2) << cli << " " << bad;
      EXPECT_FALSE(std::filesystem::exists(tlog)) << cli << " " << bad;
    }
  }
  // The largest accepted sizes still pass validation.
  EXPECT_EQ(run_binary(TARR_REPORT_BINARY,
                       "critical-path --nodes 2 --procs 16 --pattern ring"),
            0);
  EXPECT_EQ(run_binary(TARR_INSIGHT_BINARY,
                       "diagnose --nodes 2 --procs 16 --mapper identity"),
            0);
}

}  // namespace
}  // namespace tarr::cli
