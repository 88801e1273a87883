//===- tests/flags_test.cpp - Declarative flag tables ---------------------===//
///
/// The strict command-line parser (support/Flags.h) and the bench flag
/// tables built on it (bench/BenchCommon.h): both spellings of a value
/// flag reach the same row, repeatable rows keep their order, hidden rows
/// stay out of the usage, env vars apply before argv, and every kind of
/// bad input exits 2.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchCommon.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

using namespace spf;
using namespace spf::support;

namespace {

/// Runs parseFlags over {"prog", Args...}.
void parse(const FlagTable &Table, std::vector<std::string> Args) {
  Args.insert(Args.begin(), "prog");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  parseFlags(Table, static_cast<int>(Argv.size()), Argv.data());
}

/// Every row a bench binary can be given: the shared rows (with the
/// hidden worker protocol), the machine rows and the adaptation rows.
FlagTable benchRows(bench::BenchCli &C, bench::MachineFlags &M,
                    bench::AdaptationKnobs &K) {
  FlagTable T = bench::sharedFlags(C);
  for (FlagTable Part : {M.flags(), K.flags()})
    T.insert(T.end(), Part.begin(), Part.end());
  return T;
}

struct ScopedEnv {
  std::string Name;
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    setenv(Name, Value, 1);
  }
  ~ScopedEnv() { unsetenv(Name.c_str()); }
};

TEST(FlagTableTest, SpaceAndEqualsSpellingsReachTheSameRow) {
  bench::BenchCli C;
  bench::MachineFlags M;
  bench::AdaptationKnobs K;
  FlagTable Rows = benchRows(C, M, K);
  unsigned ValueRows = 0;
  for (const Flag &Row : Rows) {
    if (!Row.Arg)
      continue;
    ++ValueRows;
    // A recording twin of the row: what value does each spelling deliver?
    std::vector<std::string> Seen;
    Flag Probe = Row;
    Probe.Env = nullptr;
    Probe.Set = [&Seen](const std::string &V) {
      Seen.push_back(V);
      return std::string();
    };
    parse({Probe}, {Row.Name, "a=b"});
    parse({Probe}, {std::string(Row.Name) + "=a=b"});
    EXPECT_EQ(Seen, (std::vector<std::string>{"a=b", "a=b"})) << Row.Name;
  }
  EXPECT_GE(ValueRows, 15u);
}

TEST(FlagTableTest, RowNamesAreUnique) {
  bench::BenchCli C;
  bench::MachineFlags M;
  bench::AdaptationKnobs K;
  std::set<std::string> Names;
  for (const Flag &Row : benchRows(C, M, K))
    EXPECT_TRUE(Names.insert(Row.Name).second) << Row.Name;
}

TEST(FlagTableTest, RepeatableMachineFlagsKeepTheirOrder) {
  const std::string File =
      (std::filesystem::path(__FILE__).parent_path().parent_path() /
       "machines/modern3l.json")
          .string();
  bench::MachineFlags M;
  parse(M.flags(), {"--hw-prefetch", "rpt", "--machine", "p4",
                    "--machine-file", File, "--machine=athlon"});
  ASSERT_EQ(M.Selected.size(), 3u);
  EXPECT_EQ(M.Selected[0], sim::MachineConfig::pentium4());
  EXPECT_EQ(M.Selected[1], sim::MachineConfig::modern3());
  EXPECT_EQ(M.Selected[2], sim::MachineConfig::athlonMP());
  ASSERT_TRUE(M.HwPrefetch.has_value());
  EXPECT_EQ(*M.HwPrefetch, sim::HwPrefetchKind::Rpt);
}

TEST(FlagTableTest, HiddenRowsStayOutOfTheUsage) {
  bench::BenchCli C;
  bench::MachineFlags M;
  bench::AdaptationKnobs K;
  FlagTable Rows = benchRows(C, M, K);
  std::string Usage = flagUsage(Rows, "sweep");
  unsigned Hidden = 0;
  for (const Flag &Row : Rows) {
    bool Listed = Usage.find(std::string("  ") + Row.Name + " ") !=
                  std::string::npos;
    EXPECT_EQ(Listed, !Row.Hidden) << Row.Name;
    Hidden += Row.Hidden;
  }
  EXPECT_EQ(Hidden, 3u); // --run-cell, --cell-attempt, --result-fd.
  EXPECT_NE(Usage.find("  --help "), std::string::npos);
  EXPECT_NE(Usage.find("(or SPF_EPOCHS)"), std::string::npos);
}

TEST(FlagTableTest, EnvAppliesBeforeArgv) {
  bench::AdaptationKnobs K;
  {
    ScopedEnv E("SPF_EPOCHS", "3");
    parse(K.flags(), {});
    EXPECT_EQ(K.Epochs, 3u);
    parse(K.flags(), {"--epochs", "5"});
    EXPECT_EQ(K.Epochs, 5u);
  }
  ScopedEnv E("SPF_PHASE_CHANGE", "off");
  K.PhaseChange = true;
  parse(K.flags(), {});
  EXPECT_FALSE(K.PhaseChange);
  parse(K.flags(), {"--phase-change"});
  EXPECT_TRUE(K.PhaseChange);
}

TEST(FlagTableTest, WorkerRowsEngageTheRequest) {
  std::optional<harness::WorkerRequest> Req;
  parse(harness::workerFlags(Req), {});
  EXPECT_FALSE(Req.has_value());
  parse(harness::workerFlags(Req),
        {"--run-cell", "2:17", "--cell-attempt=1", "--result-fd", "5"});
  ASSERT_TRUE(Req.has_value());
  EXPECT_EQ(Req->PlanSeq, 2u);
  EXPECT_EQ(Req->Cell, 17u);
  EXPECT_EQ(Req->Attempt, 1u);
  EXPECT_EQ(Req->ResultFd, 5);
}

TEST(FlagTableDeathTest, BadInputExitsWithConfigError) {
  bench::BenchCli C;
  bench::MachineFlags M;
  bench::AdaptationKnobs K;
  FlagTable Rows = benchRows(C, M, K);
  const struct {
    std::vector<std::string> Args;
    const char *Message;
  } Cases[] = {
      {{"--bogus-flag"}, "invalid argument=\"--bogus-flag\": unknown flag"},
      {{"bare"}, "unknown flag"},
      {{"--jobs", "abc"}, "invalid --jobs=\"abc\""},
      {{"--jobs", "0"}, "invalid --jobs=\"0\""},
      {{"--jobs=2", "--jobs=3"}, "given more than once"},
      {{"--trace-cache-mb", "-5"}, "invalid --trace-cache-mb"},
      {{"--sweep-deadline", "nope"}, "invalid --sweep-deadline"},
      {{"--journal"}, "invalid --journal=\"\": missing value"},
      {{"--isolate=on"}, "takes no value"},
      {{"--epochs", "2x"}, "invalid --epochs"},
      {{"--governor", "maybe"}, "expected on.off"},
      {{"--gc-variant", "lru"}, "invalid --gc-variant"},
      {{"--hw-prefetch", "magic"}, "invalid --hw-prefetch"},
      {{"--machine", "cray"}, "unknown machine"},
      {{"--run-cell", "7"}, "expected PLANSEQ:CELL"},
  };
  for (const auto &Case : Cases)
    EXPECT_EXIT(parse(Rows, Case.Args),
                ::testing::ExitedWithCode(ConfigErrorExit), Case.Message)
        << Case.Args.front();
  ScopedEnv E("SPF_GOVERNOR", "perhaps");
  EXPECT_EXIT(parse(Rows, {}), ::testing::ExitedWithCode(ConfigErrorExit),
              "invalid SPF_GOVERNOR=\"perhaps\"");
}

TEST(FlagTableDeathTest, HelpExitsZero) {
  bench::BenchCli C;
  EXPECT_EXIT(parse(bench::sharedFlags(C), {"--help"}),
              ::testing::ExitedWithCode(0), "");
}

} // namespace
