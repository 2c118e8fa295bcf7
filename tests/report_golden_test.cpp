//===- tests/report_golden_test.cpp - Golden end-to-end report -*- C++ -*-===//
//
// Runs the real structslim-report binary on a recorded v3 profile
// fixture (tests/data/clomp.thread*.structslim, captured from the
// parallel_profiling example) and asserts byte-identical advice and
// DOT output against checked-in goldens, so the analysis output on a
// fixed profile cannot drift silently.
//
// Also exercises the tool's degradation contract end to end: a
// truncated shard, a retired v1/v2 text shard, a v3 shard with a sixth
// section and a directory are each skipped with a specific warning by
// default, and --strict exits nonzero naming the failing path.
//
//===----------------------------------------------------------------------===//

#include "V3Blob.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <utility>
#include <vector>

namespace {

std::string dataPath(const std::string &Name) {
  return std::string(STRUCTSLIM_TEST_DATA) + "/" + Name;
}

std::vector<std::string> fixtureShards() {
  std::vector<std::string> Files;
  for (int T = 0; T != 5; ++T)
    Files.push_back(dataPath("clomp.thread" + std::to_string(T) +
                             ".structslim"));
  return Files;
}

struct CommandResult {
  int ExitCode = -1;
  std::string Output; ///< stdout and stderr, interleaved.
};

/// Runs the report tool with \p Args appended; captures both streams.
CommandResult runReport(const std::vector<std::string> &Args) {
  std::string Cmd = std::string(STRUCTSLIM_REPORT_BIN);
  for (const std::string &A : Args)
    Cmd += " " + A;
  Cmd += " 2>&1";
  CommandResult Result;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return Result;
  char Buffer[4096];
  size_t N;
  while ((N = fread(Buffer, 1, sizeof(Buffer), Pipe)) != 0)
    Result.Output.append(Buffer, N);
  int Status = pclose(Pipe);
  Result.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Result;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

} // namespace

TEST(ReportGolden, FixtureReportIsByteIdentical) {
  CommandResult R = runReport(fixtureShards());
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, readFileBytes(dataPath("golden_report.txt")));
  // The semantic core of the golden: the paper's Fig. 11 split of
  // CLOMP's zone struct.
  // The fixture's size rests on one well-sampled stream plus sparse
  // ones, so the advice carries the low-confidence marker.
  EXPECT_NE(R.Output.find(
                "split '_Zone' (size 32 bytes, low-confidence size) "
                "into 2 structures"),
            std::string::npos);
  EXPECT_NE(R.Output.find("struct _Zone_0 { long off16; long off24; };"),
            std::string::npos);
}

TEST(ReportGolden, FixtureDotIsByteIdentical) {
  std::vector<std::string> Args = {"--dot=_Zone"};
  for (const std::string &F : fixtureShards())
    Args.push_back(F);
  CommandResult R = runReport(Args);
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, readFileBytes(dataPath("golden_affinity.dot")));
  EXPECT_NE(R.Output.find("graph \"affinity__Zone\""), std::string::npos);
}

TEST(ReportGolden, CorruptShardIsSkippedWithWarningByDefault) {
  std::vector<std::string> Args = {dataPath("corrupt.structslim")};
  for (const std::string &F : fixtureShards())
    Args.push_back(F);
  CommandResult R = runReport(Args);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("warning: skipping"), std::string::npos);
  EXPECT_NE(R.Output.find("corrupt.structslim"), std::string::npos);
  EXPECT_NE(R.Output.find("truncated profile (missing end marker)"),
            std::string::npos);
  // All five good shards still merge: the partial set is well-defined.
  EXPECT_NE(R.Output.find("merged 5 profile(s)"), std::string::npos);
  EXPECT_NE(R.Output.find("struct _Zone_0"), std::string::npos);
}

TEST(ReportGolden, StrictExitsNonzeroNamingThePath) {
  std::vector<std::string> Args = {"--strict", dataPath("corrupt.structslim")};
  for (const std::string &F : fixtureShards())
    Args.push_back(F);
  CommandResult R = runReport(Args);
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("error:"), std::string::npos);
  EXPECT_NE(R.Output.find("corrupt.structslim"), std::string::npos);
  // Strict failed fast: no report was produced.
  EXPECT_EQ(R.Output.find("merged"), std::string::npos);
}

// A shard in a retired text format, a v3 shard with a sixth section,
// or a directory passed by mistake, is skipped with the reader's reason
// next to the good shards and fails the run under --strict.
TEST(ReportGolden, UnreadableInputsAreSkippedOrFailStrict) {
  std::string V1 = ::testing::TempDir() + "report_golden_v1.structslim";
  std::string V2 = ::testing::TempDir() + "report_golden_v2.structslim";
  std::string Six = ::testing::TempDir() + "report_golden_six.structslim";
  std::ofstream(V1) << "structslim-profile v1\nmeta 0 1 0 0 0 0 0 0\n";
  std::ofstream(V2) << "structslim-profile v2\nmeta 0 1 0 0 0 0 0 0\n";
  // A fixture shard re-sealed with a sixth section: every size and CRC
  // checks out, only the section count is foreign.
  structslim::V3Blob Blob =
      structslim::V3Blob::split(readFileBytes(fixtureShards()[0]));
  Blob.Payloads.push_back(std::string(8, '\0'));
  Blob.Records.push_back(1);
  std::ofstream(Six, std::ios::binary) << Blob.seal();
  const std::pair<std::string, std::string> Cases[] = {
      {V1, "unsupported profile format version '1'"},
      {V2, "unsupported profile format version '2'"},
      {Six, "unsupported v3 section count 6 (expected 5)"},
      {STRUCTSLIM_TEST_DATA, "is a directory"}};
  for (const auto &[Path, Reason] : Cases) {
    std::vector<std::string> Args = {Path};
    for (const std::string &F : fixtureShards())
      Args.push_back(F);
    CommandResult R = runReport(Args);
    EXPECT_EQ(R.ExitCode, 0) << R.Output;
    EXPECT_NE(R.Output.find("warning: skipping " + Path + ": " + Reason),
              std::string::npos)
        << R.Output;
    EXPECT_NE(R.Output.find("merged 5 profile(s)"), std::string::npos);

    Args.insert(Args.begin(), "--strict");
    R = runReport(Args);
    EXPECT_NE(R.ExitCode, 0) << Path;
    EXPECT_NE(R.Output.find("error: " + Path + ": " + Reason),
              std::string::npos)
        << R.Output;
  }
}

TEST(ReportGolden, AllShardsUnreadableFailsEvenWhenLenient) {
  CommandResult R = runReport({dataPath("corrupt.structslim")});
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("no readable profiles"), std::string::npos);
}

// --- Defensive CLI parsing ----------------------------------------------

TEST(ReportCli, MalformedNumericValueExitsTwoWithUsage) {
  // The historical failure: strtoul-style parsing accepted garbage or
  // aborted. Every malformed value must exit 2 and point at the flag.
  struct Case {
    const char *Arg;
    const char *Flag;
  } Cases[] = {
      {"--top=abc", "--top"},           {"--top=", "--top"},
      {"--top=-3", "--top"},            {"--top=7x", "--top"},
      {"--jobs=1x", "--jobs"},          {"--jobs=", "--jobs"},
      {"--threshold=0..5", "--threshold"}, {"--threshold=nan?", "--threshold"},
      {"--threshold=nan", "--threshold"},  {"--threshold=inf", "--threshold"},
      {"--threshold=-inf", "--threshold"},
      {"--min-unique=ten", "--min-unique"},
      {"--top=99999999999999999999", "--top"},
  };
  for (const Case &C : Cases) {
    CommandResult R = runReport({C.Arg, fixtureShards()[0]});
    EXPECT_EQ(R.ExitCode, 2) << C.Arg << "\n" << R.Output;
    EXPECT_NE(R.Output.find("error: invalid value"), std::string::npos)
        << C.Arg << "\n" << R.Output;
    EXPECT_NE(R.Output.find(C.Flag), std::string::npos) << R.Output;
    EXPECT_NE(R.Output.find("usage:"), std::string::npos) << R.Output;
  }
}

TEST(ReportCli, UnknownOptionExitsTwoWithUsage) {
  CommandResult R = runReport({"--frobnicate", fixtureShards()[0]});
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("error: unknown option '--frobnicate'"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("usage:"), std::string::npos);
}

TEST(ReportCli, StructureToolRejectsUnknownOption) {
  std::string Cmd = std::string(STRUCTSLIM_STRUCTURE_BIN);
  Cmd += " --bogus-flag 2>&1";
  std::string Output;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  ASSERT_NE(Pipe, nullptr);
  char Buffer[4096];
  size_t N;
  while ((N = fread(Buffer, 1, sizeof(Buffer), Pipe)) != 0)
    Output.append(Buffer, N);
  int Status = pclose(Pipe);
  EXPECT_EQ(WIFEXITED(Status) ? WEXITSTATUS(Status) : -1, 2) << Output;
  EXPECT_NE(Output.find("error: unknown option '--bogus-flag'"),
            std::string::npos)
      << Output;
  EXPECT_NE(Output.find("usage:"), std::string::npos);
}

// --- Machine-readable output --------------------------------------------

TEST(ReportJson, EmitsStableSchemaDocument) {
  std::vector<std::string> Args = {"--json"};
  for (const std::string &F : fixtureShards())
    Args.push_back(F);
  CommandResult R = runReport(Args);
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  for (const char *Key :
       {"\"schema_version\": 2", "\"generator\": \"structslim-report\"",
        "\"profile\":", "\"shards_merged\": 5", "\"config\":", "\"objects\":",
        "\"_Zone\"", "\"affinity\":", "\"clusters\":", "\"stats\":",
        "\"timing\":", "\"analyze_seconds\":", "\"split_recommended\": true"})
    EXPECT_NE(R.Output.find(Key), std::string::npos) << Key << "\n" << R.Output;
  // JSON mode owns stdout completely: no text preamble leaks in.
  EXPECT_EQ(R.Output.find("merged 5 profile(s)"), std::string::npos);
  EXPECT_EQ(R.Output.rfind('{', 0), 0u) << "document must start with '{'";
}

TEST(ReportJson, StatsGoToStderrNotIntoTheDocument) {
  // Split streams: stdout must stay parseable JSON while --stats prints.
  std::string Cmd = std::string(STRUCTSLIM_REPORT_BIN) + " --json --stats";
  for (const std::string &F : fixtureShards())
    Cmd += " " + F;
  Cmd += " 2>/dev/null";
  std::string Output;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  ASSERT_NE(Pipe, nullptr);
  char Buffer[4096];
  size_t N;
  while ((N = fread(Buffer, 1, sizeof(Buffer), Pipe)) != 0)
    Output.append(Buffer, N);
  int Status = pclose(Pipe);
  EXPECT_EQ(WIFEXITED(Status) ? WEXITSTATUS(Status) : -1, 0);
  EXPECT_EQ(Output.rfind('{', 0), 0u);
  EXPECT_EQ(Output.find("Pipeline stats"), std::string::npos);
  EXPECT_NE(Output.find("\"objects_analyzed\":"), std::string::npos);
}

TEST(ReportStatsFlag, TextModePrintsPipelineBlock) {
  std::vector<std::string> Args = {"--stats"};
  for (const std::string &F : fixtureShards())
    Args.push_back(F);
  CommandResult R = runReport(Args);
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("=== Pipeline stats ==="), std::string::npos);
  EXPECT_NE(R.Output.find("shard(s) merged"), std::string::npos);
  EXPECT_NE(R.Output.find("jobs="), std::string::npos);
}

// --- Parallel determinism at the tool level -----------------------------

TEST(ReportParallel, JobCountNeverChangesTheTextReport) {
  std::vector<std::string> One = {"--jobs=1"}, Four = {"--jobs=4"};
  for (const std::string &F : fixtureShards()) {
    One.push_back(F);
    Four.push_back(F);
  }
  CommandResult R1 = runReport(One);
  CommandResult R4 = runReport(Four);
  ASSERT_EQ(R1.ExitCode, 0) << R1.Output;
  ASSERT_EQ(R4.ExitCode, 0) << R4.Output;
  EXPECT_EQ(R1.Output, R4.Output);
  // And both still match the checked-in golden byte for byte.
  EXPECT_EQ(R1.Output, readFileBytes(dataPath("golden_report.txt")));
}
