//===- tools/structslim-report.cpp - Offline analyzer CLI ------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// The offline analyzer as a command-line tool (the paper's Sec. 5.2
// component): reads the per-thread profile files the online profiler
// wrote, merges them with the reduction tree, analyzes the top objects,
// and prints the hot-data ranking, per-object field/loop
// decompositions, affinity matrices and splitting advice. Optionally
// emits the affinity graph as Graphviz dot or the whole analysis as
// stable-schema JSON.
//
// Usage:
//   structslim-report [options] <profile files...>
//     --top=N          analyze the N hottest objects (default 3)
//     --threshold=T    affinity clustering threshold (default 0.5)
//     --min-unique=N   trust a stream's GCD stride only with >= N
//                      unique addresses (default 10, the paper's Eq. 4
//                      bar; sizes from sparser streams are flagged
//                      low-confidence)
//     --dot=<object>   print the object's affinity graph as dot
//     --contexts       also print the hottest sampled calling contexts
//                      (HPCToolkit-style CCT view)
//     --json           emit the full analysis as JSON on stdout
//                      (schema_version 3) instead of the text report
//     --stats          print per-stage timings/counters (text mode:
//                      after the report; JSON mode: they are embedded
//                      in the document anyway, --stats adds the table
//                      on stderr)
//     --jobs=N         shard decode look-ahead: 1 decodes serially;
//                      N > 1 keeps up to 2N shards decoding ahead on
//                      the shared pool, which has STRUCTSLIM_THREADS
//                      or one worker per core whatever N is (default
//                      0 = that worker count); output is identical for
//                      every setting
//     --strict         fail on the first unreadable profile instead of
//                      skipping it with a warning
//
// Malformed option values (e.g. --top=abc, --threshold=nan) exit 2
// with a usage message naming the offending flag; they never abort
// with an uncaught exception.
//
// Per-thread shards are written without synchronization, so truncated
// or corrupted files are expected at scale: by default each bad shard
// is skipped with a warning on stderr and the surviving shards merge
// normally (a partial thread set is a well-defined merge input);
// --strict restores hard failure with the offending path.
//
//===----------------------------------------------------------------------===//

#include "core/Advice.h"
#include "core/Report.h"
#include "profile/MergeTree.h"
#include "support/ParseNumber.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

using namespace structslim;

namespace {

struct Options {
  core::AnalysisConfig Analysis;
  std::string DotObject;
  bool Contexts = false;
  bool Strict = false;
  bool Json = false;
  bool Stats = false;
  unsigned Jobs = 0; // 0 = ThreadPool::defaultThreadCount().
  std::vector<std::string> Files;
};

int usage() {
  std::cerr << "usage: structslim-report [--top=N] [--threshold=T] "
               "[--min-unique=N] [--dot=<object>] [--contexts] [--json] "
               "[--stats] [--jobs=N] [--strict] <profile files...>\n";
  return 2;
}

/// Reports a malformed option value and returns false (the caller
/// falls through to usage()).
bool badValue(const std::string &Flag, const std::string &Value) {
  std::cerr << "error: invalid value '" << Value << "' for " << Flag << "\n";
  return false;
}

bool parseArgs(int argc, char **argv, Options &Opts) {
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--top=", 0) == 0) {
      if (!support::parseUnsigned(Arg.substr(6), Opts.Analysis.TopObjects))
        return badValue("--top", Arg.substr(6));
    } else if (Arg.rfind("--threshold=", 0) == 0) {
      if (!support::parseDouble(Arg.substr(12),
                                Opts.Analysis.AffinityThreshold))
        return badValue("--threshold", Arg.substr(12));
    } else if (Arg.rfind("--min-unique=", 0) == 0) {
      if (!support::parseUnsigned(Arg.substr(13), Opts.Analysis.MinUniqueAddrs))
        return badValue("--min-unique", Arg.substr(13));
    } else if (Arg.rfind("--dot=", 0) == 0) {
      Opts.DotObject = Arg.substr(6);
    } else if (Arg == "--contexts") {
      Opts.Contexts = true;
    } else if (Arg == "--strict") {
      Opts.Strict = true;
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (Arg == "--stats") {
      Opts.Stats = true;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!support::parseUnsigned(Arg.substr(7), Opts.Jobs))
        return badValue("--jobs", Arg.substr(7));
    } else if (Arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown option '" << Arg << "'\n";
      return false;
    } else {
      Opts.Files.push_back(Arg);
    }
  }
  return !Opts.Files.empty();
}

double secondsSince(std::chrono::steady_clock::time_point Begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Begin)
      .count();
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  if (!parseArgs(argc, argv, Opts))
    return usage();

  core::ReportStats Stats;
  Stats.Jobs = Opts.Jobs ? Opts.Jobs : support::ThreadPool::defaultThreadCount();

  profile::MergeOptions MergeOpts;
  MergeOpts.Strict = Opts.Strict;
  MergeOpts.WorkerThreads = Opts.Jobs;
  auto MergeBegin = std::chrono::steady_clock::now();
  profile::MergeLoadResult Load =
      profile::loadAndMergeProfiles(Opts.Files, MergeOpts);
  Stats.MergeSeconds = secondsSince(MergeBegin);
  Stats.MergeLoadSeconds = Load.LoadSeconds;
  Stats.MergeReduceSeconds = Load.ReduceSeconds;
  Stats.PeakResidentProfiles = Load.PeakResidentProfiles;
  Stats.ShardsMerged = Load.Loaded.size();
  Stats.ShardsSkipped = Load.Skipped.size();
  for (const profile::ShardFailure &F : Load.Skipped) {
    if (Load.StrictFailure)
      std::cerr << "error: " << F.Path << ": " << F.Message << "\n";
    else
      std::cerr << "warning: skipping " << F.Path << ": " << F.Message
                << "\n";
  }
  if (Load.StrictFailure)
    return 1;
  if (Load.Loaded.empty()) {
    std::cerr << "error: no readable profiles among " << Opts.Files.size()
              << " file(s)\n";
    return 1;
  }
  profile::Profile Merged = std::move(Load.Merged);

  auto AnalyzeBegin = std::chrono::steady_clock::now();
  core::AnalysisResult Result =
      core::StructSlimAnalyzer(Opts.Analysis).analyze(Merged);
  Stats.AnalyzeSeconds = secondsSince(AnalyzeBegin);

  if (!Opts.DotObject.empty()) {
    const core::ObjectAnalysis *Hot = Result.findObject(Opts.DotObject);
    if (!Hot) {
      std::cerr << "error: object '" << Opts.DotObject
                << "' is not among the analyzed hot objects\n";
      return 1;
    }
    std::cout << core::affinityGraphDot(*Hot);
    return 0;
  }

  if (Opts.Json) {
    // Render once to measure the render stage, then re-render with the
    // measured duration embedded — the document itself stays
    // deterministic apart from the timing values.
    auto RenderBegin = std::chrono::steady_clock::now();
    std::string Body = core::renderJsonReport(Result, Merged, Opts.Analysis,
                                              Stats, Load.Skipped);
    (void)Body;
    Stats.RenderSeconds = secondsSince(RenderBegin);
    std::cout << core::renderJsonReport(Result, Merged, Opts.Analysis, Stats,
                                        Load.Skipped);
    if (Opts.Stats)
      std::cerr << core::renderStatsText(Result, Stats);
    return 0;
  }

  auto RenderBegin = std::chrono::steady_clock::now();
  std::cout << "merged " << Load.Loaded.size() << " profile(s)\n";
  std::cout << "samples: " << Merged.TotalSamples
            << "  total sampled latency: " << Merged.TotalLatency
            << "  period: 1/" << Merged.SamplePeriod << "\n\n";

  std::cout << "=== Hot data objects (l_d) ===\n"
            << core::renderHotObjects(Result) << "\n";
  for (const core::ObjectAnalysis &Hot : Result.Objects) {
    std::cout << "=== " << Hot.Name << " ===\n";
    std::cout << core::renderFieldTable(Hot) << "\n"
              << core::renderFieldLevelTable(Hot) << "\n"
              << core::renderLoopTable(Hot) << "\n"
              << core::renderAffinityMatrix(Hot) << "\n";
    core::SplitPlan Plan = core::makeSplitPlan(Hot);
    std::cout << core::renderAdviceText(Plan, Hot) << "\n";
  }

  if (Opts.Contexts) {
    std::cout << "=== Hottest sampled calling contexts ===\n"
              << core::renderHotContexts(Merged, nullptr) << "\n";
  }

  Stats.RenderSeconds = secondsSince(RenderBegin);

  if (Opts.Stats)
    std::cout << "\n" << core::renderStatsText(Result, Stats);
  return 0;
}
