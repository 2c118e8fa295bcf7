//===- examples/parallel_profiling.cpp - Multithreaded flow ----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Demonstrates StructSlim on a parallel program (CLOMP with four
// threads), following the paper's Secs. 4.4 and 5:
//   - each thread collects its own profile with no synchronization,
//   - profiles are written to per-thread files, as the online profiler
//     does, then read back,
//   - the offline analyzer merges them with a reduction tree and
//     analyzes the aggregate, attributing the shared zone array
//     (allocated by one thread, accessed by all) across threads.
//
//===----------------------------------------------------------------------===//

#include "core/Advice.h"
#include "core/Report.h"
#include "profile/MergeTree.h"
#include "profile/ProfileIO.h"
#include "support/Format.h"
#include "workloads/Driver.h"
#include "workloads/Registry.h"

#include <fstream>
#include <iostream>
#include <sstream>

using namespace structslim;

int main(int argc, char **argv) {
  double Scale = 0.4;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--scale=", 0) == 0)
      Scale = std::stod(Arg.substr(8));
  }

  auto W = workloads::makeClomp();
  workloads::DriverConfig Config;
  Config.Scale = Scale;

  // --- Online phase: run with the profiler attached. -----------------
  transform::FieldMap Map(W->hotLayout());
  runtime::RunConfig RunCfg = Config.Run;
  runtime::ThreadedRuntime Runtime(RunCfg);
  workloads::BuiltWorkload Built =
      W->build(Runtime.machine(), Map, Config.Scale);
  analysis::CodeMap CodeMap(*Built.Program);
  for (const auto &Phase : Built.Phases)
    Runtime.runPhase(*Built.Program, &CodeMap, Phase);
  runtime::RunResult Result = Runtime.finish();

  std::cout << "collected " << Result.Profiles.size()
            << " per-thread profiles (1 setup thread + 4 workers)\n";

  // --- Write one profile file per thread, as the profiler does. ------
  std::vector<std::string> Files;
  for (const profile::Profile &P : Result.Profiles) {
    std::string Name =
        "clomp.thread" + std::to_string(P.ThreadId) + ".structslim";
    std::ofstream Out(Name);
    profile::writeProfile(P, Out);
    Files.push_back(Name);
    std::cout << "  " << Name << ": " << P.TotalSamples << " samples, "
              << P.TotalLatency << " cycles of sampled latency\n";
  }

  // --- Offline phase: read back and merge with the reduction tree. ---
  std::vector<profile::Profile> Loaded;
  for (const std::string &Name : Files) {
    std::ifstream In(Name);
    std::string Error;
    auto P = profile::readProfile(In, &Error);
    if (!P) {
      std::cerr << "failed to read " << Name << ": " << Error << "\n";
      return 1;
    }
    Loaded.push_back(std::move(*P));
  }
  profile::Profile Merged = profile::mergeProfiles(std::move(Loaded));
  std::cout << "\nmerged profile: " << Merged.TotalSamples
            << " samples across all threads\n\n";

  // --- Analysis on the aggregate. -------------------------------------
  core::StructSlimAnalyzer Analyzer(CodeMap, Config.Analysis);
  Analyzer.registerLayout(W->hotObjectName(), W->hotLayout());
  core::AnalysisResult Analysis = Analyzer.analyze(Merged);
  std::cout << core::renderHotObjects(Analysis) << "\n";

  const core::ObjectAnalysis *Hot = Analysis.findObject("_Zone");
  if (!Hot) {
    std::cerr << "_Zone not surfaced; increase --scale\n";
    return 1;
  }
  std::cout << core::renderAffinityMatrix(*Hot) << "\n";
  ir::StructLayout Layout = W->hotLayout();
  core::SplitPlan Plan = core::makeSplitPlan(*Hot, &Layout);
  std::cout << core::renderAdviceText(Plan, *Hot, &Layout)
            << "\n(the paper's Fig. 11: _Zone{value, nextZone} plus "
               "_ZoneHeader{zoneId, partId})\n";
  return 0;
}
