//===- workloads/Driver.cpp -----------------------------------*- C++ -*-===//

#include "workloads/Driver.h"

#include "ir/Verifier.h"
#include "profile/MergeTree.h"
#include "support/Error.h"

using namespace structslim;
using namespace structslim::workloads;

WorkloadRun structslim::workloads::runWorkload(const Workload &W,
                                               const transform::FieldMap &Map,
                                               const DriverConfig &Config,
                                               bool Attach,
                                               runtime::TraceSink *Tracer) {
  runtime::RunConfig RunCfg = Config.Run;
  RunCfg.AttachProfiler = Attach;

  runtime::ThreadedRuntime Runtime(RunCfg);
  BuiltWorkload Built = W.build(Runtime.machine(), Map, Config.Scale);
  if (std::string Err = ir::verify(*Built.Program); !Err.empty())
    fatalError("workload '" + W.name() + "' built invalid IR: " + Err);

  WorkloadRun Out;
  Out.CodeMap = std::make_unique<analysis::CodeMap>(*Built.Program);
  for (const auto &Phase : Built.Phases)
    Runtime.runPhase(*Built.Program, Out.CodeMap.get(), Phase, Tracer);
  Out.Result = Runtime.finish();

  if (Attach)
    Out.Merged = profile::mergeProfiles(std::move(Out.Result.Profiles));
  return Out;
}

MultiProcessResult
structslim::workloads::runProcesses(const Workload &W,
                                    const transform::FieldMap &Map,
                                    const DriverConfig &Config,
                                    unsigned NumProcesses) {
  MultiProcessResult Out;
  std::vector<profile::Profile> PerProcess;
  for (unsigned Rank = 0; Rank != NumProcesses; ++Rank) {
    DriverConfig Local = Config;
    // Each process's PMU jitters independently, as separate kernels'
    // PMUs would.
    Local.Run.Sampling.Seed = Config.Run.Sampling.Seed + 7919 * (Rank + 1);
    WorkloadRun Run = runWorkload(W, Map, Local, /*Attach=*/true);
    PerProcess.push_back(std::move(Run.Merged));
    Out.Processes.push_back(std::move(Run.Result));
    if (!Out.CodeMap)
      Out.CodeMap = std::move(Run.CodeMap);
  }
  Out.Merged = profile::mergeProfiles(std::move(PerProcess));
  return Out;
}

EndToEndResult
structslim::workloads::runEndToEnd(const Workload &W,
                                   const DriverConfig &Config) {
  EndToEndResult Out;
  ir::StructLayout Hot = W.hotLayout();
  transform::FieldMap Original(Hot);

  // 1-2: profile the original program and analyze.
  WorkloadRun Profiled = runWorkload(W, Original, Config, /*Attach=*/true);
  core::StructSlimAnalyzer Analyzer(*Profiled.CodeMap, Config.Analysis);
  Analyzer.registerLayout(W.hotObjectName(), Hot);
  Out.Analysis = Analyzer.analyze(Profiled.Merged);
  Out.OriginalProfiled = Profiled.Result;

  // 3: split plan from the hot object's clusters.
  if (const core::ObjectAnalysis *HotObj =
          Out.Analysis.findObject(W.hotObjectName()))
    Out.Plan = core::makeSplitPlan(*HotObj, &Hot);
  else
    Out.Plan.ObjectName = W.hotObjectName();

  // Baseline (unprofiled) run of the original layout.
  WorkloadRun Detached = runWorkload(W, Original, Config, /*Attach=*/false);
  Out.OriginalDetached = Detached.Result;

  // 4: rebuild under the split layout and re-run.
  if (Out.Plan.isSplit()) {
    transform::FieldMap Split(Hot, Out.Plan);
    WorkloadRun SplitRun = runWorkload(W, Split, Config, /*Attach=*/false);
    Out.SplitDetached = SplitRun.Result;
  } else {
    Out.SplitDetached = Out.OriginalDetached;
  }

  // 5: derived metrics.
  if (Out.SplitDetached.ElapsedCycles != 0)
    Out.Speedup = static_cast<double>(Out.OriginalDetached.ElapsedCycles) /
                  static_cast<double>(Out.SplitDetached.ElapsedCycles);
  if (Out.OriginalDetached.ElapsedCycles != 0)
    Out.OverheadSim =
        static_cast<double>(Out.OriginalProfiled.ElapsedCycles) /
            static_cast<double>(Out.OriginalDetached.ElapsedCycles) -
        1.0;
  for (unsigned Level = 0; Level != 3; ++Level) {
    uint64_t Before = Out.OriginalDetached.Misses[Level];
    uint64_t After = Out.SplitDetached.Misses[Level];
    if (Before != 0)
      Out.MissReduction[Level] =
          (static_cast<double>(Before) - static_cast<double>(After)) /
          static_cast<double>(Before);
  }
  return Out;
}
