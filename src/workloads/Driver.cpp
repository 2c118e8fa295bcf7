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
