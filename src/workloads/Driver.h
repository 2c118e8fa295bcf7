//===- workloads/Driver.h - End-to-end experiment driver -------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Orchestrates the paper's end-to-end methodology on a workload:
///   1. run the original program under the StructSlim profiler,
///   2. merge the per-thread profiles and run the offline analyzer,
///   3. derive the split plan from the field-affinity clusters,
///   4. rebuild the program under the split layout (the paper's manual
///      source transformation, mechanized through FieldMap) and re-run,
///   5. report speedup, measurement overhead, and per-level cache-miss
///      reductions (Tables 3 and 4).
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_WORKLOADS_DRIVER_H
#define STRUCTSLIM_WORKLOADS_DRIVER_H

#include "core/Advice.h"
#include "core/Analyzer.h"
#include "runtime/ThreadedRuntime.h"
#include "workloads/Workload.h"

#include <memory>

namespace structslim {
namespace workloads {

/// Driver knobs.
struct DriverConfig {
  runtime::RunConfig Run;
  core::AnalysisConfig Analysis;
  double Scale = 1.0;
};

/// One run of a workload plus (when profiled) its analysis inputs.
struct WorkloadRun {
  runtime::RunResult Result;
  profile::Profile Merged;                 ///< Valid when profiled.
  std::unique_ptr<analysis::CodeMap> CodeMap;
};

/// Runs \p W under layout \p Map. \p Attach controls whether the
/// StructSlim profiler is armed. \p Tracer optionally attaches an
/// instrumentation baseline (sees every access).
WorkloadRun runWorkload(const Workload &W, const transform::FieldMap &Map,
                        const DriverConfig &Config, bool Attach,
                        runtime::TraceSink *Tracer = nullptr);

/// Everything Tables 3/4 need for one benchmark row.
struct EndToEndResult {
  core::AnalysisResult Analysis;
  core::SplitPlan Plan;
  runtime::RunResult OriginalDetached;
  runtime::RunResult OriginalProfiled;
  runtime::RunResult SplitDetached;
  double Speedup = 1.0;          ///< Simulated-time ratio.
  double OverheadSim = 0.0;      ///< Simulated profiler overhead.
  double MissReduction[3] = {0, 0, 0}; ///< L1/L2/L3, fraction removed.
};

/// Runs the full profile -> advise -> split -> re-run pipeline.
EndToEndResult runEndToEnd(const Workload &W, const DriverConfig &Config);

/// Multi-process profiling (paper Sec. 4.4: "multiple threads or/and
/// processes"): runs \p NumProcesses independent instances of the
/// workload, each in its own address space (Machine) with its own
/// sampling phase, and merges every process's per-thread profiles into
/// one whole-job profile. Heap objects align across processes by
/// allocation-site key, static objects by symbol name.
struct MultiProcessResult {
  std::vector<runtime::RunResult> Processes;
  profile::Profile Merged;
  std::unique_ptr<analysis::CodeMap> CodeMap; ///< Shared binary.
};
MultiProcessResult runProcesses(const Workload &W,
                                const transform::FieldMap &Map,
                                const DriverConfig &Config,
                                unsigned NumProcesses);

} // namespace workloads
} // namespace structslim

#endif // STRUCTSLIM_WORKLOADS_DRIVER_H
