//===- workloads/Driver.h - Simulated workload runs ------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a workload on the simulated machine: build it under a layout
/// (transform::FieldMap), simulate its phases with the StructSlim
/// profiler attached or detached, and merge the per-thread profiles.
/// runProcesses repeats that over several independent processes.
///
/// The paper's whole loop (profile, analyze, split, re-run, report
/// Tables 3 and 4) is core::verifyWorkload in core/ClosedLoop.h,
/// which builds on runWorkload.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_WORKLOADS_DRIVER_H
#define STRUCTSLIM_WORKLOADS_DRIVER_H

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
