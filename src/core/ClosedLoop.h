//===- core/ClosedLoop.h - Advice -> split -> re-simulate loop -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's measurement loop, and the only one in the repository:
/// profile a workload under the cache model, analyze, turn the hottest
/// object's SplitPlan into an actual program rewrite, and re-run the
/// rewritten program under the identical configuration to measure what
/// the advice bought. Tables 3 and 4, the ablations, the case studies
/// and structslim-verify all read their numbers from this loop.
///
/// Each program is simulated twice. The profiled run supplies the
/// analyzer's input and the "before" counters: its as-if-detached
/// cycles (RunResult::DetachedElapsedCycles) are a detached run's
/// elapsed cycles, because the sample-handler charge is the profiler's
/// only effect on simulated state. The split run supplies the "after"
/// counters.
///
/// One application path: transform::splitArrayOfStructs rewrites the
/// built program directly through its allocation token — the compiler
/// pass the paper's conclusion envisions. It covers every paper
/// program: the serial ones keep the hot array's base in the allocating
/// function, the parallel ones (CLOMP, Health, NN) also hand it to their
/// workers through a constant-address mailbox slot. When the splitter
/// refuses a program, nothing is applied: the mode is None, the
/// diagnostic is the fallback reason and "after" equals "before". The
/// FieldMap rebuild (the paper's manual source transformation) is kept
/// only as the test oracle for the rewrite.
///
/// Runs take the caller's RunConfig as is. Every simulation placement
/// is bit-identical to the inline oracle, so the counters — and the
/// JSON rendering — do not depend on STRUCTSLIM_THREADS or the host.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_CORE_CLOSEDLOOP_H
#define STRUCTSLIM_CORE_CLOSEDLOOP_H

#include "core/Advice.h"
#include "core/BenefitModel.h"
#include "workloads/Driver.h"

#include <array>
#include <string>
#include <vector>

namespace structslim {
namespace core {

/// How the advised plan was applied to the program.
enum class ApplyMode : uint8_t {
  None,    ///< Plan keeps the structure whole or the splitter refused.
  IrSplit, ///< splitArrayOfStructs rewrote the IR in place.
};

/// Stable identifier used in text and JSON output.
const char *applyModeName(ApplyMode Mode);

/// The schedule-independent counters of one simulated run (the subset
/// of RunResult that is bit-stable across hosts).
struct SimCounters {
  uint64_t ElapsedCycles = 0;
  uint64_t Instructions = 0;
  uint64_t MemoryAccesses = 0;
  std::array<uint64_t, 3> Accesses{}; ///< L1/L2/L3 demand accesses.
  std::array<uint64_t, 3> Misses{};   ///< L1/L2/L3 demand misses.

  /// Demand miss rate of \p Level (0 when the level saw no accesses).
  double missRate(unsigned Level) const;
};

/// Everything the loop learned about one workload.
struct WorkloadVerdict {
  std::string Name;
  std::string Suite;
  ApplyMode Mode = ApplyMode::None;
  /// Why the IR split did not run (splitter diagnostic, or why the
  /// plan was not applicable). Empty for Mode == IrSplit.
  std::string FallbackReason;
  SplitPlan Plan;

  // Sampled-vs-exact agreement: what the analyzer inferred from PMU
  // samples against the ground truth the workload declares.
  uint64_t InferredStructSize = 0;
  uint64_t ActualStructSize = 0;
  double SizeConfidence = 0;
  double HotShare = 0;
  uint64_t Samples = 0;

  // Before/after under the identical RunConfig and cache hierarchy.
  /// The profiled run's counters, with its as-if-detached cycles.
  SimCounters Before;
  SimCounters After;
  /// Thread return values identical before/after (semantic check).
  bool ResultsMatch = true;

  // Derived deltas.
  double MeasuredSpeedup = 1.0;  ///< Before/After elapsed cycles.
  double PredictedSpeedup = 1.0; ///< Amdahl-damped BenefitModel projection.
  /// Per level: fraction of the demand misses removed (negative when
  /// the split added misses) — the paper's Table 4 metric.
  std::array<double, 3> MissReduction{};
  /// Simulated profiler overhead: the profiled run's elapsed cycles
  /// over its as-if-detached cycles, minus one.
  double OverheadSim = 0;

  // In memory only (not rendered): what the paper harnesses read.
  AnalysisResult Analysis;
  /// The profiled run. Its Profiles were moved into the merge.
  runtime::RunResult Profiled;

  bool sizeExact() const {
    return InferredStructSize == ActualStructSize && InferredStructSize != 0;
  }
  bool improved() const { return After.ElapsedCycles < Before.ElapsedCycles; }
  bool regressed() const { return After.ElapsedCycles > Before.ElapsedCycles; }
  bool ok() const { return ResultsMatch && !regressed(); }
};

/// Aggregate over a set of workloads.
struct VerifyReport {
  std::vector<WorkloadVerdict> Workloads;

  unsigned countMode(ApplyMode Mode) const;
  unsigned countImproved() const;
  unsigned countRegressed() const;
  unsigned countMismatched() const;
  /// Every workload kept its results and none regressed latency.
  bool allOk() const;
};

/// Runs the full loop on one workload.
WorkloadVerdict verifyWorkload(const workloads::Workload &W,
                               const workloads::DriverConfig &Config);

/// Runs the loop over \p Workloads in order.
VerifyReport
verifyWorkloads(const std::vector<std::unique_ptr<workloads::Workload>> &Ws,
                const workloads::DriverConfig &Config);

/// Human-readable table (one row per workload) plus a summary line.
std::string renderVerifyText(const VerifyReport &Report);

/// Machine-readable document: {"schema_version", "generator",
/// "config", "workloads": [...], "summary"}. Deterministic key order
/// and formatting; byte-identical across hosts and job counts (no
/// wall-clock fields). Schema-additive alongside the analyzer report's
/// JSON: shared spellings ("hot_share", "size_confidence", ...) keep
/// their meaning.
std::string renderVerifyJson(const VerifyReport &Report,
                             const workloads::DriverConfig &Config);

} // namespace core
} // namespace structslim

#endif // STRUCTSLIM_CORE_CLOSEDLOOP_H
