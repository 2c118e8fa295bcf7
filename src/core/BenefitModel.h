//===- core/BenefitModel.h - What-if split benefit estimate ----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Predicts, from the profile alone, how much latency a split plan
/// would remove — before any transformation runs. The model uses the
/// first-principles geometry argument from the paper's introduction:
/// a strided sweep over an S-byte structure pulls whole cache lines but
/// uses only its cluster's bytes, so after splitting a field into a
/// cluster of size S_c its beyond-L1 (miss) latency scales by ~S_c/S,
/// while its L1-hit latency is unaffected. The per-field serving-level
/// decomposition PEBS provides (FieldStat::LevelSamples) supplies the
/// miss fraction. The estimate is deliberately simple — the point is
/// ranking candidate objects and sanity-checking plans cheaply, the way
/// a compiler consuming StructSlim's advice would.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_CORE_BENEFITMODEL_H
#define STRUCTSLIM_CORE_BENEFITMODEL_H

#include "core/Advice.h"
#include "core/Analyzer.h"

namespace structslim {
namespace core {

/// What-if outcome for one object + plan.
struct BenefitEstimate {
  /// Fraction of the *object's* sampled latency the split removes
  /// (0 = none, approaching 1 = almost all).
  double ObjectLatencyReduction = 0;
  /// Predicted whole-program speedup, combining the object reduction
  /// with its l_d share via Amdahl's law over sampled latency.
  double PredictedSpeedup = 1.0;
  /// Per plan cluster: new element size in bytes.
  std::vector<uint64_t> ClusterSizes;
};

/// Estimates \p Plan's benefit for \p Analysis. \p MemoryShare is the
/// fraction of total execution time that is memory latency, measured
/// from the profiled run (verifyWorkload derives it); it damps the
/// Amdahl projection, so a program that is not purely memory bound
/// gains less than its object reduction alone suggests.
BenefitEstimate estimateSplitBenefit(const ObjectAnalysis &Analysis,
                                     const SplitPlan &Plan,
                                     double MemoryShare);

} // namespace core
} // namespace structslim

#endif // STRUCTSLIM_CORE_BENEFITMODEL_H
