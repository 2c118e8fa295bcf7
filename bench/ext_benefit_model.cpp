//===- bench/ext_benefit_model.cpp - Predicted vs measured -----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Validates the what-if benefit estimator: for every paper benchmark,
// predicts the split speedup from the profile alone (no transform, no
// re-run) and compares it against the measured end-to-end speedup.
// MemoryShare is derived per benchmark from the profiled run (sampled
// latency scaled by the sampling period over total simulated cycles).
// The estimator should rank the benchmarks the way the measurement
// does and land within a reasonable band — it is a triage tool, not a
// simulator.
//
//===----------------------------------------------------------------------===//

#include "core/BenefitModel.h"
#include "core/ClosedLoop.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "workloads/Registry.h"

#include <algorithm>
#include <iostream>

using namespace structslim;

int main(int argc, char **argv) {
  double Scale = 0.5;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--scale=", 0) == 0)
      Scale = std::stod(Arg.substr(8));
  }

  std::cout << "What-if benefit model: predicted (profile-only) vs "
               "measured split speedup\n\n";
  TablePrinter Table;
  Table.setHeader({"Benchmark", "Object reduction (pred)", "Mem share",
                   "Predicted speedup", "Measured speedup"});

  for (const auto &W : workloads::makePaperWorkloads()) {
    workloads::DriverConfig Config;
    Config.Scale = Scale;
    core::WorkloadVerdict V = core::verifyWorkload(*W, Config);
    const core::ObjectAnalysis *Hot =
        V.Analysis.findObject(W->hotObjectName());
    if (!Hot) {
      Table.addRow({W->name(), "-", "-", "-", formatTimes(V.MeasuredSpeedup)});
      continue;
    }
    // Sampled latency approximates 1/period of true memory latency.
    double MemCycles =
        static_cast<double>(V.Analysis.TotalLatency) *
        static_cast<double>(Config.Run.Sampling.Period);
    // Total cycles as if detached: the sample-handler charge removed.
    uint64_t DetachedCycles =
        V.Profiled.TotalCycles -
        V.Profiled.Samples * Config.Run.SampleHandlerCycles;
    double MemShare =
        std::min(1.0, MemCycles / static_cast<double>(DetachedCycles));
    core::BenefitEstimate Est =
        core::estimateSplitBenefit(*Hot, V.Plan, MemShare);
    Table.addRow({W->name(),
                  formatPercent(Est.ObjectLatencyReduction),
                  formatPercent(MemShare),
                  formatTimes(Est.PredictedSpeedup),
                  formatTimes(V.MeasuredSpeedup)});
  }
  Table.print(std::cout);
  std::cout << "\n(the estimate uses only the profile: per-field "
               "latency, PEBS serving-level mix, and the plan's new "
               "element sizes)\n";
  return 0;
}
