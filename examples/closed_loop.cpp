//===- examples/closed_loop.cpp - Advice to measured speedup ---*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// The whole pipeline as one call: for a serial workload (ART) and a
// parallel one (CLOMP), core::verifyWorkload profiles the original
// program, runs the offline analyzer, converts the hot object's
// SplitPlan into an actual rewrite — the IR-level split through the
// allocation token; CLOMP's workers receive the array through a
// mailbox slot, which the splitter widens to one slot per group — and
// re-simulates under the identical cache hierarchy.
//
// The printed verdicts show what closing the loop adds over advice
// alone: the measured speedup next to the BenefitModel's prediction,
// per-level miss reductions, and the semantic results_match check
// that the rewritten program computed the same answers.
//
// Build & run:
//   cmake --build build -j --target closed_loop
//   ./build/examples/closed_loop
//
// The same loop is available from the command line over all seven
// paper workloads as tools/structslim-verify.
//
//===----------------------------------------------------------------------===//

#include "core/ClosedLoop.h"
#include "workloads/Registry.h"

#include <iostream>

using namespace structslim;

int main() {
  workloads::DriverConfig Config;
  Config.Scale = 0.2; // Keep the demo under a second.

  std::vector<std::unique_ptr<workloads::Workload>> Workloads;
  Workloads.push_back(workloads::makeArt());   // Serial.
  Workloads.push_back(workloads::makeClomp()); // Parallel: mailbox base.

  core::VerifyReport Report = core::verifyWorkloads(Workloads, Config);
  std::cout << core::renderVerifyText(Report);

  for (const core::WorkloadVerdict &V : Report.Workloads) {
    std::cout << "\n" << V.Name << " via " << core::applyModeName(V.Mode)
              << ": " << V.Before.ElapsedCycles << " -> "
              << V.After.ElapsedCycles << " cycles, plan:\n"
              << core::renderSplitPlanJson(V.Plan) << "\n";
  }
  return Report.allOk() ? 0 : 1;
}
