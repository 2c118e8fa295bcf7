//===- examples/art_casestudy.cpp - The paper's Sec. 6.1 walk --*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Reproduces the ART case study end to end exactly as Sec. 6.1
// narrates it:
//   1. the data-centric metric l_d flags f1_neuron,
//   2. the access-pattern analysis decomposes its latency over fields
//      (Table 5) and loops (Table 6),
//   3. the affinity graph (Fig. 6) clusters I-U and X-Q, isolates P,
//   4. the structure is split into six new structs (Fig. 7),
//   5. the split program runs ~1.37x faster.
//
//===----------------------------------------------------------------------===//

#include "core/Advice.h"
#include "core/ClosedLoop.h"
#include "core/Report.h"
#include "support/Format.h"
#include "workloads/Registry.h"

#include <iostream>

using namespace structslim;

int main(int argc, char **argv) {
  double Scale = 0.6;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--scale=", 0) == 0)
      Scale = std::stod(Arg.substr(8));
  }

  auto W = workloads::makeArt();
  workloads::DriverConfig Config;
  Config.Scale = Scale;

  std::cout << "=== StructSlim case study: SPEC CPU2000 179.art ===\n\n";
  core::WorkloadVerdict V = core::verifyWorkload(*W, Config);

  std::cout << "Step 1 - pinpointing hot data (Eq. 1):\n"
            << core::renderHotObjects(V.Analysis) << "\n";

  const core::ObjectAnalysis *Hot = V.Analysis.findObject("f1_neuron");
  if (!Hot) {
    std::cerr << "f1_neuron not surfaced; increase --scale\n";
    return 1;
  }

  std::cout << "Step 2a - field decomposition (Table 5):\n"
            << core::renderFieldTable(*Hot) << "\n";
  std::cout << "Step 2a' - PEBS data-source view (serving level per "
               "field):\n"
            << core::renderFieldLevelTable(*Hot) << "\n";
  std::cout << "Step 2b - loop view (Table 6):\n"
            << core::renderLoopTable(*Hot) << "\n";
  std::cout << "Step 3 - affinities (Eq. 7, Fig. 6):\n"
            << core::renderAffinityMatrix(*Hot) << "\n";

  ir::StructLayout Layout = W->hotLayout();
  std::cout << "Step 4 - splitting advice (Fig. 7):\n"
            << core::renderAdviceText(V.Plan, *Hot, &Layout) << "\n";

  std::cout << "Step 5 - applying the split and re-running:\n"
            << "  original: " << V.Before.ElapsedCycles / 1000000
            << " Mcycles\n"
            << "  split:    " << V.After.ElapsedCycles / 1000000
            << " Mcycles\n"
            << "  speedup:  " << formatTimes(V.MeasuredSpeedup)
            << "   (paper: 1.37x)\n"
            << "  L1 miss reduction: " << formatPercent(V.MissReduction[0])
            << "   (paper: 46.5%)\n"
            << "  L2 miss reduction: " << formatPercent(V.MissReduction[1])
            << "   (paper: 51.1%)\n"
            << "  profiler overhead: " << formatPercent(V.OverheadSim)
            << "   (paper: 2.05%)\n";
  return 0;
}
