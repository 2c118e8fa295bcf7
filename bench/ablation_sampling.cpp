//===- bench/ablation_sampling.cpp - Sampling-period ablation --*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Ablation of the paper's fixed choice of one sample per 10,000
// accesses (Sec. 6): sweeps the sampling period on ART and reports, per
// period, the measurement overhead, the number of samples, whether the
// structure size is still inferred exactly, and whether the advice
// still matches Fig. 7's six clusters. Shows the overhead/robustness
// trade-off that motivates the paper's setting.
//
//===----------------------------------------------------------------------===//

#include "HarnessArgs.h"
#include "core/Advice.h"
#include "core/ClosedLoop.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "workloads/Registry.h"

#include <iostream>

using namespace structslim;

int main(int argc, char **argv) {
  double Scale = 0.6;
  benchutil::parseHarnessArgs(argc, argv, {{"--scale", &Scale}});

  auto W = workloads::makeArt();
  ir::StructLayout Layout = W->hotLayout();

  std::cout << "Ablation: sampling period vs overhead and advice "
               "quality on ART (paper fixes 1/10000)\n\n";
  TablePrinter Table;
  Table.setHeader({"Period", "Samples", "Overhead (sim)", "Struct size",
                   "Clusters", "Fig.7 advice?", "Speedup"});

  for (uint64_t Period :
       {250ull, 1000ull, 4000ull, 10000ull, 40000ull, 160000ull}) {
    workloads::DriverConfig Config;
    Config.Scale = Scale;
    Config.Run.Sampling.Period = Period;
    core::WorkloadVerdict V = core::verifyWorkload(*W, Config);

    const core::ObjectAnalysis *Hot = V.Analysis.findObject("f1_neuron");
    uint64_t Size = Hot ? Hot->StructSize : 0;
    size_t Clusters = V.Plan.ClusterOffsets.size();
    // Fig. 7: {P} {I,U} {X,Q} {V} {W} {R} — six clusters with the I/U
    // and X/Q pairings.
    bool Fig7 = Clusters == 6 && Size == 64;
    if (Fig7) {
      auto Has = [&](std::vector<uint32_t> Want) {
        for (const auto &C : V.Plan.ClusterOffsets)
          if (C == Want)
            return true;
        return false;
      };
      Fig7 = Has({0, 32}) && Has({16, 48}) && Has({40});
    }
    Table.addRow({std::to_string(Period),
                  std::to_string(V.Profiled.Samples),
                  formatPercent(V.OverheadSim),
                  Size ? std::to_string(Size) + " B" : "-",
                  std::to_string(Clusters), Fig7 ? "yes" : "no",
                  formatTimes(V.MeasuredSpeedup)});
  }
  Table.print(std::cout);
  std::cout << "\n(denser sampling buys nothing once the advice is "
               "stable; sparser sampling eventually starves cold "
               "fields of samples)\n";
  return 0;
}
