//===- bench/OverheadSuite.h - Shared overhead-figure harness --*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Shared driver for Figures 4 and 5: runs every benchmark of a
// synthetic suite twice (profiler detached / attached) and tabulates
// the per-benchmark overhead, the quantity the paper's bar charts show.
//
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_BENCH_OVERHEADSUITE_H
#define STRUCTSLIM_BENCH_OVERHEADSUITE_H

#include "HarnessArgs.h"
#include "analysis/CodeMap.h"
#include "runtime/ThreadedRuntime.h"
#include "support/Format.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "workloads/Synthetic.h"

#include <iostream>
#include <string>
#include <vector>

namespace structslim {
namespace benchutil {

inline runtime::RunResult runSpec(const workloads::SyntheticSpec &Spec,
                                  double Scale, bool Attach) {
  runtime::RunConfig Cfg;
  Cfg.AttachProfiler = Attach;
  runtime::ThreadedRuntime RT(Cfg);
  workloads::BuiltWorkload Built = workloads::buildSynthetic(Spec, Scale);
  analysis::CodeMap Map(*Built.Program);
  for (const auto &Phase : Built.Phases)
    RT.runPhase(*Built.Program, &Map, Phase);
  return RT.finish();
}

inline int runOverheadSuite(const std::vector<workloads::SyntheticSpec> &Suite,
                            const char *Title, double PaperAverage,
                            int argc, char **argv) {
  double Scale = 1.0;
  parseHarnessArgs(argc, argv, {{"--scale", &Scale}});

  std::cout << Title << "\n\n";
  TablePrinter Table;
  Table.setHeader({"Benchmark", "Overhead (sim)", "Overhead (wall)",
                   "Samples", "Accesses"});
  std::vector<double> Overheads;
  for (const workloads::SyntheticSpec &Spec : Suite) {
    runtime::RunResult Detached = runSpec(Spec, Scale, false);
    runtime::RunResult Attached = runSpec(Spec, Scale, true);
    double Sim = Detached.ElapsedCycles == 0
                     ? 0.0
                     : static_cast<double>(Attached.ElapsedCycles) /
                               Detached.ElapsedCycles -
                           1.0;
    double Wall = Detached.WallSeconds <= 0
                      ? 0.0
                      : Attached.WallSeconds / Detached.WallSeconds - 1.0;
    Overheads.push_back(Sim);
    Table.addRow({Spec.Name, formatPercent(Sim), formatPercent(Wall),
                  std::to_string(Attached.Samples),
                  std::to_string(Attached.MemoryAccesses)});
  }
  Table.addRow({"average", formatPercent(mean(Overheads)), "",
                "(paper: " + formatDouble(PaperAverage, 1) + "%)", ""});
  Table.print(std::cout);
  return 0;
}

} // namespace benchutil
} // namespace structslim

#endif // STRUCTSLIM_BENCH_OVERHEADSUITE_H
