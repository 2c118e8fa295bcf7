//===- bench/ext_casestudies.cpp - Extra case studies ----------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Runs the StructSlim pipeline on two case studies beyond the paper's
// seven — 429.mcf's arc structure and streamcluster's point structure,
// both classic splitting targets from the suites the paper's overhead
// figures cover — and prints the advice plus the end-to-end speedup.
// Shows the tool generalizing past its calibration set.
//
//===----------------------------------------------------------------------===//

#include "core/Advice.h"
#include "core/ClosedLoop.h"
#include "core/Report.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "workloads/Registry.h"

#include <iostream>

using namespace structslim;

int main(int argc, char **argv) {
  double Scale = 0.5;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--scale=", 0) == 0)
      Scale = std::stod(Arg.substr(8));
  }

  std::cout << "Extra case studies (beyond the paper's Table 2)\n\n";
  TablePrinter Table;
  Table.setHeader({"Benchmark", "Hot object", "l_d", "Inferred size",
                   "Clusters", "Speedup"});

  for (const auto &W : workloads::makeExtraWorkloads()) {
    workloads::DriverConfig Config;
    Config.Scale = Scale;
    core::WorkloadVerdict V = core::verifyWorkload(*W, Config);
    const core::ObjectAnalysis *Hot =
        V.Analysis.findObject(W->hotObjectName());
    Table.addRow({W->name(), W->hotObjectName(),
                  Hot ? formatPercent(Hot->HotShare) : "-",
                  Hot && Hot->StructSize
                      ? std::to_string(Hot->StructSize) + " B"
                      : "-",
                  std::to_string(V.Plan.ClusterOffsets.size()),
                  formatTimes(V.MeasuredSpeedup)});
    if (Hot) {
      ir::StructLayout Layout = W->hotLayout();
      std::cout << "--- " << W->name() << " ---\n"
                << core::renderAdviceText(V.Plan, *Hot, &Layout)
                << core::renderFieldTable(*Hot) << "\n";
    }
  }
  Table.print(std::cout);
  return 0;
}
