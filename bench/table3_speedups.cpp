//===- bench/table3_speedups.cpp - Paper Table 3 ---------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 3: end-to-end speedup from structure splitting
// guided by StructSlim, plus StructSlim's measurement overhead, for the
// seven benchmarks of Table 2. Execution time is simulated cycles
// (interpreter cost model); overhead is both simulated (sampling
// interrupt + online handler cycles) and host wall-clock.
//
// Flags: --scale=<f>   working-set scale (default 0.5)
//        --advice      also print each benchmark's splitting advice
//                      (the paper's Figs. 7-13)
//
//===----------------------------------------------------------------------===//

#include "core/Advice.h"
#include "core/ClosedLoop.h"
#include "core/Report.h"
#include "support/Format.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "workloads/Registry.h"

#include <iostream>
#include <string>

using namespace structslim;

namespace {

struct PaperRow {
  const char *Name;
  double Speedup;
  double OverheadPct;
};

constexpr PaperRow PaperTable3[] = {
    {"179.ART", 1.37, 2.05},  {"462.libquantum", 1.09, 2.79},
    {"TSP", 1.09, 2.42},      {"Mser", 1.03, 2.95},
    {"CLOMP 1.2", 1.25, 16.1}, {"Health", 1.12, 18.3},
    {"NN", 1.33, 5.21},
};

double paperSpeedup(const std::string &Name) {
  for (const PaperRow &Row : PaperTable3)
    if (Name == Row.Name)
      return Row.Speedup;
  return 0;
}

double paperOverhead(const std::string &Name) {
  for (const PaperRow &Row : PaperTable3)
    if (Name == Row.Name)
      return Row.OverheadPct;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  double Scale = 0.5;
  bool PrintAdvice = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--scale=", 0) == 0)
      Scale = std::stod(Arg.substr(8));
    else if (Arg == "--advice")
      PrintAdvice = true;
  }

  std::cout << "Table 3: speedups from StructSlim-guided structure "
               "splitting and measurement overhead\n"
            << "(simulated memory hierarchy; paper values shown for "
               "shape comparison)\n\n";

  TablePrinter Table;
  Table.setHeader({"Benchmark", "Original (Mcycles)", "Split (Mcycles)",
                   "Speedup", "Paper speedup", "Overhead (sim)",
                   "Overhead (paper)", "Samples"});

  std::vector<double> Speedups;
  for (const auto &W : workloads::makePaperWorkloads()) {
    workloads::DriverConfig Config;
    Config.Scale = Scale;
    core::WorkloadVerdict V = core::verifyWorkload(*W, Config);
    Speedups.push_back(V.MeasuredSpeedup);

    Table.addRow({W->name(), formatDouble(V.Before.ElapsedCycles / 1e6, 1),
                  formatDouble(V.After.ElapsedCycles / 1e6, 1),
                  formatTimes(V.MeasuredSpeedup),
                  formatTimes(paperSpeedup(W->name())),
                  formatPercent(V.OverheadSim),
                  formatDouble(paperOverhead(W->name()), 2) + "%",
                  std::to_string(V.Profiled.Samples)});

    if (PrintAdvice) {
      std::cout << "--- " << W->name() << " (" << W->suite() << ") ---\n";
      if (const core::ObjectAnalysis *Hot =
              V.Analysis.findObject(W->hotObjectName())) {
        ir::StructLayout Layout = W->hotLayout();
        std::cout << core::renderAdviceText(V.Plan, *Hot, &Layout);
        std::cout << core::renderFieldTable(*Hot) << "\n";
      } else {
        std::cout << "(hot object not found by the analysis)\n";
      }
    }
  }

  Table.addRow({"average", "", "", formatTimes(geomean(Speedups)), "1.18x",
                "", "7.1%", ""});
  Table.print(std::cout);
  return 0;
}
