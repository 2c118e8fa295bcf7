//===- bench/table6_art_loops.cpp - Paper Table 6 --------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 6: StructSlim's code-centric view of ART — per
// monitored loop, the share of f1_neuron's latency and the set of
// fields accessed in that loop. Loop names are source-line ranges from
// the interval analysis on the binary.
//
//===----------------------------------------------------------------------===//

#include "HarnessArgs.h"
#include "core/Report.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "workloads/Driver.h"
#include "workloads/Registry.h"

#include <iostream>
#include <map>

using namespace structslim;

int main(int argc, char **argv) {
  double Scale = 1.0;
  benchutil::parseHarnessArgs(argc, argv, {{"--scale", &Scale}});

  auto W = workloads::makeArt();
  workloads::DriverConfig Config;
  Config.Scale = Scale;
  transform::FieldMap Map(W->hotLayout());
  workloads::WorkloadRun Run =
      workloads::runWorkload(*W, Map, Config, /*Attach=*/true);
  core::StructSlimAnalyzer Analyzer(*Run.CodeMap);
  Analyzer.registerLayout(W->hotObjectName(), W->hotLayout());
  core::AnalysisResult Result = Analyzer.analyze(Run.Merged);

  const core::ObjectAnalysis *Hot = Result.findObject("f1_neuron");
  if (!Hot) {
    std::cerr << "analysis did not surface f1_neuron\n";
    return 1;
  }

  // Paper Table 6 rows for side-by-side comparison.
  const std::map<std::string, std::pair<double, const char *>> Paper = {
      {"131-138", {1.59, "U, P"}},   {"559-570", {8.42, "X, Q"}},
      {"553-554", {1.98, "W"}},      {"545-548", {10.83, "U, I"}},
      {"615-616", {56.57, "P"}},     {"607-608", {14.40, "P"}},
      {"589-592", {2.25, "U, P"}},   {"575-576", {3.72, "V"}},
      {"1015-1016", {0.24, "I"}},
  };

  std::cout << "Table 6: latency per monitored loop of ART and the "
               "fields accessed there\n\n";
  TablePrinter Table;
  Table.setHeader({"Loop (lines)", "Latency %", "Fields", "Paper %",
                   "Paper fields"});
  for (const core::LoopStat &L : Hot->Loops) {
    std::vector<std::string> Names;
    for (uint32_t Offset : L.Offsets) {
      const core::FieldStat *F = Hot->fieldAtOffset(Offset);
      Names.push_back(F ? F->Name : "off" + std::to_string(Offset));
    }
    auto It = Paper.find(L.LoopName);
    Table.addRow({L.LoopName, formatPercent(L.LatencyShare),
                  join(Names, ", "),
                  It != Paper.end() ? formatDouble(It->second.first, 2) + "%"
                                    : "-",
                  It != Paper.end() ? It->second.second : "-"});
  }
  Table.print(std::cout);
  std::cout << "\n(the bus sweep at 700-703 belongs to a different data "
               "object and the paper's table lists f1_neuron loops "
               "only)\n";
  return 0;
}
