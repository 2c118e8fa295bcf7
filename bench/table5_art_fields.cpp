//===- bench/table5_art_fields.cpp - Paper Table 5 -------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 5: StructSlim's access-pattern analysis of ART,
// decomposing f1_neuron's access latency over its fields. Field R
// carries 0% because address sampling never observes an access to it
// (it is never read), exactly as the paper's footnote explains.
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

  std::cout << "Table 5: per-field latency decomposition of ART's "
               "f1_neuron\n"
            << "object share of total latency (l_d): "
            << formatPercent(Hot->HotShare) << " (paper: 80.4%)\n"
            << "inferred structure size: " << Hot->StructSize
            << " bytes\n\n";

  const std::map<std::string, double> Paper = {
      {"I", 5.5}, {"W", 2.0}, {"X", 3.7}, {"V", 3.7},
      {"U", 7.1}, {"P", 73.3}, {"Q", 4.7}, {"R", 0.0}};

  TablePrinter Table;
  Table.setHeader({"Field", "Latency %", "Paper %", "Samples"});
  for (const char *Name : {"I", "W", "X", "V", "U", "P", "Q", "R"}) {
    const core::FieldStat *F = nullptr;
    for (const core::FieldStat &Candidate : Hot->Fields)
      if (Candidate.Name == Name)
        F = &Candidate;
    Table.addRow({Name, F ? formatPercent(F->LatencyShare) : "0.0%",
                  formatDouble(Paper.at(Name), 1) + "%",
                  F ? std::to_string(F->SampleCount) : "0"});
  }
  Table.print(std::cout);
  std::cout << "\n(R row: 0% means address sampling captured no access "
               "to R, matching the paper)\n";
  return 0;
}
