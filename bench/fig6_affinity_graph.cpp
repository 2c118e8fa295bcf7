//===- bench/fig6_affinity_graph.cpp - Paper Figure 6 ----------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 6: the affinity graph StructSlim emits for ART's
// f1_neuron structure (Graphviz dot, one subgraph cluster per suggested
// new structure), plus the full affinity matrix and the Fig. 7 split.
// The paper highlights affinity(I, U) = 0.86, a high X-Q affinity, and
// affinity(P, U) = 0.05 despite P and U sharing two loops.
//
//===----------------------------------------------------------------------===//

#include "HarnessArgs.h"
#include "core/Advice.h"
#include "core/Report.h"
#include "support/Format.h"
#include "workloads/Driver.h"
#include "workloads/Registry.h"

#include <iostream>

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
  ir::StructLayout Layout = W->hotLayout();
  Analyzer.registerLayout(W->hotObjectName(), Layout);
  core::AnalysisResult Result = Analyzer.analyze(Run.Merged);
  const core::ObjectAnalysis *Hot = Result.findObject("f1_neuron");
  if (!Hot) {
    std::cerr << "analysis did not surface f1_neuron\n";
    return 1;
  }

  std::cout << "Figure 6: affinity graph for ART's f1_neuron\n\n";
  std::cout << core::renderAffinityMatrix(*Hot) << "\n";

  auto Affinity = [&](const char *A, const char *B) {
    for (size_t I = 0; I != Hot->Fields.size(); ++I)
      for (size_t J = 0; J != Hot->Fields.size(); ++J)
        if (Hot->Fields[I].Name == A && Hot->Fields[J].Name == B)
          return Hot->Affinity[I][J];
    return -1.0;
  };
  std::cout << "affinity(I, U) = " << formatDouble(Affinity("I", "U"), 2)
            << "  (paper: 0.86)\n";
  std::cout << "affinity(X, Q) = " << formatDouble(Affinity("X", "Q"), 2)
            << "  (paper: high)\n";
  std::cout << "affinity(P, U) = " << formatDouble(Affinity("P", "U"), 2)
            << "  (paper: 0.05)\n\n";

  std::cout << core::affinityGraphDot(*Hot) << "\n";

  core::SplitPlan Plan = core::makeSplitPlan(*Hot, &Layout);
  std::cout << "Figure 7: the resulting split\n"
            << core::renderAdviceText(Plan, *Hot, &Layout);
  return 0;
}
