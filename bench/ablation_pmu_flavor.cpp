//===- bench/ablation_pmu_flavor.cpp - PEBS-LL vs IBS ----------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// StructSlim runs on Intel PEBS-LL and AMD IBS (paper Table 1 / Sec. 2)
// — the two mechanisms that report latency. They differ in coverage:
// PEBS-LL samples loads only, IBS samples stores too. This ablation
// runs ART under both flavors and compares what the analysis sees:
// store-only fields (ART writes every field during initialization, but
// R is never *read*) appear under IBS yet stay invisible under
// PEBS-LL, while the splitting advice — driven by the hot load loops —
// comes out the same.
//
//===----------------------------------------------------------------------===//

#include "HarnessArgs.h"
#include "core/Advice.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "workloads/Driver.h"
#include "workloads/Registry.h"

#include <iostream>
#include <set>

using namespace structslim;

namespace {

struct FlavorResult {
  core::AnalysisResult Analysis;
  core::SplitPlan Plan;
  uint64_t Samples = 0;
};

FlavorResult runFlavor(const workloads::Workload &W, pmu::PmuFlavor Flavor,
                       double Scale) {
  workloads::DriverConfig Config;
  Config.Scale = Scale;
  Config.Run.Sampling.Flavor = Flavor;
  transform::FieldMap Map(W.hotLayout());
  workloads::WorkloadRun Run =
      workloads::runWorkload(W, Map, Config, /*Attach=*/true);
  core::StructSlimAnalyzer Analyzer(*Run.CodeMap, Config.Analysis);
  ir::StructLayout Layout = W.hotLayout();
  Analyzer.registerLayout(W.hotObjectName(), Layout);
  FlavorResult Out;
  Out.Analysis = Analyzer.analyze(Run.Merged);
  if (const core::ObjectAnalysis *Hot =
          Out.Analysis.findObject(W.hotObjectName()))
    Out.Plan = core::makeSplitPlan(*Hot, &Layout);
  Out.Samples = Run.Merged.TotalSamples;
  return Out;
}

std::set<std::string> observedFields(const FlavorResult &R,
                                     const std::string &Object) {
  std::set<std::string> Names;
  if (const core::ObjectAnalysis *Hot = R.Analysis.findObject(Object))
    for (const core::FieldStat &F : Hot->Fields)
      Names.insert(F.Name);
  return Names;
}

} // namespace

int main(int argc, char **argv) {
  double Scale = 0.6;
  benchutil::parseHarnessArgs(argc, argv, {{"--scale", &Scale}});

  auto W = workloads::makeArt();
  FlavorResult Pebs = runFlavor(*W, pmu::PmuFlavor::PebsLoadLatency, Scale);
  FlavorResult Ibs = runFlavor(*W, pmu::PmuFlavor::IbsOp, Scale);

  std::cout << "Ablation: PEBS-LL (loads only) vs IBS (loads + stores) "
               "on ART\n\n";
  TablePrinter Table;
  Table.setHeader({"Flavor", "Samples", "Fields observed", "Clusters",
                   "R visible?"});
  auto Row = [&](const char *Name, const FlavorResult &R) {
    auto Fields = observedFields(R, "f1_neuron");
    std::vector<std::string> Sorted(Fields.begin(), Fields.end());
    Table.addRow({Name, std::to_string(R.Samples),
                  join(Sorted, " "),
                  std::to_string(R.Plan.ClusterOffsets.size()),
                  Fields.count("R") ? "yes (store samples)" : "no"});
  };
  Row("PEBS-LL", Pebs);
  Row("IBS", Ibs);
  Table.print(std::cout);

  bool SameHotPair =
      !Pebs.Plan.ClusterOffsets.empty() &&
      !Ibs.Plan.ClusterOffsets.empty() &&
      Pebs.Plan.ClusterOffsets[0] == Ibs.Plan.ClusterOffsets[0];
  std::cout << "\nhottest cluster identical under both flavors: "
            << (SameHotPair ? "yes" : "no")
            << "\n(IBS additionally observes write-only activity — "
               "e.g. initialization stores — which PEBS-LL cannot "
               "see; the advice driven by hot load loops agrees)\n";
  return 0;
}
