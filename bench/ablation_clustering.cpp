//===- bench/ablation_clustering.cpp - Clustering methods ------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Ablation of the paper's clustering rule ("cluster all fields with
// high affinities" = threshold + connected components) against
// agglomerative average-linkage clustering. On clean affinity
// structures like ART's the two agree exactly; the synthetic "chain"
// case (A-B and B-C strongly affine, A-C never co-accessed) shows where
// they diverge: the transitive method fuses all three while average
// linkage keeps the unrelated pair apart. The measured speedups show
// which grouping the memory system prefers for the chain.
//
//===----------------------------------------------------------------------===//

#include "analysis/CodeMap.h"
#include "core/Advice.h"
#include "core/ClosedLoop.h"
#include "ir/ProgramBuilder.h"
#include "profile/MergeTree.h"
#include "runtime/ThreadedRuntime.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "workloads/Registry.h"

#include <iostream>

using namespace structslim;
using ir::Reg;

namespace {

/// The chain program: struct {a, b, c, pad}; loop 1 reads a+b, loop 2
/// reads b+c, equally hot; a and c never meet.
std::unique_ptr<ir::Program> buildChain(int64_t N, int64_t Reps) {
  auto P = std::make_unique<ir::Program>();
  ir::Function &F = P->addFunction("main", 0);
  ir::ProgramBuilder B(*P, F);
  B.setLine(1);
  Reg Bytes = B.constI(N * 32);
  Reg Base = B.alloc(Bytes, "chain");
  B.forLoopI(0, N, 1, [&](Reg I) {
    B.setLine(2);
    B.store(I, Base, I, 32, 0, 8);
    B.store(I, Base, I, 32, 8, 8);
    B.store(I, Base, I, 32, 16, 8);
    B.setLine(1);
  });
  Reg Acc = B.constI(0);
  B.setLine(10);
  B.forLoopI(0, Reps, 1, [&](Reg) {
    B.forLoopI(0, N, 1, [&](Reg I) {
      B.setLine(11);
      B.accumulate(Acc, B.add(B.load(Base, I, 32, 0, 8),
                              B.load(Base, I, 32, 8, 8)));
      B.setLine(10);
    });
  });
  B.setLine(20);
  B.forLoopI(0, Reps, 1, [&](Reg) {
    B.forLoopI(0, N, 1, [&](Reg I) {
      B.setLine(21);
      B.accumulate(Acc, B.add(B.load(Base, I, 32, 8, 8),
                              B.load(Base, I, 32, 16, 8)));
      B.setLine(20);
    });
  });
  B.ret(Acc);
  return P;
}

std::string planText(const core::SplitPlan &Plan) {
  std::vector<std::string> Parts;
  for (const auto &Cluster : Plan.ClusterOffsets) {
    std::string S = "{";
    for (size_t I = 0; I != Cluster.size(); ++I)
      S += (I ? "," : "") + std::to_string(Cluster[I]);
    Parts.push_back(S + "}");
  }
  return join(Parts, " ");
}

} // namespace

int main(int argc, char **argv) {
  double Scale = 0.5;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--scale=", 0) == 0)
      Scale = std::stod(Arg.substr(8));
  }

  std::cout << "Ablation: threshold (paper) vs average-linkage "
               "hierarchical clustering\n\n";

  // --- ART: both methods should produce Fig. 7. ----------------------
  {
    auto W = workloads::makeArt();
    TablePrinter Table;
    Table.setHeader({"Method", "ART clusters", "Speedup"});
    for (auto Method : {core::ClusteringMethod::Threshold,
                        core::ClusteringMethod::Hierarchical}) {
      workloads::DriverConfig Config;
      Config.Scale = Scale;
      Config.Analysis.Clustering = Method;
      core::WorkloadVerdict V = core::verifyWorkload(*W, Config);
      Table.addRow({Method == core::ClusteringMethod::Threshold
                        ? "threshold (paper)"
                        : "average linkage",
                    planText(V.Plan), formatTimes(V.MeasuredSpeedup)});
    }
    Table.print(std::cout);
    std::cout << "\n";
  }

  // --- The chain case: the methods diverge. --------------------------
  auto P = buildChain(60000, 14);
  analysis::CodeMap Map(*P);
  runtime::RunConfig RunCfg;
  RunCfg.Sampling.Period = 2000;
  runtime::ThreadedRuntime RT(RunCfg);
  RT.runPhase(*P, &Map, {runtime::ThreadSpec{P->getEntry(), {}}});
  runtime::RunResult Run = RT.finish();
  profile::Profile Merged = profile::mergeProfiles(std::move(Run.Profiles));

  ir::StructLayout Layout("chain");
  Layout.addField("a", 8);
  Layout.addField("b", 8);
  Layout.addField("c", 8);
  Layout.addField("pad", 8);
  Layout.finalize();

  std::cout << "chain case (a-b and b-c affine, a-c never together):\n";
  TablePrinter Table;
  Table.setHeader({"Method", "Clusters (offsets)"});
  for (auto Method : {core::ClusteringMethod::Threshold,
                      core::ClusteringMethod::Hierarchical}) {
    core::AnalysisConfig Cfg;
    Cfg.Clustering = Method;
    core::StructSlimAnalyzer Analyzer(Map, Cfg);
    Analyzer.registerLayout("chain", Layout);
    core::AnalysisResult Result = Analyzer.analyze(Merged);
    const core::ObjectAnalysis *Hot = Result.findObject("chain");
    if (!Hot) {
      std::cerr << "chain not surfaced\n";
      return 1;
    }
    core::SplitPlan Plan = core::makeSplitPlan(*Hot, &Layout);
    Table.addRow({Method == core::ClusteringMethod::Threshold
                      ? "threshold (paper)"
                      : "average linkage",
                  planText(Plan)});
  }
  Table.print(std::cout);
  std::cout << "\n(threshold clustering is transitive and fuses the "
               "whole chain; average linkage keeps a and c apart "
               "unless their own affinity supports the merge)\n";
  return 0;
}
