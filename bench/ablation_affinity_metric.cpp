//===- bench/ablation_affinity_metric.cpp - Latency vs counts --*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Ablation of the paper's latency-weighted affinity (Sec. 4.3): "unlike
// previous approaches that count the number of memory accesses, we use
// the memory access latency". This bench constructs the adversarial
// case: fields f and g are accessed together very frequently but the
// accesses are cheap (cache-resident small array), while field f is
// also accessed, less often but expensively, together with field h
// over a huge array. Frequency-based affinity (the Chilimbi-style
// baseline) pairs f with g; latency-based affinity (StructSlim) pairs
// f with h — and only the latter grouping speeds up the program.
//
//===----------------------------------------------------------------------===//

#include "HarnessArgs.h"
#include "analysis/CodeMap.h"
#include "baseline/FullTraceAffinity.h"
#include "core/Advice.h"
#include "core/Analyzer.h"
#include "ir/ProgramBuilder.h"
#include "profile/MergeTree.h"
#include "runtime/ThreadedRuntime.h"
#include "support/Format.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace structslim;
using ir::Reg;

namespace {

/// struct rec { long f; long g; long h; long pad; }  (32 bytes)
/// Hot loop A (cheap, frequent): touches f and g of the first few
/// elements only — always cache-resident.
/// Loop B (expensive, rarer): touches f and h across all N elements.
std::unique_ptr<ir::Program> buildAdversarial(int64_t N, int64_t HotReps,
                                              int64_t ColdReps) {
  auto P = std::make_unique<ir::Program>();
  ir::Function &F = P->addFunction("main", 0);
  ir::ProgramBuilder B(*P, F);
  B.setLine(1);
  Reg Bytes = B.constI(N * 32);
  Reg Base = B.alloc(Bytes, "rec");
  B.forLoopI(0, N, 1, [&](Reg I) {
    B.setLine(2);
    B.store(I, Base, I, 32, 0, 8);
    B.store(I, Base, I, 32, 8, 8);
    B.store(I, Base, I, 32, 16, 8);
    B.setLine(1);
  });
  Reg Acc = B.constI(0);
  // Loop A, lines 10-11: f+g over 64 elements, HotReps times.
  B.setLine(10);
  B.forLoopI(0, HotReps, 1, [&](Reg) {
    B.forLoopI(0, 64, 1, [&](Reg I) {
      B.setLine(11);
      Reg Fv = B.load(Base, I, 32, 0, 8);
      Reg Gv = B.load(Base, I, 32, 8, 8);
      B.accumulate(Acc, B.add(Fv, Gv));
      B.setLine(10);
    });
  });
  // Loop B, lines 20-21: f+h over all N elements, ColdReps times.
  B.setLine(20);
  B.forLoopI(0, ColdReps, 1, [&](Reg) {
    B.forLoopI(0, N, 1, [&](Reg I) {
      B.setLine(21);
      Reg Fv = B.load(Base, I, 32, 0, 8);
      Reg Hv = B.load(Base, I, 32, 16, 8);
      B.accumulate(Acc, B.add(Fv, Hv));
      B.setLine(20);
    });
  });
  B.ret(Acc);
  return P;
}

} // namespace

int main(int argc, char **argv) {
  int64_t N = 80000;
  int64_t HotReps = 12000; // 64 * 12000 = 768k cheap f+g pairs.
  int64_t ColdReps = 6;    // 80k * 6 = 480k expensive f+h pairs.
  benchutil::parseHarnessArgs(argc, argv, {{"--n", &N}});

  auto P = buildAdversarial(N, HotReps, ColdReps);
  analysis::CodeMap Map(*P);

  // StructSlim: latency-weighted affinity from address samples.
  runtime::RunConfig Cfg;
  Cfg.Sampling.Period = 2000;
  runtime::ThreadedRuntime RT(Cfg);
  baseline::FullTraceAffinityProfiler Frequency(Map, RT.machine().Objects,
                                                {{"rec", 32}});
  RT.runPhase(*P, &Map, {runtime::ThreadSpec{P->getEntry(), {}}},
              &Frequency);
  runtime::RunResult Run = RT.finish();
  profile::Profile Merged = profile::mergeProfiles(std::move(Run.Profiles));

  ir::StructLayout Layout("rec");
  Layout.addField("f", 8);
  Layout.addField("g", 8);
  Layout.addField("h", 8);
  Layout.addField("pad", 8);
  Layout.finalize();
  core::StructSlimAnalyzer Analyzer(Map);
  Analyzer.registerLayout("rec", Layout);
  core::AnalysisResult Result = Analyzer.analyze(Merged);
  const core::ObjectAnalysis *Rec = Result.findObject("rec");
  if (!Rec) {
    std::cerr << "analysis did not surface 'rec'\n";
    return 1;
  }

  auto LatencyAff = [&](const char *A, const char *B) {
    for (size_t I = 0; I != Rec->Fields.size(); ++I)
      for (size_t J = 0; J != Rec->Fields.size(); ++J)
        if (Rec->Fields[I].Name == A && Rec->Fields[J].Name == B)
          return Rec->Affinity[I][J];
    return 0.0;
  };

  std::cout << "Ablation: latency-weighted (StructSlim) vs "
               "frequency-weighted (Chilimbi-style) field affinity\n"
            << "f+g: frequent but cheap; f+h: rarer but expensive\n\n";
  TablePrinter Table;
  Table.setHeader({"Pair", "Latency-based A_ij", "Frequency-based A_ij"});
  Table.addRow({"f-g", formatDouble(LatencyAff("f", "g"), 3),
                formatDouble(Frequency.affinity("rec", 0, 8), 3)});
  Table.addRow({"f-h", formatDouble(LatencyAff("f", "h"), 3),
                formatDouble(Frequency.affinity("rec", 0, 16), 3)});
  Table.print(std::cout);

  bool LatencyPairsFH = LatencyAff("f", "h") > LatencyAff("f", "g");
  bool FrequencyPairsFG =
      Frequency.affinity("rec", 0, 8) > Frequency.affinity("rec", 0, 16);
  std::cout << "\nlatency metric pairs f with "
            << (LatencyPairsFH ? "h (correct: that is where the "
                                 "memory-stall money is)"
                               : "g")
            << "\nfrequency metric pairs f with "
            << (FrequencyPairsFG ? "g (misled by cheap cache hits)" : "h")
            << "\n";
  return 0;
}
