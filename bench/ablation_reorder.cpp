//===- bench/ablation_reorder.cpp - Split vs reorder ------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Compares the two layout transformations the same StructSlim analysis
// can drive: full structure splitting (the paper's) versus in-place
// field *reordering* (hot cluster packed first — the conservative
// fallback when splitting is unsafe, e.g. escaping pointers or ABI
// constraints). The record spans two cache lines (128 bytes) with the
// two hot fields on different lines; reordering brings them onto one
// line (halving the misses), while splitting also drops the cold bytes
// from the stream and wins outright:
//
//   expected ordering: split > reorder > original.
//
//===----------------------------------------------------------------------===//

#include "HarnessArgs.h"
#include "analysis/CodeMap.h"
#include "core/Advice.h"
#include "ir/ProgramBuilder.h"
#include "profile/MergeTree.h"
#include "runtime/ThreadedRuntime.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "transform/FieldMap.h"

#include <iostream>

using namespace structslim;
using ir::Reg;

namespace {

/// struct rec: sixteen 8-byte fields (128 B). The hot loop reads f0
/// (offset 0) and f9 (offset 72, on the second line); a warm loop reads
/// f4 and f12; the rest are cold.
ir::StructLayout recLayout() {
  ir::StructLayout L("rec");
  for (int I = 0; I != 16; ++I)
    L.addField("f" + std::to_string(I), 8);
  L.finalize();
  return L;
}

std::unique_ptr<ir::Program> buildProgram(const transform::FieldMap &Map,
                                          int64_t N, int64_t Reps) {
  auto P = std::make_unique<ir::Program>();
  ir::Function &F = P->addFunction("main", 0);
  ir::ProgramBuilder B(*P, F);

  auto FieldRef = [&](const std::string &Name) {
    return Map.locate(Name);
  };
  std::vector<Reg> Bases;
  B.setLine(1);
  for (unsigned G = 0; G != Map.getNumGroups(); ++G) {
    Reg Bytes = B.constI(N * Map.getGroupSize(G));
    Bases.push_back(B.alloc(Bytes, "rec" + Map.groupSuffix(G)));
  }
  auto Load = [&](const std::string &Name, Reg Index) {
    transform::FieldLoc Loc = FieldRef(Name);
    return B.load(Bases[Loc.Group], Index, Map.getGroupSize(Loc.Group),
                  Loc.Offset, 8);
  };
  auto Store = [&](const std::string &Name, Reg Index, Reg Value) {
    transform::FieldLoc Loc = FieldRef(Name);
    B.store(Value, Bases[Loc.Group], Index, Map.getGroupSize(Loc.Group),
            Loc.Offset, 8);
  };

  B.forLoopI(0, N, 1, [&](Reg I) {
    B.setLine(3);
    for (int FieldIndex = 0; FieldIndex != 16; ++FieldIndex)
      Store("f" + std::to_string(FieldIndex), I,
            B.addI(I, FieldIndex));
    B.setLine(1);
  });

  Reg Acc = B.constI(0);
  // Hot loop, lines 10-11: f0 + f9 (two lines apart originally).
  B.setLine(10);
  B.forLoopI(0, Reps, 1, [&](Reg) {
    B.forLoopI(0, N, 1, [&](Reg I) {
      B.setLine(11);
      Reg A = Load("f0", I);
      Reg C = Load("f9", I);
      B.accumulate(Acc, B.add(A, C));
      B.work(10);
      B.setLine(10);
    });
  });
  // Warm loop, lines 20-21: f4 + f12, fewer repetitions.
  B.setLine(20);
  B.forLoopI(0, Reps / 4, 1, [&](Reg) {
    B.forLoopI(0, N, 1, [&](Reg I) {
      B.setLine(21);
      Reg A = Load("f4", I);
      Reg C = Load("f12", I);
      B.accumulate(Acc, B.add(A, C));
      B.work(10);
      B.setLine(20);
    });
  });
  B.ret(Acc);
  return P;
}

runtime::RunResult run(const ir::Program &P, bool Attach,
                       profile::Profile *MergedOut = nullptr) {
  runtime::RunConfig Cfg;
  Cfg.AttachProfiler = Attach;
  runtime::ThreadedRuntime RT(Cfg);
  analysis::CodeMap Map(P);
  RT.runPhase(P, &Map, {runtime::ThreadSpec{P.getEntry(), {}}});
  runtime::RunResult R = RT.finish();
  if (MergedOut && Attach)
    *MergedOut = profile::mergeProfiles(std::move(R.Profiles));
  return R;
}

} // namespace

int main(int argc, char **argv) {
  int64_t N = 40000; // 128 B * 40000 = 5 MB, beyond L2.
  int64_t Reps = 16;
  benchutil::parseHarnessArgs(argc, argv, {{"--n", &N}});

  ir::StructLayout Layout = recLayout();
  transform::FieldMap Original(Layout);
  auto Base = buildProgram(Original, N, Reps);

  // Profile and analyze once; derive both plans.
  profile::Profile Merged;
  run(*Base, true, &Merged);
  core::StructSlimAnalyzer Analyzer{core::AnalysisConfig()};
  Analyzer.registerLayout("rec", Layout);
  core::AnalysisResult Analysis = Analyzer.analyze(Merged);
  const core::ObjectAnalysis *Hot = Analysis.findObject("rec");
  if (!Hot) {
    std::cerr << "rec not surfaced\n";
    return 1;
  }

  core::SplitPlan Split = core::makeSplitPlan(*Hot, &Layout);
  core::SplitPlan Reorder = core::makeReorderPlan(*Hot, Layout);
  transform::FieldMap SplitMap(Layout, Split);
  transform::FieldMap ReorderMap(Layout, Reorder);

  auto Reordered = buildProgram(ReorderMap, N, Reps);
  auto SplitProg = buildProgram(SplitMap, N, Reps);

  runtime::RunResult RBase = run(*Base, false);
  runtime::RunResult RReorder = run(*Reordered, false);
  runtime::RunResult RSplit = run(*SplitProg, false);
  if (RBase.ReturnValues != RReorder.ReturnValues ||
      RBase.ReturnValues != RSplit.ReturnValues) {
    std::cerr << "layout change altered program results!\n";
    return 1;
  }

  std::cout << "Ablation: structure splitting vs field reordering on a "
               "two-line (128 B) record\n\n";
  std::cout << "inferred structure size: " << Hot->StructSize
            << " B; reordered layout (hot first):\n  "
            << ReorderMap.getGroupLayout(0).toString() << "\n\n";

  TablePrinter Table;
  Table.setHeader({"Layout", "Mcycles", "Speedup", "L1 misses"});
  auto Row = [&](const char *Name, const runtime::RunResult &R) {
    Table.addRow({Name, formatDouble(R.ElapsedCycles / 1e6, 1),
                  formatTimes(static_cast<double>(RBase.ElapsedCycles) /
                              R.ElapsedCycles),
                  std::to_string(R.Misses[0])});
  };
  Row("original (f0 and f9 on different lines)", RBase);
  Row("reordered (hot cluster first)", RReorder);
  Row("split (per-cluster arrays)", RSplit);
  Table.print(std::cout);
  std::cout << "\n(reordering halves the hot loop's line footprint "
               "without changing allocations; splitting also drops the "
               "cold bytes and wins)\n";
  return 0;
}
