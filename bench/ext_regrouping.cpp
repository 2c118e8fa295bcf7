//===- bench/ext_regrouping.cpp - Array-regrouping extension ---*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Demonstrates the future-work extension the paper's conclusion
// announces: array regrouping. A particle kernel keeps px[] and py[]
// as separate arrays (structure splitting taken too far!) and always
// reads both per element, while charge[] is scanned in its own loop.
// Whole-object affinity (Eq. 7 on objects) pairs px with py; the
// regrouped program interleaves them into one array of {px, py} pairs
// and runs measurably faster, while charge stays standalone.
//
//===----------------------------------------------------------------------===//

#include "HarnessArgs.h"
#include "analysis/CodeMap.h"
#include "core/Regrouping.h"
#include "ir/ProgramBuilder.h"
#include "profile/MergeTree.h"
#include "runtime/ThreadedRuntime.h"
#include "support/Format.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace structslim;
using ir::Reg;

namespace {

/// Builds the kernel. \p Regrouped interleaves px/py into one array.
std::unique_ptr<ir::Program> buildParticles(int64_t N, int64_t Reps,
                                            bool Regrouped) {
  auto P = std::make_unique<ir::Program>();
  ir::Function &F = P->addFunction("main", 0);
  ir::ProgramBuilder B(*P, F);
  B.setLine(1);

  Reg Px, Py;
  uint32_t Scale, PxOff, PyOff;
  if (Regrouped) {
    Reg Bytes = B.constI(N * 16);
    Px = Py = B.alloc(Bytes, "pos");
    Scale = 16;
    PxOff = 0;
    PyOff = 8;
  } else {
    Reg Bytes = B.constI(N * 8);
    Px = B.alloc(Bytes, "px");
    Py = B.alloc(B.constI(N * 8), "py");
    Scale = 8;
    PxOff = PyOff = 0;
  }
  Reg ChargeBytes = B.constI(N * 8);
  Reg Charge = B.alloc(ChargeBytes, "charge");

  B.forLoopI(0, N, 1, [&](Reg I) {
    B.setLine(3);
    B.store(I, Px, I, Scale, PxOff, 8);
    B.store(B.mulI(I, 2), Py, I, Scale, PyOff, 8);
    B.store(B.andI(I, 1), Charge, I, 8, 0, 8);
    B.setLine(1);
  });

  Reg Acc = B.constI(0);
  // Hot loop, lines 10-12: px and py of the *same* (hashed) particle
  // every iteration — a neighbor-list style gather. Separate arrays pay
  // two cache misses per particle; the interleaved pair shares a line
  // and pays one.
  B.setLine(10);
  B.forLoopI(0, Reps, 1, [&](Reg) {
    Reg H = B.constI(88172645463325252ll);
    B.forLoopI(0, N, 1, [&](Reg) {
      B.setLine(11);
      Reg Mixed =
          B.addI(B.mulI(H, 6364136223846793005ll), 1442695040888963407ll);
      B.moveInto(H, Mixed);
      Reg Idx = B.rem(B.shr(H, B.constI(33)), B.constI(N));
      Reg X = B.load(Px, Idx, Scale, PxOff, 8);
      Reg Y = B.load(Py, Idx, Scale, PyOff, 8);
      B.accumulate(Acc, B.add(X, Y));
      B.work(12);
      B.setLine(10);
    });
  });
  // Charge-only loop, lines 20-22.
  B.setLine(20);
  B.forLoopI(0, Reps / 2, 1, [&](Reg) {
    B.forLoopI(0, N, 1, [&](Reg I) {
      B.setLine(21);
      Reg C = B.load(Charge, I, 8, 0, 8);
      B.accumulate(Acc, C);
      B.work(6);
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
  if (MergedOut)
    *MergedOut = profile::mergeProfiles(std::move(R.Profiles));
  return R;
}

} // namespace

int main(int argc, char **argv) {
  int64_t N = 120000;
  int64_t Reps = 12;
  benchutil::parseHarnessArgs(argc, argv, {{"--n", &N}});

  auto Split = buildParticles(N, Reps, /*Regrouped=*/false);
  auto Grouped = buildParticles(N, Reps, /*Regrouped=*/true);

  // 1. Profile the split (SoA) version and ask for regrouping advice.
  profile::Profile Merged;
  run(*Split, /*Attach=*/true, &Merged);
  std::cout << "Array-regrouping extension (paper Sec. 7 future work)\n\n";
  std::cout << "object affinities (Eq. 7 lifted to arrays):\n";
  TablePrinter Pairs;
  Pairs.setHeader({"Pair", "Affinity"});
  for (const core::ArrayAffinity &A : core::analyzeArrayAffinity(Merged))
    Pairs.addRow({A.A + " - " + A.B, formatDouble(A.Affinity, 3)});
  Pairs.print(std::cout);

  core::RegroupAdvice Advice = core::adviseRegrouping(Merged);
  std::cout << "\nadvice:\n";
  if (Advice.Groups.empty())
    std::cout << "  (none)\n";
  for (const auto &Group : Advice.Groups)
    std::cout << "  regroup { " << join(Group.Arrays, ", ")
              << " } into one array of structures\n";

  // 2. Apply it (the Grouped build) and measure.
  runtime::RunResult Before = run(*Split, false);
  runtime::RunResult After = run(*Grouped, false);
  if (Before.ReturnValues != After.ReturnValues) {
    std::cerr << "regrouped program computed different results!\n";
    return 1;
  }
  std::cout << "\nSoA (split px/py): " << Before.ElapsedCycles / 1000000
            << " Mcycles\nregrouped {px,py}: "
            << After.ElapsedCycles / 1000000 << " Mcycles\nspeedup: "
            << formatTimes(static_cast<double>(Before.ElapsedCycles) /
                           After.ElapsedCycles)
            << "\n";
  return 0;
}
