//===- bench/eq4_accuracy.cpp - Paper Eq. 4 validation ---------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Validates the paper's formal accuracy claim for the GCD stride
// algorithm (Sec. 4.2.2, Eq. 4): with k unique sampled addresses the
// probability of recovering the exact stride, claimed > 99% for
// k >= 10. Reports, per k:
//   - Eq. 4 exactly as printed,
//   - the paper's closed-form lower bound (1 - sum p^-k),
//   - a residue-exact variant (all residue classes, not just
//     multiples of p),
//   - Monte Carlo ground truth for strides 1 and 64.
//
//===----------------------------------------------------------------------===//

#include "HarnessArgs.h"
#include "core/AccuracyModel.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/TablePrinter.h"

#include <iostream>

using namespace structslim;
using namespace structslim::core;

int main(int argc, char **argv) {
  uint64_t N = 4096;
  unsigned Trials = 20000;
  benchutil::parseHarnessArgs(argc, argv, {{"--n", &N}, {"--trials", &Trials}});

  std::cout << "Eq. 4: GCD stride-recovery accuracy vs sample count k "
               "(n = " << N << " addresses per stream)\n"
            << "paper claim: k >= 10 gives > 99% accuracy\n\n";

  TablePrinter Table;
  Table.setHeader({"k", "Eq.4 (paper)", "lower bound", "residue-exact",
                   "measured s=1", "measured s=64"});
  Rng R(0xE44);
  for (uint64_t K : {2, 3, 4, 5, 6, 8, 10, 12, 16}) {
    double Paper = eq4Accuracy(N, K);
    double Bound = eq4LowerBound(K);
    double Exact = exactAccuracy(N, K);
    double M1 = core::measureAccuracy(N, K, 1, Trials, R);
    double M64 = core::measureAccuracy(N, K, 64, Trials, R);
    Table.addRow({std::to_string(K), formatPercent(Paper, 2),
                  formatPercent(Bound, 2), formatPercent(Exact, 2),
                  formatPercent(M1, 2), formatPercent(M64, 2)});
  }
  Table.print(std::cout);
  std::cout
      << "\nNotes: for k <= 3 the printed formula is far from the truth "
         "(with k = 2 the stride equals the single sampled difference, "
         "so the real accuracy is ~2/n); from k >= 4 on, the "
         "residue-exact model and the measurement agree and the paper's "
         "k >= 10 => >99% claim holds.\n";
  return 0;
}
