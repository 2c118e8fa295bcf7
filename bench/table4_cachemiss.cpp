//===- bench/table4_cachemiss.cpp - Paper Table 4 --------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 4: per-level cache miss reduction after the
// StructSlim-guided structure split, measured with the hierarchy's
// event counters (the hardware-performance-counter role).
//
// Flags: --scale=<f>  working-set scale (default 0.5)
//
//===----------------------------------------------------------------------===//

#include "core/ClosedLoop.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "workloads/Registry.h"

#include <iostream>
#include <string>

using namespace structslim;

namespace {

struct PaperRow {
  const char *Name;
  double L1, L2, L3; // Percent reductions from the paper.
};

constexpr PaperRow PaperTable4[] = {
    {"179.ART", 46.5, 51.1, 5.5},   {"462.libquantum", 49.0, 82.6, -637.9},
    {"TSP", 13.3, 19.9, 30.7},      {"Mser", 8.3, 8.4, 36.7},
    {"CLOMP 1.2", 15.5, 26.4, -2.3}, {"Health", 66.7, 90.8, -35.8},
    {"NN", 87.2, 98.0, 9.3},
};

const PaperRow *paperRow(const std::string &Name) {
  for (const PaperRow &Row : PaperTable4)
    if (Name == Row.Name)
      return &Row;
  return nullptr;
}

} // namespace

int main(int argc, char **argv) {
  double Scale = 0.5;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--scale=", 0) == 0)
      Scale = std::stod(Arg.substr(8));
  }

  std::cout << "Table 4: cache miss reduction after structure splitting\n"
            << "(negative = more misses; the paper attributes its "
               "negative L3 rows to noise on cache-resident runs)\n\n";

  TablePrinter Table;
  Table.setHeader({"Benchmark", "L1 reduction", "L2 reduction",
                   "L3 reduction", "paper L1", "paper L2", "paper L3"});

  for (const auto &W : workloads::makePaperWorkloads()) {
    workloads::DriverConfig Config;
    Config.Scale = Scale;
    core::WorkloadVerdict V = core::verifyWorkload(*W, Config);
    const PaperRow *Paper = paperRow(W->name());
    Table.addRow({W->name(), formatPercent(V.MissReduction[0]),
                  formatPercent(V.MissReduction[1]),
                  formatPercent(V.MissReduction[2]),
                  formatDouble(Paper->L1, 1) + "%",
                  formatDouble(Paper->L2, 1) + "%",
                  formatDouble(Paper->L3, 1) + "%"});
  }
  Table.print(std::cout);
  return 0;
}
