//===- tools/structslim-verify.cpp - Closed-loop verifier CLI --*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Closes the paper's loop end-to-end for the evaluated benchmarks:
// profile -> analyze -> apply the split advice (IR rewrite when the
// splitter accepts, FieldMap source rebuild when it rejects) ->
// re-simulate under the identical cache hierarchy, and report the
// before/after deltas plus how well the BenefitModel's prediction
// matched the measured outcome.
//
// Usage:
//   structslim-verify [options] [workloads...]
//     --scale=X      working-set scale factor (default 1.0)
//     --period=N     PMU sampling period (default 10000)
//     --json         emit the machine-readable document (schema_version
//                    3) on stdout instead of the text table
//     --smoke        quick CI mode: 179.ART and CLOMP at scale 0.1
//                    (one serial ir-split path, one parallel fallback)
//     --list         print the known workload names and exit
//
// Without positional names, all seven paper workloads run in Table 2
// order. Exit status: 0 when every workload kept its results and none
// regressed modeled latency, 1 otherwise, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "core/ClosedLoop.h"
#include "support/ParseNumber.h"
#include "workloads/Registry.h"

#include <iostream>
#include <string>
#include <vector>

using namespace structslim;

namespace {

struct Options {
  double Scale = 1.0;
  uint64_t Period = 10000;
  bool Json = false;
  bool Smoke = false;
  bool List = false;
  std::vector<std::string> Names;
};

int usage() {
  std::cerr << "usage: structslim-verify [--scale=X] [--period=N] "
               "[--json] [--smoke] [--list] [workloads...]\n";
  return 2;
}

bool badValue(const std::string &Flag, const std::string &Value) {
  std::cerr << "error: invalid value '" << Value << "' for " << Flag << "\n";
  return false;
}

bool parseArgs(int argc, char **argv, Options &Opts) {
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--scale=", 0) == 0) {
      if (!support::parseDouble(Arg.substr(8), Opts.Scale) || Opts.Scale <= 0)
        return badValue("--scale", Arg.substr(8));
    } else if (Arg.rfind("--period=", 0) == 0) {
      if (!support::parseUnsigned(Arg.substr(9), Opts.Period) ||
          Opts.Period == 0)
        return badValue("--period", Arg.substr(9));
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (Arg == "--smoke") {
      Opts.Smoke = true;
    } else if (Arg == "--list") {
      Opts.List = true;
    } else if (Arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown option '" << Arg << "'\n";
      return false;
    } else {
      Opts.Names.push_back(Arg);
    }
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  if (!parseArgs(argc, argv, Opts))
    return usage();

  if (Opts.List) {
    for (const auto &W : workloads::makePaperWorkloads())
      std::cout << W->name() << "\n";
    return 0;
  }

  std::vector<std::unique_ptr<workloads::Workload>> Selected;
  if (Opts.Smoke) {
    if (!Opts.Names.empty()) {
      std::cerr << "error: --smoke takes no workload names\n";
      return usage();
    }
    Opts.Scale = 0.1;
    Selected.push_back(workloads::makeArt());
    Selected.push_back(workloads::makeClomp());
  } else if (Opts.Names.empty()) {
    Selected = workloads::makePaperWorkloads();
  } else {
    for (const std::string &Name : Opts.Names) {
      std::unique_ptr<workloads::Workload> W = workloads::makeWorkload(Name);
      if (!W) {
        std::cerr << "error: unknown workload '" << Name
                  << "' (see --list)\n";
        return usage();
      }
      Selected.push_back(std::move(W));
    }
  }

  workloads::DriverConfig Config;
  Config.Scale = Opts.Scale;
  Config.Run.Sampling.Period = Opts.Period;

  core::VerifyReport Report = core::verifyWorkloads(Selected, Config);
  if (Opts.Json)
    std::cout << core::renderVerifyJson(Report, Config);
  else
    std::cout << core::renderVerifyText(Report);
  return Report.allOk() ? 0 : 1;
}
