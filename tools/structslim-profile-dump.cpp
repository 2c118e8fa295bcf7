//===- tools/structslim-profile-dump.cpp - Workload profile dumper -------===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Runs paper workloads under the StructSlim profiler and writes each
// one's merged profile to disk in the v3 binary format — the fixture
// generator for ingestion checks that need real workload profiles as
// files (CI byte-compares reports read from each file and from a pipe
// of it).
//
// Usage:
//   structslim-profile-dump [options] <dir> [workloads...]
//     --scale=X   working-set scale factor (default 0.1, the smoke
//                 scale the golden tests pin)
//     --list      print the known workload names and exit
//
// Without positional names, all seven paper workloads run in Table 2
// order; each writes <dir>/<name>.structslim. Exit status: 0 on
// success, 1 when a profile cannot be written, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileIO.h"
#include "transform/FieldMap.h"
#include "workloads/Driver.h"
#include "workloads/Registry.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

using namespace structslim;

namespace {

int usage() {
  std::cerr << "usage: structslim-profile-dump [--scale=X] [--list] "
               "<dir> [workloads...]\n";
  return 2;
}

/// Strict full-string double parse; rejects "", "abc", "0.5x", "nan",
/// "inf".
bool parseDouble(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double Value = std::strtod(Text.c_str(), &End);
  if (errno != 0 || End != Text.c_str() + Text.size() ||
      !std::isfinite(Value))
    return false;
  Out = Value;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  double Scale = 0.1;
  std::string Dir;
  std::vector<std::string> Names;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--scale=", 0) == 0) {
      if (!parseDouble(Arg.substr(8), Scale) || Scale <= 0) {
        std::cerr << "error: invalid value '" << Arg.substr(8)
                  << "' for --scale\n";
        return usage();
      }
    } else if (Arg == "--list") {
      for (const auto &W : workloads::makePaperWorkloads())
        std::cout << W->name() << "\n";
      return 0;
    } else if (Arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown option '" << Arg << "'\n";
      return usage();
    } else if (Dir.empty()) {
      Dir = Arg;
    } else {
      Names.push_back(Arg);
    }
  }
  if (Dir.empty())
    return usage();

  std::vector<std::unique_ptr<workloads::Workload>> Selected;
  if (Names.empty()) {
    Selected = workloads::makePaperWorkloads();
  } else {
    for (const std::string &Name : Names) {
      std::unique_ptr<workloads::Workload> W = workloads::makeWorkload(Name);
      if (!W) {
        std::cerr << "error: unknown workload '" << Name
                  << "' (see --list)\n";
        return usage();
      }
      Selected.push_back(std::move(W));
    }
  }

  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec) {
    std::cerr << "error: cannot create '" << Dir << "': " << Ec.message()
              << "\n";
    return 1;
  }

  // Every simulation placement is bit-identical to the inline oracle,
  // so the shards are byte-stable under any STRUCTSLIM_THREADS.
  workloads::DriverConfig Config;
  Config.Scale = Scale;

  for (const auto &W : Selected) {
    transform::FieldMap Identity(W->hotLayout());
    workloads::WorkloadRun Run =
        workloads::runWorkload(*W, Identity, Config, /*Attach=*/true);
    // Shell-friendly file names: "CLOMP 1.2" -> "CLOMP_1.2.structslim".
    std::string Base = W->name();
    for (char &C : Base)
      if (C == ' ' || C == '/')
        C = '_';
    std::string Path = Dir + "/" + Base + ".structslim";
    std::string Error;
    if (!profile::writeProfileFile(Run.Merged, Path, &Error)) {
      std::cerr << "error: cannot write '" << Path << "': " << Error << "\n";
      return 1;
    }
    std::cout << Path << "\n";
  }
  return 0;
}
