//===- bench/micro_analyzer.cpp - Offline analyzer throughput -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Host-side time of the offline analyzer (StructSlimAnalyzer::analyze,
// serial) on two synthetic merged profiles, each analyzed with every
// object selected:
//
//  - dense: many hot objects, each with many well-sampled streams over
//    many loops and fields, so the per-object affinity pass dominates;
//  - sparse: the same shape with half of every object's strided
//    streams below the Eq. 4 bar, so each of them pays for its Eq. 4
//    size-confidence discount.
//
// Each case reports the median and quartiles over repeated runs, and
// every repeat must render the same JSON document (exit 1 otherwise).
// The sparse case also checks that it exercised the sparse path: at
// least 100 streams counted in AnalysisStats::SparseStreams.
//
// Writes BENCH_analyzer.json (override the path with argv[1]).
// --smoke shrinks the profiles for CI.
//
//===----------------------------------------------------------------------===//

#include "Spread.h"
#include "core/Report.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/TablePrinter.h"

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

using namespace structslim;
using namespace structslim::core;
using structslim::profile::Profile;
using structslim::profile::StreamRecord;

namespace {

/// Builds a merged-profile shape that stresses the analyzer's hot
/// paths: \p Objects data objects, each with \p Streams streams spread
/// over \p Loops loops and \p Fields distinct field offsets, so the
/// per-object affinity pass sees dense loop/field interaction. With
/// \p Sparse, every other stream keeps only 2-9 unique addresses (below
/// the default MinUniqueAddrs of 10).
Profile makeProfile(unsigned Objects, unsigned Streams, unsigned Loops,
                    unsigned Fields, bool Sparse) {
  Rng R(0xbe9c4);
  Profile Prof;
  Prof.SamplePeriod = 10000;
  for (unsigned Obj = 0; Obj != Objects; ++Obj) {
    std::string Name = "obj" + std::to_string(Obj);
    uint32_t Idx = Prof.getOrCreateObject(Name);
    uint64_t Start = 0x100000ull * (Obj + 1);
    profile::ObjectAgg &Agg = Prof.Objects[Idx];
    Agg.Name = Name;
    Agg.Start = Start;
    Agg.Size = 1 << 20;
    for (unsigned S = 0; S != Streams; ++S) {
      uint64_t Latency = 1 + R.nextBelow(500);
      Agg.SampleCount += 1;
      Agg.LatencySum += Latency;
      Prof.TotalSamples += 1;
      Prof.TotalLatency += Latency;
      StreamRecord &Rec = Prof.getOrCreateStream(
          (static_cast<uint64_t>(Obj) << 24) | S, Idx);
      Rec.LoopId = static_cast<int32_t>(R.nextBelow(Loops));
      Rec.AccessSize = 8;
      Rec.SampleCount += 1;
      Rec.LatencySum += Latency;
      Rec.UniqueAddrCount = Sparse && S % 2 ? 2 + R.nextBelow(8) : 16;
      Rec.StrideGcd = 8ull * Fields;
      Rec.ObjectStart = Start;
      Rec.RepAddr = Start + 8 * R.nextBelow(Fields) +
                    8ull * Fields * R.nextBelow(64);
    }
  }
  return Prof;
}

struct CaseResult {
  Spread Seconds;
  AnalysisStats Stats;
  bool Identical = true; ///< Every repeat rendered the same document.
};

CaseResult runCase(const Profile &Prof, unsigned Reps) {
  AnalysisConfig Config;
  Config.TopObjects = ~0u; // Analyze everything.
  Config.MinObjectShare = 0.0;
  CaseResult Out;
  std::vector<double> Times;
  std::string First;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    auto Begin = std::chrono::steady_clock::now();
    AnalysisResult Result = StructSlimAnalyzer(Config).analyze(Prof);
    Times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Begin)
                        .count());
    // Fixed stats: timings are the one legitimately varying part.
    std::string Json =
        renderJsonReport(Result, Prof, Config, ReportStats(), {});
    if (Rep == 0)
      First = std::move(Json);
    else
      Out.Identical = Out.Identical && Json == First;
    Out.Stats = Result.Stats;
  }
  Out.Seconds = spreadOf(Times);
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  const char *JsonPath = "BENCH_analyzer.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else
      JsonPath = argv[I];
  }

  const unsigned Objects = Smoke ? 16 : 64;
  const unsigned Streams = Smoke ? 64 : 512;
  const unsigned Loops = 24;
  const unsigned Fields = 32;
  const unsigned Reps = Smoke ? 5 : 9;
  const unsigned HostCores = std::thread::hardware_concurrency();

  std::cout << "Offline analyzer (host hardware_concurrency=" << HostCores
            << ", " << Objects << " objects x " << Streams << " streams, "
            << Loops << " loops, " << Fields << " fields, " << Reps
            << " repeats)\n\n";

  TablePrinter Table;
  Table.setHeader({"case", "sparse streams", "median s", "q1 s", "q3 s",
                   "objects/s", "identical"});
  std::ofstream Json(JsonPath);
  Json << "{\n  \"bench\": \"micro_analyzer\",\n"
       << "  \"host_hardware_concurrency\": " << HostCores << ",\n"
       << "  \"objects\": " << Objects << ",\n"
       << "  \"streams_per_object\": " << Streams << ",\n"
       << "  \"loops\": " << Loops << ",\n"
       << "  \"fields\": " << Fields << ",\n"
       << "  \"repeats\": " << Reps << ",\n  \"cases\": [\n";

  bool Ok = true;
  for (bool Sparse : {false, true}) {
    const char *Name = Sparse ? "sparse" : "dense";
    Profile Prof = makeProfile(Objects, Streams, Loops, Fields, Sparse);
    CaseResult C = runCase(Prof, Reps);
    if (!C.Identical) {
      std::cerr << "FAIL: repeats of the " << Name
                << " analysis rendered different documents\n";
      Ok = false;
    }
    if (Sparse && C.Stats.SparseStreams < 100) {
      std::cerr << "FAIL: the sparse case flagged only "
                << C.Stats.SparseStreams << " sparse streams\n";
      Ok = false;
    }
    Table.addRow({Name, std::to_string(C.Stats.SparseStreams),
                  formatDouble(C.Seconds.Median, 5),
                  formatDouble(C.Seconds.Q1, 5), formatDouble(C.Seconds.Q3, 5),
                  formatDouble(Objects / C.Seconds.Median, 0),
                  C.Identical ? "yes" : "NO"});
    Json << "    {\"case\": \"" << Name
         << "\", \"sparse_streams\": " << C.Stats.SparseStreams << ", "
         << C.Seconds.jsonFields("analyze_seconds")
         << ", \"identical\": " << (C.Identical ? "true" : "false") << "}"
         << (Sparse ? "" : ",") << "\n";
  }
  Json << "  ]\n}\n";
  Table.print(std::cout);

  if (!Ok)
    return 1;
  std::cout << "\nEvery repeat rendered the same document. JSON: " << JsonPath
            << "\n";
  return 0;
}
