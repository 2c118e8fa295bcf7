//===- bench/micro_merge.cpp - Profile ingest + merge throughput -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Throughput of the shard ingestion pipeline (paper Sec. 5.2): a
// synthetic many-thread run writes N v3 profile shards to disk, then
// measures
//
//  - the baseline: v3 decode of every shard into memory, then the
//    string-keyed adjacent-pair tree merge, single-threaded;
//  - the current pipeline (loadAndMergeProfiles): v3 decode + interned
//    allocation-free merge, streamed, at jobs=1/2/4;
//  - cold analysis of the full merged profile.
//
// Every row is the median and quartiles of repeated runs; within each
// repeat the jobs=1/2/4 rows run in alternating order (1,2,4 then
// 4,2,1) so host drift lands on all three alike. Every
// configuration must produce byte-identical merged profiles — the
// bench asserts it by comparing serialized results — and the headline
// number is the single-core (jobs=1) median speedup of the interned
// merge over the string-keyed baseline at the largest shard count.
// Peak resident decoded profiles are reported as the memory proxy: the
// streaming loader holds O(jobs) shards, the baseline holds all N.
//
// Writes BENCH_merge.json (override the path with argv[1]).
// --smoke shrinks shard count and sizes for CI.
//
//===----------------------------------------------------------------------===//

#include "Spread.h"
#include "core/Analyzer.h"
#include "core/Report.h"
#include "profile/MergeTree.h"
#include "profile/ProfileIO.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/TablePrinter.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <thread>
#include <utility>

using namespace structslim;
using structslim::profile::Profile;
using structslim::profile::StreamRecord;

namespace {

/// One synthetic per-thread shard. Threads share most data objects and
/// loops (that is what makes merging real work: streams collide and
/// strides sharpen across shards) plus a few thread-local heap objects.
Profile makeShard(unsigned Shard, unsigned Objects, unsigned StreamsPerObject,
                  unsigned CctNodes) {
  Rng R(0x5eed0 + Shard);
  Profile P;
  P.ThreadId = Shard;
  P.SamplePeriod = 10000;
  for (unsigned Obj = 0; Obj != Objects; ++Obj) {
    bool Shared = Obj + 4 < Objects; // Last few objects are per-thread.
    std::string Key = Shared ? "obj" + std::to_string(Obj)
                             : "heap" + std::to_string(Shard) + "_" +
                                   std::to_string(Obj);
    uint32_t Idx = P.getOrCreateObject(Key);
    uint64_t Start = 0x100000ull * (Obj + 1);
    profile::ObjectAgg &Agg = P.Objects[Idx];
    Agg.Name = Key;
    Agg.Start = Start;
    Agg.Size = 1 << 18;
    for (unsigned S = 0; S != StreamsPerObject; ++S) {
      uint64_t Latency = 1 + R.nextBelow(400);
      Agg.SampleCount += 1;
      Agg.LatencySum += Latency;
      P.TotalSamples += 1;
      P.TotalLatency += Latency;
      // Shared IPs across shards so most stream records merge rather
      // than concatenate.
      StreamRecord &Rec =
          P.getOrCreateStream((static_cast<uint64_t>(Obj) << 20) | S, Idx);
      Rec.LoopId = static_cast<int32_t>(S % 7);
      Rec.Line = 100 + S;
      Rec.AccessSize = 8;
      Rec.SampleCount += 1;
      Rec.LatencySum += Latency;
      Rec.UniqueAddrCount += 1;
      Rec.StrideGcd = 8ull * (1 + S % 4);
      Rec.ObjectStart = Start;
      // Different representative addresses per shard exercise the
      // cross-profile GCD sharpening in the merge hot loop.
      Rec.RepAddr = Start + 64ull * (1 + Shard) + 8 * (S % 16);
      Rec.LastAddr = Rec.RepAddr + Rec.StrideGcd;
      Rec.LevelSamples[S % 4] += 1;
      Rec.TlbMissSamples += S % 11 == 0;
    }
  }
  // A call tree with shared prefixes (threads run the same code).
  std::vector<uint64_t> Path;
  for (unsigned N = 0; N != CctNodes; ++N) {
    Path.clear();
    Path.push_back(0x400000 + N % 5);
    Path.push_back(0x410000 + N % 17);
    Path.push_back(0x420000 + N);
    P.Contexts.attribute(P.Contexts.intern(Path), 1 + R.nextBelow(300));
  }
  return P;
}

/// The baseline: decode every shard, then reduce with the string-keyed
/// merge over the same adjacent-pair tree shape the current code uses —
/// so the result is byte-comparable and the measured delta is the
/// merge mechanics and residency, not tree shape.
Profile baselineMerge(const std::vector<std::string> &Files) {
  std::vector<Profile> Profiles;
  Profiles.reserve(Files.size());
  for (const std::string &Path : Files) {
    std::ifstream In(Path, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    auto P = profile::profileFromBytes(Bytes);
    if (!P) {
      std::cerr << "baseline failed to read " << Path << "\n";
      std::exit(1);
    }
    Profiles.push_back(std::move(*P));
  }
  while (Profiles.size() > 1) {
    size_t Pairs = Profiles.size() / 2;
    bool Odd = (Profiles.size() & 1) != 0;
    for (size_t I = 0; I != Pairs; ++I)
      Profiles[2 * I].merge(Profiles[2 * I + 1]); // String-keyed path.
    for (size_t I = 1; I != Pairs; ++I)
      Profiles[I] = std::move(Profiles[2 * I]);
    if (Odd)
      Profiles[Pairs] = std::move(Profiles.back());
    Profiles.resize(Pairs + (Odd ? 1 : 0));
  }
  return std::move(Profiles.front());
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Times \p Reps calls of \p Run and keeps the last result in \p Last
/// (replacing the previous one outside the timed region).
template <typename T, typename Fn>
Spread timeRepeats(unsigned Reps, T &Last, Fn Run) {
  std::vector<double> Times;
  for (unsigned R = 0; R != Reps; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    T Result = Run();
    Times.push_back(secondsSince(T0));
    Last = std::move(Result);
  }
  return spreadOf(Times);
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  const char *JsonPath = "BENCH_merge.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else
      JsonPath = argv[I];
  }

  const unsigned MaxShards = Smoke ? 8 : 64;
  const unsigned Objects = Smoke ? 16 : 48;
  const unsigned StreamsPerObject = Smoke ? 16 : 48;
  const unsigned CctNodes = Smoke ? 32 : 256;
  const unsigned Reps = Smoke ? 1 : 10; // Even: both orders alike.
  const unsigned AnalyzeReps = Smoke ? 3 : 9;
  const unsigned HostCores = std::thread::hardware_concurrency();

  std::cout << "Profile ingest + merge throughput (host hardware_concurrency="
            << HostCores << ", " << MaxShards << " shards x " << Objects
            << " objects x " << StreamsPerObject << " streams, median of "
            << Reps << ")\n\n";

  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() /
                 ("structslim_micro_merge_" + std::to_string(::getpid()));
  fs::create_directories(Dir);

  std::vector<std::string> Files;
  for (unsigned I = 0; I != MaxShards; ++I) {
    fs::path Path = Dir / ("shard" + std::to_string(I) + ".structslim");
    std::ofstream(Path, std::ios::binary) << profile::profileToString(
        makeShard(I, Objects, StreamsPerObject, CctNodes));
    Files.push_back(Path.string());
  }

  TablePrinter Table;
  Table.setHeader({"shards", "pipeline", "jobs", "median s", "IQR s",
                   "speedup", "peak resident", "identical"});

  std::vector<unsigned> ShardCounts;
  if (MaxShards >= 8)
    ShardCounts.push_back(MaxShards / 8);
  ShardCounts.push_back(MaxShards);
  const unsigned JobCounts[] = {1, 2, 4};

  std::string Json;
  Json += "{\n  \"bench\": \"micro_merge\",\n";
  Json += "  \"host_hardware_concurrency\": " + std::to_string(HostCores) +
          ",\n";
  Json += "  \"objects_per_shard\": " + std::to_string(Objects) + ",\n";
  Json += "  \"streams_per_object\": " + std::to_string(StreamsPerObject) +
          ",\n";
  Json += "  \"repeats\": " + std::to_string(Reps) + ",\n";
  Json += "  \"points\": [\n";

  bool AllIdentical = true;
  double HeadlineSpeedup = 0;
  bool FirstPoint = true;

  for (unsigned Shards : ShardCounts) {
    std::vector<std::string> Sub(Files.begin(), Files.begin() + Shards);

    Profile BaselineMerged;
    Spread Baseline = timeRepeats(Reps, BaselineMerged,
                                  [&] { return baselineMerge(Sub); });
    std::string Expected = profile::profileToString(BaselineMerged);

    // One table row and JSON point; speedup is against the baseline
    // median.
    auto AddPoint = [&](const char *Label, const char *Pipeline,
                        unsigned Jobs, const Spread &Seconds,
                        size_t PeakResident, bool Identical) {
      AllIdentical = AllIdentical && Identical;
      double Speedup =
          Seconds.Median > 0 ? Baseline.Median / Seconds.Median : 0.0;
      Table.addRow({std::to_string(Shards), Label, std::to_string(Jobs),
                    formatDouble(Seconds.Median, 4),
                    formatDouble(Seconds.Q1, 4) + "-" +
                        formatDouble(Seconds.Q3, 4),
                    formatDouble(Speedup, 2) + "x",
                    std::to_string(PeakResident), Identical ? "yes" : "NO"});
      if (!FirstPoint)
        Json += ",\n";
      FirstPoint = false;
      Json += "    {\"shards\": " + std::to_string(Shards) +
              ", \"pipeline\": \"" + Pipeline +
              "\", \"jobs\": " + std::to_string(Jobs) + ", " +
              Seconds.jsonFields("ingest_merge_seconds") +
              ", \"speedup\": " + std::to_string(Speedup) +
              ", \"peak_resident_profiles\": " +
              std::to_string(PeakResident) +
              ", \"identical\": " + (Identical ? "true" : "false") + "}";
      return Speedup;
    };
    AddPoint("v3+string-merge", "baseline_string_merge", 1, Baseline, Shards,
             true);

    std::vector<double> Times[std::size(JobCounts)];
    profile::MergeLoadResult Last[std::size(JobCounts)];
    for (unsigned R = 0; R != Reps; ++R) {
      for (size_t K = 0; K != std::size(JobCounts); ++K) {
        size_t J = R % 2 ? std::size(JobCounts) - 1 - K : K;
        profile::MergeOptions Opts;
        Opts.WorkerThreads = JobCounts[J];
        auto T0 = std::chrono::steady_clock::now();
        profile::MergeLoadResult Load =
            profile::loadAndMergeProfiles(Sub, Opts);
        Times[J].push_back(secondsSince(T0));
        Last[J] = std::move(Load);
      }
    }
    for (size_t J = 0; J != std::size(JobCounts); ++J) {
      bool Identical = profile::profileToString(Last[J].Merged) == Expected &&
                       Last[J].Loaded.size() == Shards;
      double Speedup =
          AddPoint("v3+streaming", "v3_streaming", JobCounts[J],
                   spreadOf(Times[J]), Last[J].PeakResidentProfiles, Identical);
      if (Shards == MaxShards && JobCounts[J] == 1)
        HeadlineSpeedup = Speedup;
    }
  }
  Json += "\n  ],\n";

  // Cold analysis of the full merged profile, every object selected:
  // the offline stage that follows ingest in structslim-report. Each
  // repeat runs a fresh analyzer and must render the same table.
  Spread AnalyzeSeconds;
  {
    profile::MergeOptions Opts;
    Opts.WorkerThreads = 1;
    Profile Merged = profile::loadAndMergeProfiles(Files, Opts).Merged;
    core::AnalysisConfig Config;
    Config.TopObjects = 1000;
    Config.MinObjectShare = 0;
    std::vector<double> Times;
    std::string First;
    for (unsigned R = 0; R != AnalyzeReps; ++R) {
      auto T0 = std::chrono::steady_clock::now();
      core::AnalysisResult Result =
          core::StructSlimAnalyzer(Config).analyze(Merged);
      Times.push_back(secondsSince(T0));
      std::string Table = core::renderHotObjects(Result);
      if (R == 0)
        First = std::move(Table);
      else
        AllIdentical = AllIdentical && Table == First;
    }
    AnalyzeSeconds = spreadOf(Times);
    std::cout << "Cold analysis of the " << MaxShards
              << "-shard merged profile: median "
              << formatDouble(AnalyzeSeconds.Median, 4) << "s (IQR "
              << formatDouble(AnalyzeSeconds.Q1, 4) << "-"
              << formatDouble(AnalyzeSeconds.Q3, 4) << "s, " << AnalyzeReps
              << " repeats)\n\n";
  }
  Json += "  \"analysis\": {\"repeats\": " + std::to_string(AnalyzeReps) +
          ", " + AnalyzeSeconds.jsonFields("analysis_seconds") + "},\n";
  Json += "  \"headline_single_core_speedup\": " +
          std::to_string(HeadlineSpeedup) + ",\n";
  Json += "  \"all_identical\": " + std::string(AllIdentical ? "true"
                                                             : "false") +
          "\n}\n";

  std::ofstream(JsonPath) << Json;
  Table.print(std::cout);
  std::cout << "\nHeadline single-core speedup at " << MaxShards
            << " shards: " << formatDouble(HeadlineSpeedup, 2) << "x. JSON: "
            << JsonPath << "\n";

  std::error_code Ec;
  fs::remove_all(Dir, Ec);

  if (!AllIdentical) {
    std::cerr << "\nFAIL: merged profiles diverged across pipelines\n";
    return 1;
  }
  return 0;
}
