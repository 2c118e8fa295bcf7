//===- perfbench/e2e.cpp - End-to-end StructSlim benchmark -----*- C++ -*-===//
//
// Runs the paper's pipeline end to end through the library's public entry
// points with default configuration, as one closed-loop client: each op
// starts only after the previous one completed. One op is one program:
//
//   advise  profiled run -> per-thread v3 shards -> load+merge -> analyze
//           -> split plan -> advice text
//   verify  detached original run -> apply the plan (IR split, else a
//           FieldMap rebuild) -> detached run of the split program
//   report  load+merge -> cold analyze -> JSON report + advice for every
//           analyzed object (the structslim-report path, no CodeMap)
//
// A round is one op per program of the workload; each timing sample is
// one round's stage time summed over its programs, so every sample
// weighs the programs equally. Every op's outputs are checked against
// ground truth the workload declares, and every op of a run must
// reproduce the first op's simulated-statistics digest and advice bytes
// for its program.
//
// Usage:
//   structslim_e2e --workload <serial_loop|parallel_loop|fleet_report>
//                  [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. With --trace 1 every other round
// runs with spans on; the traced rounds give the per-layer self times
// and the untraced ones the tracing overhead, and the spans are written
// to <out>/trace.json as Chrome trace-event JSON.
//
//===----------------------------------------------------------------------===//

#include "Fleet.h"
#include "Trace.h"

#include "analysis/CodeMap.h"
#include "core/Advice.h"
#include "core/Analyzer.h"
#include "core/Report.h"
#include "ir/Verifier.h"
#include "profile/MergeTree.h"
#include "runtime/ThreadedRuntime.h"
#include "support/ThreadPool.h"
#include "transform/FieldMap.h"
#include "transform/StructSplitter.h"
#include "workloads/Registry.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#ifndef SS_BENCH_BUILD_TYPE
#define SS_BENCH_BUILD_TYPE "unknown"
#endif

using namespace structslim;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".bench_out";
};

/// Fleet shape: processes profiled during set-up, plus one per op.
constexpr unsigned FleetSetupProcesses = 8;
/// Cold report runs per op over the op's shards.
constexpr unsigned ReportRuns = 5;

int usage(const std::string &Error) {
  std::cerr << "error: " << Error << "\n"
            << "usage: structslim_e2e --workload "
               "<serial_loop|parallel_loop|fleet_report> [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR]\n";
  return 2;
}

bool parseNumber(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text.c_str(), &End);
  if (errno != 0 || End != Text.c_str() + Text.size() || !std::isfinite(V) ||
      V < 0)
    return false;
  Out = V;
  return true;
}

bool parseArgs(int argc, char **argv, Options &Opts, std::string &Error) {
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc) {
      Error = "missing value for " + Flag;
      return false;
    }
    std::string Value = argv[++I];
    double N = 0;
    if (Flag == "--workload") {
      Opts.Workload = Value;
    } else if (Flag == "--out") {
      Opts.OutDir = Value;
    } else if (!parseNumber(Value, N)) {
      Error = "invalid value '" + Value + "' for " + Flag;
      return false;
    } else if (Flag == "--seed") {
      Opts.Seed = static_cast<uint64_t>(N);
    } else if (Flag == "--seconds") {
      Opts.Seconds = N;
    } else if (Flag == "--trace") {
      Opts.Trace = N != 0;
    } else {
      Error = "unknown option '" + Flag + "'";
      return false;
    }
  }
  if (Opts.Workload != "serial_loop" && Opts.Workload != "parallel_loop" &&
      Opts.Workload != "fleet_report") {
    Error = "unknown workload '" + Opts.Workload + "'";
    return false;
  }
  return true;
}

// --- Statistics -----------------------------------------------------------

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The highest percentile with at least ten samples beyond it (never
/// below the median), by nearest rank.
struct Tail {
  double Value = 0;
  double Percentile = 50;
};
Tail tailOf(std::vector<double> V) {
  Tail T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  double N = static_cast<double>(V.size());
  double P = std::max(0.5, 1.0 - 10.0 / N);
  size_t Rank = static_cast<size_t>(std::ceil(P * N));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  T.Value = std::max(V[Rank - 1], median(V));
  T.Percentile = 100 * P;
  return T;
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ULL;
  return H;
}

// --- The benchmark --------------------------------------------------------

/// One simulated run and the host time its phases took.
struct SimRun {
  runtime::RunResult Result;
  double HostSeconds = 0;
};

/// What one program's ops established; later ops must reproduce it.
struct SubjectStats {
  uint64_t ProfiledCycles = 0, Samples = 0;
  uint64_t BeforeCycles = 0, AfterCycles = 0, Instructions = 0;
  uint64_t Accesses[2][3] = {}, Misses[2][3] = {}; ///< [before/after][level]
  uint64_t ShardBytes = 0;
  core::AnalysisStats Report;
};

/// One program of the workload.
struct Subject {
  std::unique_ptr<workloads::Workload> W;
  const FleetWorkload *Fleet = nullptr; ///< Set for the fleet program.
  ir::StructLayout Hot;
  std::string Tag; ///< Shard-file prefix.
  uint64_t PmuSeed = 0;
  bool Seen = false;
  std::string Digest;
  SubjectStats Stats;
};

struct OpRecord {
  uint64_t Id = 0;
  unsigned Round = 0;
  size_t Subject = 0;
  bool Traced = false;
  int Span = -1;
  double AdviseS = 0, VerifyS = 0, TotalS = 0;
  std::vector<double> ReportS; ///< One sample per report run.
  uint64_t SimInstructions = 0;
  double SimHostS = 0, ProfiledHostS = 0, DetachedHostS = 0;
  double DecodeCpuS = 0, ReduceS = 0;
  uint64_t PeakResident = 0, ShardsSkipped = 0;
  bool SplitAttempted = false, IrSplit = false;
  std::string Failure; ///< Empty when every check passed.
};

/// One round: every program of the workload once, stage times summed.
struct RoundRecord {
  bool Traced = false;
  double AdviseS = 0, VerifyS = 0, ReportS = 0, TotalS = 0;
  double HostOverheadS = 0, DecodeCpuS = 0, ReduceS = 0;
  std::map<std::string, double> LayerSelf; ///< Traced rounds only.
};

struct ShardTotals {
  uint64_t Samples = 0;
  uint64_t Latency = 0;
};

class Bench {
public:
  explicit Bench(const Options &Opts)
      : Opts(Opts), ShardDir(fs::path(Opts.OutDir) / "shards") {}

  double scale() const {
    // CLOMP, Health and NN at a quarter of their working sets: the
    // multi-thread engine is slow enough that scale 1 leaves only a
    // handful of ops per run.
    return Opts.Workload == "parallel_loop" ? 0.25 : 1.0;
  }

  /// Workload construction and shard generation; returns host seconds.
  double setUp();
  void runOp(size_t SubjectIndex, uint64_t OpId, unsigned Round, bool Traced);

  Tracer T;
  std::vector<Subject> Subjects;
  std::vector<OpRecord> Ops;

private:
  workloads::BuiltWorkload build(const Subject &S, runtime::ThreadedRuntime &RT,
                                 const transform::FieldMap &Map);
  std::unique_ptr<analysis::CodeMap> codeMap(const ir::Program &P);
  SimRun simulate(runtime::ThreadedRuntime &RT, const ir::Program &P,
                  const analysis::CodeMap &CM,
                  const workloads::BuiltWorkload &Built);
  std::vector<std::string> dump(const runtime::RunResult &R,
                                const std::string &Prefix, OpRecord &Op);
  profile::MergeLoadResult loadMerge(const std::vector<std::string> &Paths,
                                     OpRecord &Op);
  /// Creates a runtime (its Machine and cache hierarchy) and frees one
  /// with its program, under the runtime layer's spans.
  std::unique_ptr<runtime::ThreadedRuntime>
  makeRuntime(const runtime::RunConfig &Cfg) {
    ScopedSpan Span(T, "runtime.init");
    return std::make_unique<runtime::ThreadedRuntime>(Cfg);
  }
  void tearDown(std::unique_ptr<runtime::ThreadedRuntime> &RT,
                workloads::BuiltWorkload &Built) {
    ScopedSpan Span(T, "runtime.teardown");
    RT.reset();
    Built.Program.reset();
  }
  std::string report(const Subject &S, const std::vector<std::string> &Shards,
                     OpRecord &Op, core::AnalysisStats &Counters);
  void fail(OpRecord &Op, const std::string &Why) {
    if (Op.Failure.empty())
      Op.Failure = Why;
  }

  const Options &Opts;
  fs::path ShardDir;
  std::vector<std::string> FleetShards; ///< Written during set-up.
  std::map<std::string, ShardTotals> Totals;
};

workloads::BuiltWorkload Bench::build(const Subject &S,
                                      runtime::ThreadedRuntime &RT,
                                      const transform::FieldMap &Map) {
  ScopedSpan Span(T, "workloads.build");
  return S.W->build(RT.machine(), Map, scale());
}

std::unique_ptr<analysis::CodeMap> Bench::codeMap(const ir::Program &P) {
  ScopedSpan Span(T, "analysis.codemap");
  return std::make_unique<analysis::CodeMap>(P);
}

SimRun Bench::simulate(runtime::ThreadedRuntime &RT, const ir::Program &P,
                       const analysis::CodeMap &CM,
                       const workloads::BuiltWorkload &Built) {
  SimRun Out;
  Clock::time_point Begin = Clock::now();
  for (const auto &Phase : Built.Phases) {
    ScopedSpan Span(T, Phase.size() > 1 ? "runtime.parallel_phase"
                                        : "runtime.serial_phase");
    RT.runPhase(P, &CM, Phase);
  }
  {
    ScopedSpan Span(T, "runtime.finish");
    Out.Result = RT.finish();
  }
  Out.HostSeconds = secondsBetween(Begin, Clock::now());
  return Out;
}

std::vector<std::string> Bench::dump(const runtime::RunResult &R,
                                     const std::string &Prefix, OpRecord &Op) {
  std::vector<std::string> Failures;
  std::vector<std::string> Paths;
  {
    ScopedSpan Span(T, "profile.dump");
    Paths = runtime::dumpProfiles(R.Profiles, ShardDir.string(), Prefix,
                                  &Failures);
  }
  if (!Failures.empty()) {
    fail(Op, "shard dump failed: " + Failures.front());
    return Paths;
  }
  for (size_t I = 0; I != Paths.size(); ++I)
    Totals[Paths[I]] = {R.Profiles[I].TotalSamples,
                        R.Profiles[I].TotalLatency};
  return Paths;
}

profile::MergeLoadResult Bench::loadMerge(const std::vector<std::string> &Paths,
                                          OpRecord &Op) {
  profile::MergeLoadResult Load;
  {
    ScopedSpan Span(T, "profile.load_merge");
    Load = profile::loadAndMergeProfiles(Paths);
  }
  Op.DecodeCpuS += Load.LoadSeconds;
  Op.ReduceS += Load.ReduceSeconds;
  Op.PeakResident = std::max<uint64_t>(Op.PeakResident,
                                       Load.PeakResidentProfiles);
  Op.ShardsSkipped += Load.Skipped.size();
  // Ground truth: the merge must account for every sample and every
  // cycle of sampled latency the shards carry.
  ShardTotals Want;
  for (const std::string &P : Paths) {
    Want.Samples += Totals[P].Samples;
    Want.Latency += Totals[P].Latency;
  }
  if (!Load.Skipped.empty())
    fail(Op, "merge skipped " + Load.Skipped.front().Path + ": " +
                 Load.Skipped.front().Message);
  else if (Load.Merged.TotalSamples != Want.Samples ||
           Load.Merged.TotalLatency != Want.Latency)
    fail(Op, "merged totals differ from the sum over shards");
  return Load;
}

double Bench::setUp() {
  Clock::time_point Begin = Clock::now();
  Subjects.clear();
  FleetShards.clear();
  Totals.clear();
  fs::remove_all(ShardDir);
  fs::create_directories(ShardDir);

  std::vector<std::unique_ptr<workloads::Workload>> Ws;
  if (Opts.Workload == "serial_loop") {
    Ws.push_back(workloads::makeArt());
    Ws.push_back(workloads::makeLibquantum());
    Ws.push_back(workloads::makeTsp());
    Ws.push_back(workloads::makeMser());
  } else if (Opts.Workload == "parallel_loop") {
    Ws.push_back(workloads::makeClomp());
    Ws.push_back(workloads::makeHealth());
    Ws.push_back(workloads::makeNn());
  } else {
    Ws.push_back(std::make_unique<FleetWorkload>(Opts.Seed));
  }
  for (size_t I = 0; I != Ws.size(); ++I) {
    Subject S;
    S.Hot = Ws[I]->hotLayout();
    S.Fleet = dynamic_cast<const FleetWorkload *>(Ws[I].get());
    S.Tag = "prog" + std::to_string(I) + ".";
    S.PmuSeed = Opts.Seed * 1000003 + 7919 * (I + 1);
    S.W = std::move(Ws[I]);
    Subjects.push_back(std::move(S));
  }

  // Every program is built, its IR checked, and profiled once into its
  // first shard set. The fleet is several processes of its program,
  // each with its own PMU phase; their shards are the input every fleet
  // op merges.
  OpRecord Scratch;
  for (Subject &S : Subjects) {
    transform::FieldMap Identity(S.Hot);
    unsigned Processes = S.Fleet ? FleetSetupProcesses : 1;
    for (unsigned Rank = 0; Rank != Processes; ++Rank) {
      runtime::RunConfig Cfg;
      Cfg.Sampling.Seed =
          S.Fleet ? S.PmuSeed + 104729 * (Rank + 1) : S.PmuSeed;
      runtime::ThreadedRuntime RT(Cfg);
      workloads::BuiltWorkload Built = build(S, RT, Identity);
      if (std::string Err = ir::verify(*Built.Program); !Err.empty())
        fail(Scratch, S.W->name() + " built invalid IR: " + Err);
      std::unique_ptr<analysis::CodeMap> CM = codeMap(*Built.Program);
      SimRun Run = simulate(RT, *Built.Program, *CM, Built);
      std::vector<std::string> Paths = dump(
          Run.Result, S.Fleet ? "proc" + std::to_string(Rank) + "." : S.Tag,
          Scratch);
      if (S.Fleet)
        FleetShards.insert(FleetShards.end(), Paths.begin(), Paths.end());
    }
  }
  if (!Scratch.Failure.empty()) {
    std::cerr << "error: set-up failed: " << Scratch.Failure << "\n";
    std::exit(1);
  }
  return secondsBetween(Begin, Clock::now());
}

std::string Bench::report(const Subject &S,
                          const std::vector<std::string> &Shards,
                          OpRecord &Op, core::AnalysisStats &Counters) {
  profile::MergeLoadResult Load = loadMerge(Shards, Op);
  core::AnalysisConfig Config;
  core::AnalysisResult Result;
  {
    ScopedSpan Span(T, "core.analyze");
    core::StructSlimAnalyzer Analyzer(Config);
    Result = Analyzer.analyze(Load.Merged);
  }
  // Timings are left zero so the rendered bytes stay deterministic.
  core::ReportStats Stats;
  Stats.Jobs = support::ThreadPool::defaultThreadCount();
  Stats.ShardsMerged = Load.Loaded.size();
  Stats.ShardsSkipped = Load.Skipped.size();
  std::string Bytes;
  {
    ScopedSpan Span(T, "core.render");
    Bytes = core::renderJsonReport(Result, Load.Merged, Config, Stats,
                                   Load.Skipped);
  }
  for (const core::ObjectAnalysis &O : Result.Objects) {
    core::SplitPlan ObjPlan;
    {
      ScopedSpan Span(T, "core.plan");
      ObjPlan = core::makeSplitPlan(O);
    }
    ScopedSpan Span(T, "core.render");
    Bytes += core::renderAdviceText(ObjPlan, O);
  }
  Counters = Result.Stats;
  // Ground truth for sizes: the workload's declared layout, and in the
  // fleet every analyzed object's planted layout.
  const core::ObjectAnalysis *HotObj = Result.findObject(S.W->hotObjectName());
  if (!HotObj || HotObj->StructSize != S.Hot.getSize())
    fail(Op, "report: hot object size differs from the declared layout");
  if (S.Fleet)
    for (const core::ObjectAnalysis &O : Result.Objects)
      if (O.StructSize != S.Fleet->plantedSize(O.Name))
        fail(Op, "report: " + O.Name + " size " +
                     std::to_string(O.StructSize) + " != planted " +
                     std::to_string(S.Fleet->plantedSize(O.Name)));
  return Bytes;
}

void Bench::runOp(size_t SubjectIndex, uint64_t OpId, unsigned Round,
                  bool Traced) {
  Subject &S = Subjects[SubjectIndex];
  OpRecord Op;
  Op.Id = OpId;
  Op.Round = Round;
  Op.Subject = SubjectIndex;
  Op.Traced = Traced;
  T.setEnabled(Traced);
  T.setOp(OpId);
  Op.Span = T.begin("op");
  transform::FieldMap Identity(S.Hot);
  const std::string HotName = S.W->hotObjectName();
  std::ostringstream Digest;
  Digest << "program " << S.W->name() << " pmu_seed " << S.PmuSeed << "\n";

  // --- advise -------------------------------------------------------------
  Clock::time_point Begin = Clock::now();
  int Stage = T.begin("advise");
  SimRun Profiled;
  std::vector<std::string> Shards;
  core::SplitPlan Plan;
  Plan.ObjectName = HotName;
  std::string Advice;
  uint64_t ShardBytes = 0;
  {
    runtime::RunConfig Cfg;
    Cfg.Sampling.Seed = S.PmuSeed;
    auto RT = makeRuntime(Cfg);
    workloads::BuiltWorkload Built = build(S, *RT, Identity);
    std::unique_ptr<analysis::CodeMap> CM = codeMap(*Built.Program);
    Profiled = simulate(*RT, *Built.Program, *CM, Built);
    tearDown(RT, Built);
    Shards = dump(Profiled.Result, S.Tag, Op);
    for (const std::string &P : Shards)
      ShardBytes += fs::file_size(P);
    if (S.Fleet)
      Shards.insert(Shards.begin(), FleetShards.begin(), FleetShards.end());
    profile::MergeLoadResult Load = loadMerge(Shards, Op);

    core::AnalysisResult Analysis;
    {
      ScopedSpan Span(T, "core.analyze");
      core::StructSlimAnalyzer Analyzer(*CM);
      Analyzer.registerLayout(HotName, S.Hot);
      Analysis = Analyzer.analyze(Load.Merged);
    }
    const core::ObjectAnalysis *HotObj = Analysis.findObject(HotName);
    if (!HotObj) {
      fail(Op, "hot object '" + HotName + "' not among the analyzed objects");
    } else {
      {
        ScopedSpan Span(T, "core.plan");
        Plan = core::makeSplitPlan(*HotObj, &S.Hot);
      }
      {
        ScopedSpan Span(T, "core.render");
        Advice = core::renderAdviceText(Plan, *HotObj, &S.Hot);
      }
      if (HotObj->StructSize != S.Hot.getSize())
        fail(Op, "inferred size " + std::to_string(HotObj->StructSize) +
                     " != declared " + std::to_string(S.Hot.getSize()));
    }
  }
  T.end(Stage);
  Clock::time_point AdviseEnd = Clock::now();

  // --- verify -------------------------------------------------------------
  Stage = T.begin("verify");
  runtime::RunConfig Detached;
  Detached.AttachProfiler = false;
  SimRun Before, After;
  const char *Mode = "none";
  {
    auto RT = makeRuntime(Detached);
    workloads::BuiltWorkload Built = build(S, *RT, Identity);
    std::unique_ptr<analysis::CodeMap> CM = codeMap(*Built.Program);
    Before = simulate(*RT, *Built.Program, *CM, Built);
    tearDown(RT, Built);
  }
  if (!Plan.isSplit()) {
    After = Before;
  } else {
    // Mirrors the closed loop's two apply paths: rewrite the built IR
    // through the allocation token, else rebuild under the split map.
    auto RT = makeRuntime(Detached);
    workloads::BuiltWorkload Built = build(S, *RT, Identity);
    std::unique_ptr<ir::Program> Split;
    {
      ScopedSpan Span(T, "transform.split");
      Op.SplitAttempted = true;
      std::string Err;
      if (uint32_t Token = Built.Program->findToken(HotName))
        Split = transform::splitArrayOfStructs(*Built.Program, Token, S.Hot,
                                               Plan, &Err);
      if (Split && !ir::verify(*Split).empty())
        Split.reset();
    }
    if (Split) {
      Mode = "ir-split";
      Op.IrSplit = true;
      std::unique_ptr<analysis::CodeMap> CM = codeMap(*Split);
      After = simulate(*RT, *Split, *CM, Built);
    } else {
      Mode = "fieldmap-rebuild";
      transform::FieldMap SplitMap(S.Hot, Plan);
      auto Rebuilt = makeRuntime(Detached);
      workloads::BuiltWorkload SplitBuilt = build(S, *Rebuilt, SplitMap);
      std::unique_ptr<analysis::CodeMap> CM = codeMap(*SplitBuilt.Program);
      After = simulate(*Rebuilt, *SplitBuilt.Program, *CM, SplitBuilt);
      tearDown(Rebuilt, SplitBuilt);
    }
    tearDown(RT, Built);
  }
  if (After.Result.ReturnValues != Before.Result.ReturnValues)
    fail(Op, "split program returned different values");
  if (After.Result.ElapsedCycles > Before.Result.ElapsedCycles)
    fail(Op, "split program is slower in simulated cycles");
  T.end(Stage);
  Clock::time_point VerifyEnd = Clock::now();

  // --- report -------------------------------------------------------------
  // The structslim-report path over the op's shards, run ReportRuns times,
  // each cold: every run is one report sample and renders the same bytes.
  std::string ReportBytes;
  core::AnalysisStats ReportStats;
  for (unsigned Run = 0; Run != ReportRuns; ++Run) {
    Clock::time_point RunBegin = Clock::now();
    Stage = T.begin("report");
    std::string Bytes = report(S, Shards, Op, ReportStats);
    T.end(Stage);
    Op.ReportS.push_back(secondsBetween(RunBegin, Clock::now()));
    if (Run == 0)
      ReportBytes = std::move(Bytes);
    else if (Bytes != ReportBytes)
      fail(Op, "report bytes differ between runs over the same shards");
  }
  Clock::time_point ReportEnd = Clock::now();
  T.end(Op.Span);
  if (!Traced)
    Op.Span = -1;

  Op.AdviseS = secondsBetween(Begin, AdviseEnd);
  Op.VerifyS = secondsBetween(AdviseEnd, VerifyEnd);
  Op.TotalS = secondsBetween(Begin, ReportEnd);
  const runtime::RunResult &P = Profiled.Result, &B = Before.Result,
                           &A = After.Result;
  Op.SimInstructions = P.Instructions + B.Instructions +
                       (Plan.isSplit() ? A.Instructions : 0);
  Op.SimHostS = Profiled.HostSeconds + Before.HostSeconds +
                (Plan.isSplit() ? After.HostSeconds : 0);
  Op.ProfiledHostS = Profiled.HostSeconds;
  Op.DetachedHostS = Before.HostSeconds;

  // --- simulated-statistics digest -----------------------------------------
  auto Counters = [&](const char *Label, const runtime::RunResult &R) {
    Digest << Label << " instructions " << R.Instructions
           << " memory_accesses " << R.MemoryAccesses << " samples "
           << R.Samples << " elapsed_cycles " << R.ElapsedCycles;
    for (unsigned L = 0; L != 3; ++L)
      Digest << " l" << (L + 1) << " " << R.Accesses[L] << "/" << R.Misses[L];
    Digest << "\n";
  };
  Counters("profiled", P);
  Counters("before", B);
  Counters("after", A);
  Digest << "apply " << Mode << "\n"
         << "report objects " << ReportStats.ObjectsAnalyzed << " streams "
         << ReportStats.StreamsAnalyzed << " sparse "
         << ReportStats.SparseStreams << " bytes " << ReportBytes.size()
         << " fnv1a " << std::hex << fnv1a(ReportBytes) << std::dec << "\n"
         << "advice\n"
         << Advice;
  if (!S.Seen) {
    S.Seen = true;
    S.Digest = Digest.str();
    SubjectStats &St = S.Stats;
    St.ProfiledCycles = P.ElapsedCycles;
    St.Samples = P.Samples;
    St.BeforeCycles = B.ElapsedCycles;
    St.AfterCycles = A.ElapsedCycles;
    St.Instructions = Op.SimInstructions;
    St.ShardBytes = ShardBytes;
    for (unsigned L = 0; L != 3; ++L) {
      St.Accesses[0][L] = B.Accesses[L];
      St.Misses[0][L] = B.Misses[L];
      St.Accesses[1][L] = A.Accesses[L];
      St.Misses[1][L] = A.Misses[L];
    }
    St.Report = ReportStats;
  } else if (Digest.str() != S.Digest) {
    fail(Op, "simulated statistics or advice bytes differ from the first op");
  }
  if (!Op.Failure.empty())
    std::cerr << "op " << OpId << " (" << S.W->name()
              << ") failed: " << Op.Failure << "\n";
  Ops.push_back(std::move(Op));
}

// --- Reporting ------------------------------------------------------------

unsigned onlineCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N) : 1;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      size_t Start = Line.find_first_not_of(' ', Colon + 1);
      return Start == std::string::npos ? "" : Line.substr(Start);
    }
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

std::string fingerprintJson(const Options &Opts, double Scale) {
  unsigned Nproc = onlineCpus();
  const char *Env = std::getenv("STRUCTSLIM_THREADS");
  long Requested = Env ? std::strtol(Env, nullptr, 10) : 0;
  bool Unrepresentative = Requested > static_cast<long>(Nproc);
  std::ostringstream OS;
  OS << "{\"nproc\": " << Nproc << ", \"hardware_concurrency\": "
     << std::thread::hardware_concurrency()
     << ", \"pool_default_threads\": "
     << support::ThreadPool::defaultThreadCount()
     << ", \"structslim_threads_env\": \""
     << jsonEscape(Env ? Env : "") << "\", \"unrepresentative\": "
     << (Unrepresentative ? "true" : "false") << ", \"cpu_model\": \""
     << jsonEscape(cpuModel()) << "\", \"compiler\": \""
     << jsonEscape(__VERSION__) << "\", \"build_type\": \""
     << SS_BENCH_BUILD_TYPE << "\", \"workload\": \"" << Opts.Workload
     << "\", \"seed\": " << Opts.Seed << ", \"scale\": " << fmt(Scale)
     << ", \"sampling_period\": " << runtime::RunConfig().Sampling.Period
     << "}";
  return OS.str();
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  std::string Error;
  if (!parseArgs(argc, argv, Opts, Error))
    return usage(Error);

  Bench B(Opts);
  fs::create_directories(Opts.OutDir);

  // Set up several times; the median is the set-up cost.
  const unsigned SetUps = Opts.Workload == "fleet_report" ? 3 : 5;
  std::vector<double> SetUpSeconds;
  for (unsigned I = 0; I != SetUps; ++I)
    SetUpSeconds.push_back(B.setUp());

  // Closed loop over whole rounds (one op per program).
  const unsigned MinRounds = Opts.Trace ? 2 : 1;
  Clock::time_point Begin = Clock::now();
  uint64_t OpId = 0;
  unsigned NumRounds = 0;
  while (NumRounds < MinRounds ||
         secondsBetween(Begin, Clock::now()) < Opts.Seconds) {
    bool Traced = Opts.Trace && NumRounds % 2 == 0;
    for (size_t S = 0; S != B.Subjects.size(); ++S)
      B.runOp(S, ++OpId, NumRounds, Traced);
    ++NumRounds;
  }
  B.T.setEnabled(false);
  double Measured = secondsBetween(Begin, Clock::now());

  uint64_t Failed = 0;
  for (const OpRecord &Op : B.Ops)
    Failed += !Op.Failure.empty();
  const uint64_t Attempted = B.Ops.size();

  std::cout << "workload " << Opts.Workload << " seed " << Opts.Seed << ": "
            << Attempted << " ops in " << NumRounds << " rounds, "
            << fmt(Measured) << " s, " << Failed
            << " failed (closed loop, 1 client)\n";
  std::string Fingerprint = fingerprintJson(Opts, B.scale());
  std::cout << "fingerprint " << Fingerprint << "\n";

  // Simulated-statistics digest: one block per program and seed.
  std::string Digest;
  for (const Subject &S : B.Subjects)
    Digest += S.Digest + "\n";
  std::cout << "digest fnv1a " << std::hex << fnv1a(Digest) << std::dec
            << "\n";
  std::ofstream(fs::path(Opts.OutDir) / "digest.txt") << Digest;
  std::ofstream(fs::path(Opts.OutDir) / "fingerprint.json")
      << Fingerprint << "\n";

  // Per-program medians, untraced ops only.
  for (size_t I = 0; I != B.Subjects.size(); ++I) {
    std::vector<double> A, V, R;
    for (const OpRecord &Op : B.Ops)
      if (Op.Subject == I && !Op.Traced) {
        A.push_back(Op.AdviseS);
        V.push_back(Op.VerifyS);
        R.push_back(median(Op.ReportS));
      }
    std::cout << "program " << B.Subjects[I].W->name() << ": advise p50 "
              << fmt(median(A)) << " s, verify p50 " << fmt(median(V))
              << " s, report p50 " << fmt(median(R)) << " s, n " << A.size()
              << "\n";
  }

  // One timing sample per round: each stage summed over the round's
  // programs, an op's report time being the median of its cold runs.
  // Every sample then weighs the programs equally.
  std::map<uint64_t, std::map<std::string, double>> Self = B.T.layerSelfByOp();
  std::vector<RoundRecord> Rounds(NumRounds);
  for (const OpRecord &Op : B.Ops) {
    RoundRecord &R = Rounds[Op.Round];
    R.Traced = Op.Traced;
    R.AdviseS += Op.AdviseS;
    R.VerifyS += Op.VerifyS;
    R.ReportS += median(Op.ReportS);
    R.TotalS += Op.TotalS;
    R.HostOverheadS += Op.ProfiledHostS - Op.DetachedHostS;
    R.DecodeCpuS += Op.DecodeCpuS;
    R.ReduceS += Op.ReduceS;
    for (auto &[Name, Seconds] : Self[Op.Id])
      R.LayerSelf[Name] += Seconds;
  }
  auto OverRounds = [&](bool Traced, auto Pick) {
    std::vector<double> V;
    for (const RoundRecord &R : Rounds)
      if (R.Traced == Traced)
        V.push_back(Pick(R));
    return V;
  };

  std::vector<Metric> Metrics;
  auto Timing = [&](const std::string &Stem, std::vector<double> V) {
    Tail T = tailOf(V);
    std::cout << Stem << " per round: p50 " << fmt(median(V)) << " s, p"
              << fmt(T.Percentile) << " " << fmt(T.Value) << " s, n "
              << V.size() << "\n";
    Metrics.push_back({Stem + "_p50_s", median(V), "s"});
    Metrics.push_back({Stem + "_tail_s", T.Value, "s"});
  };

  if (!Opts.Trace) {
    Metrics.push_back({"setup_s", median(SetUpSeconds), "s"});
    Timing("advise",
           OverRounds(false, [](const RoundRecord &R) { return R.AdviseS; }));
    Timing("verify",
           OverRounds(false, [](const RoundRecord &R) { return R.VerifyS; }));
    Timing("report",
           OverRounds(false, [](const RoundRecord &R) { return R.ReportS; }));
    double Instr = 0, Host = 0, ProfHost = 0, DetHost = 0;
    for (const OpRecord &Op : B.Ops) {
      Instr += static_cast<double>(Op.SimInstructions);
      Host += Op.SimHostS;
      ProfHost += Op.ProfiledHostS;
      DetHost += Op.DetachedHostS;
    }
    double OverheadSum = 0, LogSpeedup = 0;
    for (const Subject &S : B.Subjects) {
      OverheadSum += static_cast<double>(S.Stats.ProfiledCycles) /
                         static_cast<double>(S.Stats.BeforeCycles) -
                     1.0;
      LogSpeedup += std::log(static_cast<double>(S.Stats.BeforeCycles) /
                             static_cast<double>(S.Stats.AfterCycles));
    }
    double NSubjects = static_cast<double>(B.Subjects.size());
    Metrics.push_back({"sim_minstr_per_s", Instr / Host / 1e6, "Minstr/s"});
    Metrics.push_back({"profile_slowdown", ProfHost / DetHost, "ratio"});
    Metrics.push_back(
        {"sim_overhead_pct", 100 * OverheadSum / NSubjects, "%"});
    Metrics.push_back(
        {"split_speedup", std::exp(LogSpeedup / NSubjects), "ratio"});
    Metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    Metrics.push_back({"ok_frac",
                       static_cast<double>(Attempted - Failed) /
                           static_cast<double>(Attempted),
                       "fraction"});
  } else {
    // Per-layer numbers from the traced rounds; the untraced rounds give
    // the tracing overhead.
    double RuntimeSelf = 0, RuntimeInstr = 0, MinCoverage = 1;
    uint64_t SplitAttempts = 0, IrSplits = 0, PeakResident = 0, Skipped = 0;
    for (const OpRecord &Op : B.Ops) {
      if (!Op.Traced)
        continue;
      const std::map<std::string, double> &L = Self[Op.Id];
      for (const char *Name : {"runtime.serial_phase", "runtime.parallel_phase",
                               "runtime.init", "runtime.finish",
                               "runtime.teardown"})
        if (auto It = L.find(Name); It != L.end())
          RuntimeSelf += It->second;
      RuntimeInstr += static_cast<double>(Op.SimInstructions);
      MinCoverage = std::min(MinCoverage, B.T.layerCoverage(Op.Span));
      SplitAttempts += Op.SplitAttempted;
      IrSplits += Op.IrSplit;
      PeakResident = std::max(PeakResident, Op.PeakResident);
      Skipped += Op.ShardsSkipped;
    }
    auto Layer = [&](const char *Name) {
      return median(OverRounds(true, [&](const RoundRecord &R) {
        auto It = R.LayerSelf.find(Name);
        return It == R.LayerSelf.end() ? 0.0 : It->second;
      }));
    };
    auto TracedMedian = [&](double RoundRecord::*Field) {
      return median(
          OverRounds(true, [&](const RoundRecord &R) { return R.*Field; }));
    };
    double TracedTotal = TracedMedian(&RoundRecord::TotalS);
    double UntracedTotal = median(
        OverRounds(false, [](const RoundRecord &R) { return R.TotalS; }));

    SubjectStats Sum;
    for (const Subject &S : B.Subjects) {
      Sum.Instructions += S.Stats.Instructions;
      Sum.Samples += S.Stats.Samples;
      Sum.ProfiledCycles += S.Stats.ProfiledCycles - S.Stats.BeforeCycles;
      Sum.ShardBytes += S.Stats.ShardBytes;
      for (unsigned W = 0; W != 2; ++W)
        for (unsigned L = 0; L != 3; ++L) {
          Sum.Accesses[W][L] += S.Stats.Accesses[W][L];
          Sum.Misses[W][L] += S.Stats.Misses[W][L];
        }
      Sum.Report.ObjectsAnalyzed += S.Stats.Report.ObjectsAnalyzed;
      Sum.Report.StreamsAnalyzed += S.Stats.Report.StreamsAnalyzed;
      Sum.Report.SparseStreams += S.Stats.Report.SparseStreams;
    }
    auto Count = [](uint64_t V) { return static_cast<double>(V); };
    auto M = [&](const std::string &Name, double V, const char *Unit) {
      Metrics.push_back({Name, V, Unit});
    };
    M("workloads.build_s", Layer("workloads.build"), "s");
    M("analysis.codemap_s", Layer("analysis.codemap"), "s");
    M("runtime.serial_phase_s", Layer("runtime.serial_phase"), "s");
    M("runtime.parallel_phase_s", Layer("runtime.parallel_phase"), "s");
    M("runtime.ns_per_instr",
      RuntimeInstr > 0 ? 1e9 * RuntimeSelf / RuntimeInstr : 0, "ns");
    M("runtime.instructions", Count(Sum.Instructions), "count");
    M("pmu.samples", Count(Sum.Samples), "count");
    M("pmu.sim_overhead_cycles", Count(Sum.ProfiledCycles), "cycles");
    M("pmu.host_overhead_s", TracedMedian(&RoundRecord::HostOverheadS), "s");
    const char *Levels[3] = {"l1", "l2", "l3"};
    const char *When[2] = {"before", "after"};
    for (unsigned W = 0; W != 2; ++W) {
      M(std::string("cache.accesses.") + When[W], Count(Sum.Accesses[W][0]),
        "count");
      for (unsigned L = 0; L != 3; ++L)
        M(std::string("cache.") + Levels[L] + "_misses." + When[W],
          Count(Sum.Misses[W][L]), "count");
    }
    M("profile.dump_s", Layer("profile.dump"), "s");
    M("profile.shard_bytes", Count(Sum.ShardBytes), "bytes");
    M("profile.load_merge_s", Layer("profile.load_merge"), "s");
    M("profile.decode_cpu_s", TracedMedian(&RoundRecord::DecodeCpuS), "s");
    M("profile.reduce_s", TracedMedian(&RoundRecord::ReduceS), "s");
    M("profile.peak_resident", Count(PeakResident), "count");
    M("profile.shards_skipped", Count(Skipped), "count");
    M("core.analyze_s", Layer("core.analyze"), "s");
    M("core.objects_analyzed", Count(Sum.Report.ObjectsAnalyzed), "count");
    M("core.streams_analyzed", Count(Sum.Report.StreamsAnalyzed), "count");
    M("core.sparse_streams", Count(Sum.Report.SparseStreams), "count");
    M("core.plan_s", Layer("core.plan"), "s");
    M("core.render_s", Layer("core.render"), "s");
    M("transform.split_s", Layer("transform.split"), "s");
    M("transform.ir_split_frac",
      SplitAttempts ? Count(IrSplits) / Count(SplitAttempts) : 0, "fraction");
    M("trace.overhead_s", TracedTotal - UntracedTotal, "s");
    M("trace.coverage_min", MinCoverage, "fraction");

    std::set<std::string> Names;
    for (const RoundRecord &R : Rounds)
      for (auto &[Name, Seconds] : R.LayerSelf)
        Names.insert(Name);
    std::cout << "self time per traced round (median):\n";
    for (const std::string &Name : Names)
      std::cout << "  " << Name << " " << fmt(Layer(Name.c_str())) << " s\n";
    std::cout << "layer coverage of op wall time: min " << fmt(MinCoverage)
              << "\ntracing overhead: traced round p50 " << fmt(TracedTotal)
              << " s, untraced round p50 " << fmt(UntracedTotal) << " s\n";
    std::ofstream Trace(fs::path(Opts.OutDir) / "trace.json");
    B.T.writeChromeTrace(Trace);
  }

  for (const Metric &Mx : Metrics)
    std::cout << "metric " << Mx.Name << " " << fmt(Mx.Value) << " " << Mx.Unit
              << "\n";
  std::ostringstream Json;
  Json << "{\"correct\": " << (Failed == 0 ? "true" : "false")
       << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
       << ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Json << (I ? ", " : "") << "\"" << Metrics[I].Name
         << "\": {\"value\": " << fmt(Metrics[I].Value) << ", \"unit\": \""
         << Metrics[I].Unit << "\"}";
  Json << "}}";
  std::cout << Json.str() << std::endl;
  return 0;
}
