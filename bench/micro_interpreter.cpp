//===- bench/micro_interpreter.cpp - Interpreter core throughput -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Throughput of the two interpreter cores and of the two simulation
// placements. The hot loop is a profiler-shaped, L1-resident loop: the
// reference core (direct ir::Instr walk, one switch per instruction)
// runs against the predecoded core (dispatch over dense op arrays, fused
// pairs and loop latches, flat frames, page-pointer cache), with the
// profiler detached (the pure simulation path the paper's Fig. 4/5
// baselines pay) and attached (PMU sampling + online attribution on
// top). The miss-heavy loop is ART-shaped: a long-stride walk over an
// array of 136-byte records far larger than the L2, so nearly every
// access goes to the L3 and the simulation backend, not the
// interpreter, carries the cost. Each loop runs decoupled (the default)
// against the inline-simulation oracle, and the decoupled rows show the
// producer's and the consumer's busy time, so a reader can see which
// side bounds the pipeline, along with the records the producer
// published per instruction and the consumer's busy share of the wall
// time.
//
// It also predecodes (without running) the seven paper workloads and
// prints how often each fusion applies in their code. Every one of them
// must fuse at least one loop latch; a builder or predecoder change
// that stops the fusion makes this bench exit 1.
//
// Every configuration must agree bit for bit with its oracle — this
// bench asserts counters, return values, and serialized profile bytes —
// and the interesting output is instructions per second (median and
// quartiles over alternating repeats) and the speedups.
//
// Writes BENCH_interp.json (override the path with argv[1]).
//
//===----------------------------------------------------------------------===//

#include "Spread.h"
#include "analysis/CodeMap.h"
#include "ir/ProgramBuilder.h"
#include "profile/ProfileIO.h"
#include "runtime/Predecode.h"
#include "runtime/ThreadedRuntime.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "transform/FieldMap.h"
#include "workloads/Registry.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

using namespace structslim;
using ir::Reg;

namespace {

struct Built {
  std::unique_ptr<ir::Program> P;
  uint32_t MainId = 0;
  uint32_t WorkerId = 0;
};

/// The hot loop: Reps passes over an N-slot array, each iteration two
/// indexed loads, an ALU mixing tail, a compare-and-branch (a fused
/// pair), a strided store, and the loop latch (fused).
Built buildHot(runtime::Machine &M, int64_t N, int64_t Reps) {
  uint64_t Mailbox = M.defineStatic("interp_shared", 64);
  Built Out;
  Out.P = std::make_unique<ir::Program>();

  ir::Function &Main = Out.P->addFunction("main", 0);
  Out.MainId = Main.Id;
  {
    ir::ProgramBuilder B(*Out.P, Main);
    B.setLine(100);
    Reg Bytes = B.constI(N * 8);
    Reg Arr = B.alloc(Bytes, "_Hot");
    B.forLoopI(0, N, 1, [&](Reg I) {
      B.setLine(101);
      B.store(B.mulI(I, 0x9e3779b9), Arr, I, 8, 0, 8);
      B.setLine(100);
    });
    Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
    B.store(Arr, Mb, ir::NoReg, 1, 0, 8);
    B.ret();
  }

  ir::Function &Worker = Out.P->addFunction("hotloop", 1);
  Out.WorkerId = Worker.Id;
  {
    ir::ProgramBuilder B(*Out.P, Worker);
    Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
    Reg Arr = B.load(Mb, ir::NoReg, 1, 0, 8);
    Reg Acc = B.constI(0);
    B.setLine(200);
    B.forLoopI(0, Reps, 1, [&](Reg Pass) {
      B.forLoopI(0, N, 1, [&](Reg I) {
        B.setLine(201);
        Reg J = B.addI(I, 1);
        Reg V = B.load(Arr, I, 8, 0, 8);
        Reg W = B.load(Arr, J, 8, 0, 4);
        // Murmur-style mixing: the arithmetic tail a compiled hot loop
        // carries between its memory accesses.
        Reg H = B.bxor(V, W);
        H = B.mulI(H, 0x5bd1e995);
        H = B.bxor(H, B.shr(H, B.constI(15)));
        H = B.addI(H, 0x2545f491);
        H = B.bxor(H, B.shl(H, B.constI(3)));
        H = B.mulI(H, 0x9e3779b1);
        H = B.bxor(H, B.shr(H, B.constI(13)));
        B.accumulate(Acc, H);
        B.ifThen(B.cmpLt(W, B.constI(1 << 16)), // CmpLt+CondBr: fused
                 [&] { B.accumulate(Acc, B.constI(3)); });
        B.store(B.add(V, Pass), Arr, I, 8, 0, 8);
        B.setLine(200);
      });
    });
    B.ret(Acc);
  }
  return Out;
}

/// The miss-heavy loop: Reps passes over N 136-byte records (ART's
/// long-stride shape), reading two fields on different lines and
/// updating the first. N * 136 bytes is far beyond the L2, so each
/// record's first touch misses both private levels.
Built buildStride(runtime::Machine &M, int64_t N, int64_t Reps) {
  constexpr uint32_t Record = 136;
  uint64_t Mailbox = M.defineStatic("interp_shared", 64);
  Built Out;
  Out.P = std::make_unique<ir::Program>();

  ir::Function &Main = Out.P->addFunction("main", 0);
  Out.MainId = Main.Id;
  {
    ir::ProgramBuilder B(*Out.P, Main);
    B.setLine(300);
    Reg Arr = B.alloc(B.constI(N * Record), "_Neuron");
    B.forLoopI(0, N, 1, [&](Reg I) {
      B.setLine(301);
      B.store(I, Arr, I, Record, 0, 8);
      B.store(B.mulI(I, 3), Arr, I, Record, 72, 8);
      B.setLine(300);
    });
    Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
    B.store(Arr, Mb, ir::NoReg, 1, 0, 8);
    B.ret();
  }

  ir::Function &Worker = Out.P->addFunction("strideloop", 1);
  Out.WorkerId = Worker.Id;
  {
    ir::ProgramBuilder B(*Out.P, Worker);
    Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
    Reg Arr = B.load(Mb, ir::NoReg, 1, 0, 8);
    Reg Acc = B.constI(0);
    B.setLine(400);
    B.forLoopI(0, Reps, 1, [&](Reg) {
      B.forLoopI(0, N, 1, [&](Reg I) {
        B.setLine(401);
        Reg X = B.load(Arr, I, Record, 0, 8);
        Reg W = B.load(Arr, I, Record, 72, 8);
        B.accumulate(Acc, B.add(X, W));
        B.store(B.addI(X, 1), Arr, I, Record, 0, 8);
        B.setLine(400);
      });
    });
    B.ret(Acc);
  }
  return Out;
}

using BuildFn = Built (*)(runtime::Machine &, int64_t, int64_t);

struct Config {
  const char *Name;
  BuildFn Build;
  bool Reference;
  bool Attach;
  bool InlineSimulation;
};

struct Measured {
  runtime::RunResult R;
  double Seconds = 0;
};

Measured runOnce(const Config &C, int64_t N, int64_t Reps) {
  runtime::RunConfig Cfg;
  Cfg.ReferenceInterpreter = C.Reference;
  Cfg.AttachProfiler = C.Attach;
  Cfg.InlineSimulation = C.InlineSimulation;
  runtime::ThreadedRuntime RT(Cfg);
  Built Program = C.Build(RT.machine(), N, Reps);
  analysis::CodeMap Map(*Program.P);
  // Both phases are timed: RunResult's instruction count and consumer
  // busy time cover both.
  auto Begin = std::chrono::steady_clock::now();
  RT.runPhase(*Program.P, &Map, {runtime::ThreadSpec{Program.MainId, {}}});
  RT.runPhase(*Program.P, &Map, {runtime::ThreadSpec{Program.WorkerId, {0}}});
  auto End = std::chrono::steady_clock::now();
  Measured Out;
  Out.R = RT.finish();
  Out.Seconds = std::chrono::duration<double>(End - Begin).count();
  return Out;
}

bool identical(const runtime::RunResult &A, const runtime::RunResult &B) {
  if (A.ElapsedCycles != B.ElapsedCycles || A.TotalCycles != B.TotalCycles ||
      A.Instructions != B.Instructions ||
      A.MemoryAccesses != B.MemoryAccesses || A.Samples != B.Samples ||
      A.ReturnValues != B.ReturnValues)
    return false;
  for (unsigned Level = 0; Level != 3; ++Level)
    if (A.Accesses[Level] != B.Accesses[Level] ||
        A.Misses[Level] != B.Misses[Level])
      return false;
  if (A.Profiles.size() != B.Profiles.size())
    return false;
  for (size_t I = 0; I != A.Profiles.size(); ++I)
    if (profile::profileToString(A.Profiles[I]) !=
        profile::profileToString(B.Profiles[I]))
      return false;
  return true;
}

/// One configuration's repeats.
struct Row {
  explicit Row(const Config &C) : C(C) {}

  Config C;
  runtime::RunResult First; ///< Simulated results (asserted per repeat).
  std::vector<double> Seconds;
  std::vector<double> ConsumerBusy;
  bool Stable = true; ///< Every repeat reproduced the first's results.

  Spread wall() const { return spreadOf(Seconds); }
  double ips() const {
    double S = wall().Median;
    return S > 0 ? static_cast<double>(First.Instructions) / S : 0.0;
  }
  double consumerBusy() const { return spreadOf(ConsumerBusy).Median; }
  /// The consumer's busy time over the wall time (medians).
  double consumerShare() const {
    double Wall = wall().Median;
    return Wall > 0 ? consumerBusy() / Wall : 0.0;
  }
  double recordsPerInstruction() const {
    return First.Instructions
               ? static_cast<double>(First.PipelineRecords) /
                     static_cast<double>(First.Instructions)
               : 0.0;
  }
};

/// Fused opcodes, in POpc order, with their column names.
constexpr std::pair<runtime::POpc, const char *> FusedKinds[] = {
    {runtime::POpc::FusedConstIStore, "ConstIStore"},
    {runtime::POpc::FusedCmpLtBr, "CmpLtBr"},
    {runtime::POpc::FusedCmpLeBr, "CmpLeBr"},
    {runtime::POpc::FusedCmpEqBr, "CmpEqBr"},
    {runtime::POpc::FusedCmpNeBr, "CmpNeBr"},
    {runtime::POpc::FusedLoopLatch, "LoopLatch"},
    {runtime::POpc::FusedWorkLatch, "WorkLatch"},
};

struct FusionCounts {
  std::string Workload;
  std::vector<size_t> Counts; ///< One per FusedKinds entry.
  size_t Latches = 0;         ///< FusedLoopLatch, one per fused back edge.
};

/// Static fusion counts of each paper workload's program (predecoded,
/// not run; the counts do not depend on the input scale).
std::vector<FusionCounts> paperFusionCounts() {
  std::vector<FusionCounts> Out;
  for (const auto &W : workloads::makePaperWorkloads()) {
    runtime::Machine M;
    transform::FieldMap Layout(W->hotLayout());
    workloads::BuiltWorkload Built = W->build(M, Layout, /*Scale=*/0.05);
    runtime::PredecodedProgram PP(*Built.Program);
    FusionCounts C{W->name(), {},
                   PP.getNumFused(runtime::POpc::FusedLoopLatch)};
    for (const auto &Kind : FusedKinds)
      C.Counts.push_back(PP.getNumFused(Kind.first));
    Out.push_back(std::move(C));
  }
  return Out;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Start = Line.find_first_not_of(" \t", Line.find(':') + 1);
      return Start == std::string::npos ? "" : Line.substr(Start);
    }
  return "unknown";
}

} // namespace

int main(int argc, char **argv) {
  // --smoke: one small repeat per config, for CI. A JSON path may
  // follow or precede it.
  bool Smoke = false;
  const char *JsonPath = "BENCH_interp.json";
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) == "--smoke")
      Smoke = true;
    else
      JsonPath = argv[I];
  }
  const int64_t HotN = Smoke ? 1 << 10 : 1 << 14;
  const int64_t HotReps = Smoke ? 8 : 160;
  const int64_t StrideN = Smoke ? 1 << 12 : 1 << 16;
  const int64_t StrideReps = Smoke ? 2 : 24;
  const unsigned Repeats = Smoke ? 1 : 5;
  // With one worker there is no consumer thread: the decoupled rows run
  // on the inline path and publish no records.
  const bool ThreadedConsumer = support::ThreadPool::defaultThreadCount() > 1;

  std::cout << "Interpreter core throughput (hot loop " << HotN
            << " slots x " << HotReps << " passes; miss-heavy loop "
            << StrideN << " records x " << StrideReps << " passes; "
            << Repeats << " alternating repeats; consumer "
            << (ThreadedConsumer ? "on its own thread"
                                 : "none, one worker: every row simulates "
                                   "inline")
            << ")\n\n";

  std::vector<FusionCounts> Fusions = paperFusionCounts();
  TablePrinter FusionTable;
  std::vector<std::string> Header = {"workload"};
  for (const auto &Kind : FusedKinds)
    Header.push_back(Kind.second);
  FusionTable.setHeader(Header);
  bool EveryLatchFused = true;
  for (const FusionCounts &F : Fusions) {
    std::vector<std::string> Cells = {F.Workload};
    for (size_t N : F.Counts)
      Cells.push_back(std::to_string(N));
    FusionTable.addRow(Cells);
    EveryLatchFused = EveryLatchFused && F.Latches > 0;
  }
  std::cout << "Static fusion counts (fused ops in each paper workload's "
               "predecoded program):\n";
  FusionTable.print(std::cout);
  std::cout << "\n";

  std::vector<Row> Rows;
  for (const Config &C : {
           Config{"reference detached", buildHot, true, false, false},
           Config{"predecoded detached", buildHot, false, false, false},
           Config{"reference attached", buildHot, true, true, false},
           Config{"predecoded attached", buildHot, false, true, false},
           Config{"  inline-sim oracle", buildHot, false, true, true},
           Config{"miss-heavy attached", buildStride, false, true, false},
           Config{"  inline-sim oracle", buildStride, false, true, true},
       })
    Rows.emplace_back(C);
  // Alternate configurations within each repeat so host drift hits
  // every row alike.
  for (unsigned Rep = 0; Rep != Repeats; ++Rep) {
    for (Row &R : Rows) {
      bool Hot = R.C.Build == buildHot;
      Measured M = runOnce(R.C, Hot ? HotN : StrideN, Hot ? HotReps : StrideReps);
      if (Rep == 0)
        R.First = M.R;
      else
        R.Stable = R.Stable && identical(R.First, M.R);
      R.Seconds.push_back(M.Seconds);
      R.ConsumerBusy.push_back(M.R.ConsumerBusySeconds);
    }
  }
  Row &RefDet = Rows[0], &PreDet = Rows[1], &RefAtt = Rows[2],
      &PreAtt = Rows[3], &PreAttInline = Rows[4], &Miss = Rows[5],
      &MissInline = Rows[6];

  bool Identical = identical(RefDet.First, PreDet.First) &&
                   identical(RefAtt.First, PreAtt.First) &&
                   identical(PreAtt.First, PreAttInline.First) &&
                   identical(Miss.First, MissInline.First);
  for (const Row &R : Rows)
    Identical = Identical && R.Stable;

  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  double SpeedupDet = Ratio(PreDet.ips(), RefDet.ips());
  double SpeedupAtt = Ratio(PreAtt.ips(), RefAtt.ips());
  double SpeedupPipe = Ratio(PreAtt.ips(), PreAttInline.ips());
  double SpeedupMissPipe = Ratio(Miss.ips(), MissInline.ips());
  // The producer runs for the whole wall time; the consumer overlaps it.
  auto ProducerBusy = [](const Row &R) { return R.wall().Median; };

  TablePrinter Table;
  Table.setHeader({"config", "median s", "q1 s", "q3 s", "Minstr/s",
                   "speedup", "producer s", "consumer s", "consumer %",
                   "rec/instr"});
  auto AddRow = [&](const Row &R, const std::string &Speedup) {
    Spread W = R.wall();
    bool Decoupled = !R.C.InlineSimulation;
    Table.addRow({R.C.Name, formatDouble(W.Median, 3), formatDouble(W.Q1, 3),
                  formatDouble(W.Q3, 3), formatDouble(R.ips() / 1e6, 1),
                  Speedup,
                  Decoupled ? formatDouble(ProducerBusy(R), 3) : "-",
                  Decoupled ? formatDouble(R.consumerBusy(), 3) : "-",
                  Decoupled ? formatDouble(100 * R.consumerShare(), 1) : "-",
                  Decoupled ? formatDouble(R.recordsPerInstruction(), 3)
                            : "-"});
  };
  AddRow(RefDet, "1.00x");
  AddRow(PreDet, formatDouble(SpeedupDet, 2) + "x");
  AddRow(RefAtt, "1.00x");
  AddRow(PreAtt, formatDouble(SpeedupAtt, 2) + "x");
  AddRow(PreAttInline, formatDouble(SpeedupPipe, 2) + "x pipe");
  AddRow(Miss, "-");
  AddRow(MissInline, formatDouble(SpeedupMissPipe, 2) + "x pipe");
  Table.print(std::cout);
  std::cout << "\n\"x pipe\" is decoupled over inline-oracle throughput. "
               "Producer busy is the\nwall time; consumer busy is the time "
               "spent replaying records,\n"
               "consumer % its share of the wall time; rec/instr is access "
               "records published\nper instruction.\n";

  std::ofstream Json(JsonPath);
  Json << "{\n  \"bench\": \"micro_interpreter\",\n"
       << "  \"host_cpu_model\": \"" << cpuModel() << "\",\n"
       << "  \"host_compiler\": \"" << __VERSION__ << "\",\n"
       << "  \"host_hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"threaded_consumer\": " << (ThreadedConsumer ? "true" : "false")
       << ",\n"
       << "  \"repeats\": " << Repeats << ",\n"
       << "  \"hot_slots\": " << HotN << ",\n  \"hot_reps\": " << HotReps
       << ",\n  \"stride_records\": " << StrideN
       << ",\n  \"stride_reps\": " << StrideReps << ",\n"
       << "  \"configs\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::string Name = R.C.Name;
    Name.erase(0, Name.find_first_not_of(' '));
    bool Decoupled = !R.C.InlineSimulation;
    Json << "    {\"loop\": \"" << (R.C.Build == buildHot ? "hot" : "miss-heavy")
         << "\", \"config\": \"" << Name
         << "\", \"instructions\": " << R.First.Instructions << ", "
         << R.wall().jsonFields("seconds") << ", \"ips\": " << R.ips();
    if (Decoupled)
      Json << ", \"producer_busy_seconds\": " << ProducerBusy(R)
           << ", \"consumer_busy_seconds\": " << R.consumerBusy()
           << ", \"consumer_busy_share\": " << R.consumerShare()
           << ", \"pipeline_records\": " << R.First.PipelineRecords
           << ", \"records_per_instruction\": " << R.recordsPerInstruction()
           << ", \"queue_depth_max\": " << R.First.QueueDepthMax
           << ", \"producer_stalls\": " << R.First.ProducerStalls
           << ", \"consumer_batches\": " << R.First.ConsumerBatches;
    Json << "}" << (I + 1 == Rows.size() ? "" : ",") << "\n";
  }
  Json << "  ],\n  \"fusions\": [\n";
  for (size_t I = 0; I != Fusions.size(); ++I) {
    Json << "    {\"workload\": \"" << Fusions[I].Workload << "\"";
    for (size_t K = 0; K != Fusions[I].Counts.size(); ++K)
      Json << ", \"" << FusedKinds[K].second << "\": " << Fusions[I].Counts[K];
    Json << "}" << (I + 1 == Fusions.size() ? "" : ",") << "\n";
  }
  Json << "  ],\n"
       << "  \"speedup_detached\": " << SpeedupDet << ",\n"
       << "  \"speedup_attached\": " << SpeedupAtt << ",\n"
       << "  \"pipeline_speedup\": " << SpeedupPipe << ",\n"
       << "  \"pipeline_speedup_miss_heavy\": " << SpeedupMissPipe << ",\n"
       << "  \"smoke\": " << (Smoke ? "true" : "false") << ",\n"
       << "  \"identical\": " << (Identical ? "true" : "false") << "\n}\n";

  if (!Identical) {
    std::cerr << "\nFAIL: a configuration diverged from its oracle\n";
    return 1;
  }
  if (!EveryLatchFused) {
    std::cerr << "\nFAIL: a paper workload has no fused loop latch\n";
    return 1;
  }
  std::cout << "\nAll configurations bit-identical. JSON: " << JsonPath
            << "\n";
  return 0;
}
