//===- bench/ext_thread_scaling.cpp - Scalability check --------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// The paper's scalability claim (Secs. 4.4/5.1): per-thread collection
// without synchronization, offline reduction-tree merge, and advice
// that is independent of thread count. This bench runs CLOMP with 1 to
// 16 worker threads (the paper's machine has 16 cores), verifies the
// Fig. 11 advice at every width, and reports the per-thread profile
// sizes and the merge cost.
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
#include "workloads/Workload.h"

#include <chrono>
#include <iostream>

using namespace structslim;
using ir::Reg;

namespace {

/// CLOMP-shaped program parameterized by worker count.
struct ScaledClomp {
  std::unique_ptr<ir::Program> P;
  uint32_t MainId = 0;
  uint32_t WorkerId = 0;
};

ScaledClomp buildScaled(runtime::Machine &M, int64_t N, unsigned Threads,
                        int64_t Reps) {
  N -= N % Threads;
  int64_t PartSize = N / Threads;
  uint64_t Mailbox = M.defineStatic("scaled_shared", 64);

  ScaledClomp Out;
  Out.P = std::make_unique<ir::Program>();
  ir::Function &Main = Out.P->addFunction("main", 0);
  Out.MainId = Main.Id;
  {
    ir::ProgramBuilder B(*Out.P, Main);
    B.setLine(100);
    Reg Bytes = B.constI(N * 32);
    Reg Zones = B.alloc(Bytes, "_Zone");
    B.forLoopI(0, N, 1, [&](Reg I) {
      B.setLine(106);
      B.store(I, Zones, I, 32, 0, 8);                  // zoneId
      B.store(I, Zones, I, 32, 8, 8);                  // partId
      B.store(B.andI(I, 7), Zones, I, 32, 16, 8);      // value
      B.store(B.addI(I, 1), Zones, I, 32, 24, 8);      // nextZone
      B.setLine(100);
    });
    Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
    B.store(Zones, Mb, ir::NoReg, 1, 0, 8);
    B.ret();
  }
  ir::Function &Worker = Out.P->addFunction("worker", 1);
  Out.WorkerId = Worker.Id;
  {
    ir::ProgramBuilder B(*Out.P, Worker);
    Reg Tid = 0;
    B.setLine(320);
    Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
    Reg Zones = B.load(Mb, ir::NoReg, 1, 0, 8);
    Reg Part = B.constI(PartSize);
    Reg Lo = B.mul(Tid, Part);
    Reg Hi = B.add(Lo, Part);
    Reg Acc = B.constI(0);
    B.setLine(328);
    B.forLoopI(0, Reps, 1, [&](Reg) {
      B.forLoop(Lo, Hi, 1, [&](Reg I) {
        B.setLine(332);
        B.accumulate(Acc, B.load(Zones, I, 32, 16, 8)); // value
        B.setLine(335);
        B.load(Zones, I, 32, 24, 8); // nextZone
        B.setLine(328);
      });
    });
    B.ret(Acc);
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  int64_t N = 64000;
  int64_t Reps = 12;
  benchutil::parseHarnessArgs(argc, argv, {{"--n", &N}});

  std::cout << "Scalability: CLOMP-shaped run at 1..16 worker threads "
               "(per-thread unsynchronized profiles + reduction-tree "
               "merge)\n\n";
  TablePrinter Table;
  Table.setHeader({"Threads", "Profiles", "Samples", "Merge (us)",
                   "Hot cluster", "Fig.11 advice?"});

  ir::StructLayout Layout("_Zone");
  Layout.addField("zoneId", 8);
  Layout.addField("partId", 8);
  Layout.addField("value", 8);
  Layout.addField("nextZone", 8);
  Layout.finalize();

  for (unsigned Threads : {1u, 2u, 4u, 8u, 16u}) {
    runtime::RunConfig Cfg;
    Cfg.Sampling.Period = 2000;
    runtime::ThreadedRuntime RT(Cfg);
    ScaledClomp Prog = buildScaled(RT.machine(), N, Threads, Reps);
    analysis::CodeMap Map(*Prog.P);
    RT.runPhase(*Prog.P, &Map, {runtime::ThreadSpec{Prog.MainId, {}}});
    std::vector<runtime::ThreadSpec> Workers;
    for (uint64_t T = 0; T != Threads; ++T)
      Workers.push_back(runtime::ThreadSpec{Prog.WorkerId, {T}});
    RT.runPhase(*Prog.P, &Map, Workers);
    runtime::RunResult R = RT.finish();

    size_t NumProfiles = R.Profiles.size();
    auto Begin = std::chrono::steady_clock::now();
    profile::Profile Merged = profile::mergeProfiles(std::move(R.Profiles));
    double MergeUs = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - Begin)
                         .count();

    core::StructSlimAnalyzer Analyzer(Map);
    Analyzer.registerLayout("_Zone", Layout);
    core::AnalysisResult Result = Analyzer.analyze(Merged);
    const core::ObjectAnalysis *Hot = Result.findObject("_Zone");
    std::string HotCluster = "-";
    bool Fig11 = false;
    if (Hot) {
      core::SplitPlan Plan = core::makeSplitPlan(*Hot, &Layout);
      if (!Plan.ClusterOffsets.empty()) {
        HotCluster = "{";
        for (size_t I = 0; I != Plan.ClusterOffsets[0].size(); ++I)
          HotCluster += (I ? "," : "") +
                        std::to_string(Plan.ClusterOffsets[0][I]);
        HotCluster += "}";
        Fig11 = Plan.ClusterOffsets[0] == std::vector<uint32_t>{16, 24};
      }
    }
    Table.addRow({std::to_string(Threads), std::to_string(NumProfiles),
                  std::to_string(Merged.TotalSamples),
                  formatDouble(MergeUs, 0), HotCluster,
                  Fig11 ? "yes" : "no"});
  }
  Table.print(std::cout);
  std::cout << "\n(advice is invariant to the thread count; merging "
               "per-thread profiles is microseconds even at 16 "
               "threads)\n";
  return 0;
}
