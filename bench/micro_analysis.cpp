//===- bench/micro_analysis.cpp - Component microbenchmarks ----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the pieces whose cost the paper
// argues about: the per-sample online handler (attribution + GCD), the
// per-access cache simulation, data-object lookup, profile merging via
// the reduction tree (Sec. 5.2), and interpreter throughput.
//
//===----------------------------------------------------------------------===//

#include "analysis/CodeMap.h"
#include "cache/Hierarchy.h"
#include "ir/ProgramBuilder.h"
#include "mem/DataObjectTable.h"
#include "profile/MergeTree.h"
#include "runtime/Interpreter.h"
#include "runtime/ProfileBuilder.h"
#include "support/MathUtil.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

using namespace structslim;

// --- GCD stride arithmetic (the Eq. 2-3 hot path) -------------------------

static void BM_GcdUpdate(benchmark::State &State) {
  Rng R(1);
  std::vector<uint64_t> Diffs(1024);
  for (auto &D : Diffs)
    D = (R.nextBelow(1000) + 1) * 64;
  size_t I = 0;
  uint64_t G = 0;
  for (auto _ : State) {
    G = gcd64(G, Diffs[I++ & 1023]);
    benchmark::DoNotOptimize(G);
  }
}
BENCHMARK(BM_GcdUpdate);

// --- Cache hierarchy access -------------------------------------------------

static void BM_HierarchyAccess(benchmark::State &State) {
  cache::MemoryHierarchy H((cache::HierarchyConfig()));
  Rng R(2);
  uint64_t Range = uint64_t(State.range(0)) << 20; // MiB of footprint.
  uint64_t Addr = 0;
  for (auto _ : State) {
    Addr = (Addr + 64 + (R.next() & 0xfff)) % Range;
    benchmark::DoNotOptimize(H.access(Addr, 8, false, 0x400000));
  }
}
BENCHMARK(BM_HierarchyAccess)->Arg(1)->Arg(8)->Arg(64);

// --- Data-object lookup (per-sample data-centric attribution) --------------

static void BM_ObjectLookup(benchmark::State &State) {
  mem::DataObjectTable T;
  size_t NumObjects = static_cast<size_t>(State.range(0));
  for (size_t I = 0; I != NumObjects; ++I)
    T.addHeap("obj", 0x100000 * (I + 1), 0x80000, {I});
  Rng R(3);
  for (auto _ : State) {
    uint64_t Addr = 0x100000 * (1 + R.nextBelow(NumObjects)) +
                    R.nextBelow(0x80000);
    benchmark::DoNotOptimize(T.lookup(Addr));
  }
}
BENCHMARK(BM_ObjectLookup)->Arg(8)->Arg(128)->Arg(2048);

// --- The full online sample handler ------------------------------------------

namespace {

struct HandlerFixture {
  ir::Program P;
  std::unique_ptr<analysis::CodeMap> Map;
  mem::DataObjectTable Objects;
  uint64_t LoopIp = 0;

  HandlerFixture() {
    ir::Function &F = P.addFunction("main", 0);
    ir::ProgramBuilder B(P, F);
    B.forLoopI(0, 4, 1, [&](ir::Reg) {
      B.work(0);
      LoopIp = F.Blocks[B.currentBlock()]->Instrs.back().Ip;
    });
    B.ret();
    Map = std::make_unique<analysis::CodeMap>(P);
    Objects.addHeap("arr", 0x10000, 1 << 24, {});
  }
};

} // namespace

static void BM_SampleHandler(benchmark::State &State) {
  HandlerFixture Fx;
  runtime::ProfileBuilder Builder(*Fx.Map, Fx.Objects, 0, 10000);
  Rng R(4);
  pmu::AddressSample S;
  S.Ip = Fx.LoopIp;
  S.AccessSize = 8;
  S.Latency = 40;
  S.Served = cache::MemLevel::L3;
  for (auto _ : State) {
    S.EffAddr = 0x10000 + R.nextBelow(1 << 18) * 64;
    Builder.onSample(S);
  }
}
BENCHMARK(BM_SampleHandler);

// --- Reduction-tree profile merge (Sec. 5.2) ---------------------------------

static profile::Profile makeThreadProfile(uint32_t Tid, unsigned Streams) {
  profile::Profile P;
  P.ThreadId = Tid;
  P.SamplePeriod = 10000;
  Rng R(100 + Tid);
  for (unsigned S = 0; S != Streams; ++S) {
    uint32_t Obj = P.getOrCreateObject("obj" + std::to_string(S % 16));
    P.Objects[Obj].Name = "obj";
    profile::StreamRecord &Rec =
        P.getOrCreateStream(0x400000 + S, Obj);
    Rec.SampleCount += 10;
    Rec.LatencySum += 400;
    Rec.StrideGcd = 64 << (R.nextBelow(3));
    Rec.RepAddr = 0x10000 + S * 64;
    Rec.UniqueAddrCount = 10;
    P.TotalSamples += 10;
    P.TotalLatency += 400;
  }
  return P;
}

static void BM_MergeTree(benchmark::State &State) {
  unsigned NumProfiles = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<profile::Profile> Profiles;
    for (unsigned T = 0; T != NumProfiles; ++T)
      Profiles.push_back(makeThreadProfile(T, 512));
    State.ResumeTiming();
    profile::Profile Merged = profile::mergeProfiles(std::move(Profiles));
    benchmark::DoNotOptimize(Merged.TotalSamples);
  }
}
BENCHMARK(BM_MergeTree)->Arg(16)->Arg(64);

// --- Interpreter throughput ----------------------------------------------------

static void BM_InterpreterThroughput(benchmark::State &State) {
  ir::Program P;
  ir::Function &F = P.addFunction("main", 0);
  ir::ProgramBuilder B(P, F);
  ir::Reg Bytes = B.constI(1 << 16);
  ir::Reg Base = B.alloc(Bytes, "arr");
  ir::Reg Acc = B.constI(0);
  B.forLoopI(0, 1 << 13, 1, [&](ir::Reg I) {
    B.accumulate(Acc, B.load(Base, I, 8, 0, 8));
  });
  B.ret(Acc);

  for (auto _ : State) {
    runtime::Machine M;
    cache::MemoryHierarchy H((cache::HierarchyConfig()));
    runtime::Interpreter I(P, M, H, nullptr, 0);
    benchmark::DoNotOptimize(I.run(0, {}));
    State.SetItemsProcessed(State.items_processed() +
                            I.getStats().Instructions);
  }
}
BENCHMARK(BM_InterpreterThroughput);

BENCHMARK_MAIN();
