//===- tests/pipeline_test.cpp - Decoupled pipeline identity ---*- C++ -*-===//
//
// The decoupled sample pipeline's contract is bit-identical results to
// inline simulation, the checked oracle. These tests stress the
// threaded producer/consumer pair under TSan against a serial replay
// oracle, run multithreaded phases (read-only workers, partitioned
// writers, odd thread counts, Alloc/Free churn, quantum variations, a
// {1,2,4,8}-thread sweep) with the consumer on its own thread, then
// sweep every paper workload under both interpreter cores — diffing
// every counter and every serialized profile byte against the oracle.
// Decoupled runs pin STRUCTSLIM_THREADS=4 so they take the consumer
// thread on any host; with one worker a phase simulates inline.
//
//===----------------------------------------------------------------------===//

#include "ThreadsEnv.h"
#include "analysis/CodeMap.h"
#include "cache/Hierarchy.h"
#include "ir/ProgramBuilder.h"
#include "profile/ProfileIO.h"
#include "runtime/AccessQueue.h"
#include "runtime/Predecode.h"
#include "runtime/SimPipeline.h"
#include "runtime/ThreadedRuntime.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "workloads/Driver.h"
#include "workloads/Registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace structslim;
using namespace structslim::runtime;
using structslim::ir::NoReg;
using structslim::ir::Reg;

namespace {

std::string profileText(const profile::Profile &P) {
  std::ostringstream OS;
  profile::writeProfile(P, OS);
  return OS.str();
}

/// Bit-identity check between an inline-simulation run and a decoupled
/// run. Pipeline health counters (QueueDepthMax &c.) are host-timing
/// diagnostics and intentionally excluded, like WallSeconds.
void expectIdenticalRuns(const RunResult &Inline, const RunResult &Decoupled) {
  EXPECT_EQ(Inline.ElapsedCycles, Decoupled.ElapsedCycles);
  EXPECT_EQ(Inline.TotalCycles, Decoupled.TotalCycles);
  EXPECT_EQ(Inline.Instructions, Decoupled.Instructions);
  EXPECT_EQ(Inline.MemoryAccesses, Decoupled.MemoryAccesses);
  EXPECT_EQ(Inline.Samples, Decoupled.Samples);
  for (unsigned Level = 0; Level != 3; ++Level) {
    EXPECT_EQ(Inline.Accesses[Level], Decoupled.Accesses[Level])
        << "level " << Level;
    EXPECT_EQ(Inline.Misses[Level], Decoupled.Misses[Level])
        << "level " << Level;
  }
  EXPECT_EQ(Inline.ReturnValues, Decoupled.ReturnValues);
  ASSERT_EQ(Inline.Profiles.size(), Decoupled.Profiles.size());
  for (size_t I = 0; I != Inline.Profiles.size(); ++I)
    EXPECT_EQ(profileText(Inline.Profiles[I]),
              profileText(Decoupled.Profiles[I]))
        << "profile " << I;
}

//===----------------------------------------------------------------------===//
// Threaded producer/consumer stress (the TSan target).
//===----------------------------------------------------------------------===//

// A deterministic two-thread access stream pushed through a real
// threaded SimPipeline (dedicated consumer thread, small ring so
// backpressure engages), compared against an inline access() replay of
// the same stream on a second set of hierarchies. Counters, per-level
// cache state effects, and deferred cycle totals must all match.
TEST(SimPipelineStress, ThreadedConsumerMatchesInlineReplay) {
  cache::HierarchyConfig HC; // Mode 0: no TLB, no prefetcher.

  auto PipeL3 = std::make_unique<cache::SetAssocCache>(HC.L3);
  cache::MemoryHierarchy P0(HC, PipeL3.get());
  cache::MemoryHierarchy P1(HC, PipeL3.get());
  AccessQueue Q(/*Capacity=*/1024, P0.lineShift(), /*CollapseRuns=*/true);
  std::vector<SimPipeline::Lane> Lanes;
  Lanes.push_back({&P0, nullptr});
  Lanes.push_back({&P1, nullptr});
  SimPipeline Pipe(Q, std::move(Lanes));
  Pipe.start();

  auto RefL3 = std::make_unique<cache::SetAssocCache>(HC.L3);
  cache::MemoryHierarchy R0(HC, RefL3.get());
  cache::MemoryHierarchy R1(HC, RefL3.get());
  cache::MemoryHierarchy *Ref[2] = {&R0, &R1};
  uint64_t RefCycles[2] = {0, 0};

  // Alternating bursts per thread: sequential walks (collapse into
  // runs), random jumps (run breaks), occasional straddles (exact
  // records), writes mixed in. Thread 1 works a disjoint region but
  // shares the L3, so consumer-side L3 merge order matters.
  const std::vector<uint64_t> NoPath;
  Rng Gen(0x9151);
  for (int Burst = 0; Burst != 6000; ++Burst) {
    uint8_t Tid = Burst & 1;
    uint64_t Base =
        Gen.nextBelow(1 << 22) * 8 + (Tid ? (1ull << 30) : 1ull << 20);
    unsigned Len = 1 + static_cast<unsigned>(Gen.nextBelow(24));
    for (unsigned I = 0; I != Len; ++I) {
      uint64_t Ea = Base + I * 8;
      uint8_t Size = Gen.nextBelow(20) == 0 ? 16 : 8;
      bool IsWrite = Gen.nextBelow(4) == 0;
      uint64_t Ip = 0x4000 + (Burst & 255);
      Q.noteAccess(Tid, Ip, Ea, Size, IsWrite, false, NoPath);
      RefCycles[Tid] += Ref[Tid]->access(Ea, Size, IsWrite, Ip).Latency;
    }
  }
  Q.close();
  Pipe.finish();

  EXPECT_EQ(Pipe.cyclesFor(0), RefCycles[0]);
  EXPECT_EQ(Pipe.cyclesFor(1), RefCycles[1]);
  cache::MemoryHierarchy *Got[2] = {&P0, &P1};
  for (int T = 0; T != 2; ++T) {
    EXPECT_EQ(Got[T]->l1().getHits(), Ref[T]->l1().getHits()) << "tid " << T;
    EXPECT_EQ(Got[T]->l1().getMisses(), Ref[T]->l1().getMisses())
        << "tid " << T;
    EXPECT_EQ(Got[T]->l2().getHits(), Ref[T]->l2().getHits()) << "tid " << T;
    EXPECT_EQ(Got[T]->l2().getMisses(), Ref[T]->l2().getMisses())
        << "tid " << T;
  }
  EXPECT_EQ(PipeL3->getHits(), RefL3->getHits());
  EXPECT_EQ(PipeL3->getMisses(), RefL3->getMisses());
  EXPECT_GT(Pipe.consumerBatches(), 0u);
  EXPECT_GT(Pipe.queueDepthMax(), 0u);
}

// Same shape with a capacity-floor ring and sync() every burst: the
// producer repeatedly waits for full drains, exercising the
// stall/publish/drain handshake from both sides.
TEST(SimPipelineStress, SyncHeavyStreamStaysIdentical) {
  cache::HierarchyConfig HC;
  auto PipeL3 = std::make_unique<cache::SetAssocCache>(HC.L3);
  cache::MemoryHierarchy P0(HC, PipeL3.get());
  AccessQueue Q(1024, P0.lineShift(), true); // The capacity floor.
  std::vector<SimPipeline::Lane> Lanes;
  Lanes.push_back({&P0, nullptr});
  SimPipeline Pipe(Q, std::move(Lanes));
  Pipe.start();

  auto RefL3 = std::make_unique<cache::SetAssocCache>(HC.L3);
  cache::MemoryHierarchy R0(HC, RefL3.get());
  uint64_t RefCycles = 0;

  const std::vector<uint64_t> NoPath;
  Rng Gen(0x77);
  for (int Burst = 0; Burst != 500; ++Burst) {
    unsigned Len = 1 + static_cast<unsigned>(Gen.nextBelow(2048));
    uint64_t Base = Gen.nextBelow(1 << 20) * 64;
    for (unsigned I = 0; I != Len; ++I) {
      uint64_t Ea = Base + I * 8;
      Q.noteAccess(0, 0x4000, Ea, 8, false, false, NoPath);
      RefCycles += R0.access(Ea, 8, false, 0x4000).Latency;
    }
    Q.sync(); // Alloc/Free-style barrier: ring fully drained here.
  }
  Q.close();
  Pipe.finish();

  EXPECT_EQ(Pipe.cyclesFor(0), RefCycles);
  EXPECT_EQ(P0.l1().getHits(), R0.l1().getHits());
  EXPECT_EQ(P0.l1().getMisses(), R0.l1().getMisses());
  EXPECT_EQ(P0.l2().getHits(), R0.l2().getHits());
  EXPECT_EQ(P0.l2().getMisses(), R0.l2().getMisses());
  EXPECT_EQ(PipeL3->getHits(), RefL3->getHits());
  EXPECT_EQ(PipeL3->getMisses(), RefL3->getMisses());
}

//===----------------------------------------------------------------------===//
// Multithreaded phases: one ring carries every thread's records in the
// round-robin schedule order.
//===----------------------------------------------------------------------===//

/// CLOMP-style phase: read-only workers scanning partitions of a
/// shared array published through a static mailbox.
struct ReaderProgram {
  ir::Program P;
  uint32_t MainId = 0;
  uint32_t WorkerId = 0;

  ReaderProgram(Machine &M, int64_t N, unsigned Threads) {
    uint64_t Mailbox = M.defineStatic("mailbox", 64);
    int64_t Part = N / Threads;
    ir::Function &Main = P.addFunction("main", 0);
    MainId = Main.Id;
    {
      ir::ProgramBuilder B(P, Main);
      Reg Bytes = B.constI(N * 8);
      Reg Base = B.alloc(Bytes, "shared");
      B.forLoopI(0, N, 1, [&](Reg I) { B.store(I, Base, I, 8, 0, 8); });
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      B.store(Base, Mb, NoReg, 1, 0, 8);
      B.ret();
    }
    ir::Function &Worker = P.addFunction("reader", 1);
    WorkerId = Worker.Id;
    {
      ir::ProgramBuilder B(P, Worker);
      Reg Tid = 0;
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      Reg Base = B.load(Mb, NoReg, 1, 0, 8);
      Reg Lo = B.mul(Tid, B.constI(Part));
      Reg Hi = B.add(Lo, B.constI(Part));
      Reg Acc = B.constI(0);
      B.setLine(10);
      B.forLoop(Lo, Hi, 1, [&](Reg I) {
        B.setLine(11);
        Reg V = B.load(Base, I, 8, 0, 8);
        B.accumulate(Acc, V);
        B.setLine(10);
      });
      B.ret(Acc);
    }
  }
};

/// Health-style phase: each worker increments then re-reads its own
/// disjoint partition of a shared array published through a static
/// mailbox. Reads, writes, read-own-writes across quanta, shared L3.
struct WriterProgram {
  ir::Program P;
  uint32_t MainId = 0;
  uint32_t WorkerId = 0;

  WriterProgram(Machine &M, int64_t N, unsigned Threads) {
    uint64_t Mailbox = M.defineStatic("mailbox", 64);
    int64_t Part = N / Threads;
    ir::Function &Main = P.addFunction("main", 0);
    MainId = Main.Id;
    {
      ir::ProgramBuilder B(P, Main);
      Reg Bytes = B.constI(N * 8);
      Reg Base = B.alloc(Bytes, "field");
      B.forLoopI(0, N, 1, [&](Reg I) { B.store(I, Base, I, 8, 0, 8); });
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      B.store(Base, Mb, NoReg, 1, 0, 8);
      B.ret();
    }
    ir::Function &Worker = P.addFunction("writer", 1);
    WorkerId = Worker.Id;
    {
      ir::ProgramBuilder B(P, Worker);
      Reg Tid = 0;
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      Reg Base = B.load(Mb, NoReg, 1, 0, 8);
      Reg Lo = B.mul(Tid, B.constI(Part));
      Reg Hi = B.add(Lo, B.constI(Part));
      B.setLine(20);
      // Pass 1: increment every element of the own partition.
      B.forLoop(Lo, Hi, 1, [&](Reg I) {
        B.setLine(21);
        Reg V = B.load(Base, I, 8, 0, 8);
        Reg W = B.add(V, B.constI(3));
        B.store(W, Base, I, 8, 0, 8);
        B.setLine(20);
      });
      // Pass 2: sum it back (reads own writes from earlier quanta).
      Reg Acc = B.constI(0);
      B.setLine(22);
      B.forLoop(Lo, Hi, 1, [&](Reg I) {
        B.setLine(23);
        Reg V = B.load(Base, I, 8, 0, 8);
        B.accumulate(Acc, V);
        B.setLine(22);
      });
      B.ret(Acc);
    }
  }
};

/// Workers that allocate, fill, sum, and free private heap buffers in a
/// loop — every Alloc/Free crosses AccessQueue::sync(), which must wait
/// until the consumer has delivered every prior record before the
/// DataObjectTable mutates.
struct AllocProgram {
  ir::Program P;
  uint32_t WorkerId = 0;

  AllocProgram(int64_t Elems, int64_t Iters) {
    ir::Function &Worker = P.addFunction("churn", 1);
    WorkerId = Worker.Id;
    ir::ProgramBuilder B(P, Worker);
    Reg Tid = 0;
    Reg Acc = B.constI(0);
    B.forLoopI(0, Iters, 1, [&](Reg R) {
      Reg Bytes = B.constI(Elems * 8);
      Reg Buf = B.alloc(Bytes, "scratch");
      B.setLine(30);
      B.forLoop(B.constI(0), B.constI(Elems), 1, [&](Reg I) {
        B.setLine(31);
        Reg V = B.add(B.add(I, Tid), R);
        B.store(V, Buf, I, 8, 0, 8);
        B.setLine(30);
      });
      B.setLine(32);
      B.forLoop(B.constI(0), B.constI(Elems), 1, [&](Reg I) {
        B.setLine(33);
        Reg V = B.load(Buf, I, 8, 0, 8);
        B.accumulate(Acc, V);
        B.setLine(32);
      });
      B.free(Buf);
    });
    B.ret(Acc);
  }
};

/// ART-shaped miss-heavy phase: every worker walks the whole shared
/// array of 200-byte records twice, each starting two records after the
/// previous one, so the threads chase each other over the same lines.
/// Each record costs a two-access run (offsets 0 and 8) and a load at
/// offset 60 that straddles a line boundary on every eighth record, so
/// runs, exact records and samples from all threads interleave.
struct StrideProgram {
  ir::Program P;
  uint32_t MainId = 0;
  uint32_t WorkerId = 0;

  StrideProgram(Machine &M, int64_t N, unsigned /*Threads*/) {
    uint64_t Mailbox = M.defineStatic("mailbox", 64);
    ir::Function &Main = P.addFunction("main", 0);
    MainId = Main.Id;
    {
      ir::ProgramBuilder B(P, Main);
      Reg Base = B.alloc(B.constI(N * 200), "records");
      B.forLoopI(0, N, 1, [&](Reg I) { B.store(I, Base, I, 200, 0, 8); });
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      B.store(Base, Mb, NoReg, 1, 0, 8);
      B.ret();
    }
    ir::Function &Worker = P.addFunction("strider", 1);
    WorkerId = Worker.Id;
    {
      ir::ProgramBuilder B(P, Worker);
      Reg Tid = 0;
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      Reg Base = B.load(Mb, NoReg, 1, 0, 8);
      Reg Start = B.mul(Tid, B.constI(2));
      Reg Acc = B.constI(0);
      B.setLine(40);
      B.forLoopI(0, 2, 1, [&](Reg) {
        B.forLoop(B.constI(0), B.constI(N), 1, [&](Reg I) {
          B.setLine(41);
          Reg J = B.rem(B.add(I, Start), B.constI(N));
          B.accumulate(Acc, B.load(Base, J, 200, 0, 8));
          B.accumulate(Acc, B.load(Base, J, 200, 8, 8));
          B.accumulate(Acc, B.load(Base, J, 200, 60, 8));
          B.setLine(40);
        });
      });
      B.ret(Acc);
    }
  }
};

/// Loop latches in every shape the predecoder fuses: an inner loop
/// whose body ends in Work (the five-instruction latch), an outer latch
/// whose block is `Work; AddI; Br` entered by a jump (the Work slot is
/// a block start), and a loop whose body ends in a Store (the
/// four-instruction latch). Each worker owns a partition of a shared
/// array published through a static mailbox, and every inner
/// iteration also bumps a racy shared ticket and folds the value it
/// read into its sum, so the results record exactly how the threads'
/// slices interleaved.
struct LatchProgram {
  ir::Program P;
  uint32_t MainId = 0;
  uint32_t WorkerId = 0;
  uint64_t Mailbox = 0;

  LatchProgram(Machine &M, int64_t N, unsigned Threads) {
    Mailbox = M.defineStatic("mailbox", 64);
    int64_t Part = N / Threads;
    ir::Function &Main = P.addFunction("main", 0);
    MainId = Main.Id;
    {
      ir::ProgramBuilder B(P, Main);
      Reg Base = B.alloc(B.constI(N * 8), "latched");
      B.forLoopI(0, N, 1, [&](Reg I) { B.store(I, Base, I, 8, 0, 8); });
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      B.store(Base, Mb, NoReg, 1, 0, 8);
      B.ret();
    }
    ir::Function &Worker = P.addFunction("latcher", 1);
    WorkerId = Worker.Id;
    {
      ir::ProgramBuilder B(P, Worker);
      Reg Tid = 0;
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      Reg Base = B.load(Mb, NoReg, 1, 0, 8);
      Reg Lo = B.mul(Tid, B.constI(Part));
      Reg Hi = B.add(Lo, B.constI(Part));
      Reg Acc = B.constI(0);
      B.setLine(50);
      B.forLoopI(0, 3, 1, [&](Reg Pass) {
        B.forLoop(Lo, Hi, 1, [&](Reg I) {
          B.setLine(51);
          Reg V = B.load(Base, I, 8, 0, 8);
          B.store(B.add(V, Pass), Base, I, 8, 0, 8);
          Reg Ticket = B.load(Mb, NoReg, 1, 8, 8);
          B.store(B.addI(Ticket, 1), Mb, NoReg, 1, 8, 8);
          B.accumulate(Acc, B.mul(V, Ticket));
          B.work(7);
          B.setLine(50);
        });
        B.work(11);
      });
      B.setLine(52);
      B.forLoop(Lo, Hi, 2, [&](Reg I) {
        B.setLine(53);
        B.store(Acc, Base, I, 8, 0, 8);
        B.setLine(52);
      });
      B.ret(Acc);
    }
  }
};

/// One worker loading the same 8 bytes \p N times: with the profiler
/// detached nothing breaks the run, so the stream spans several
/// maximum-length run records.
struct SameLineProgram {
  ir::Program P;
  uint32_t MainId = 0;
  uint32_t WorkerId = 0;

  SameLineProgram(Machine &M, int64_t N, unsigned /*Threads*/) {
    uint64_t Mailbox = M.defineStatic("mailbox", 64);
    ir::Function &Main = P.addFunction("main", 0);
    MainId = Main.Id;
    {
      ir::ProgramBuilder B(P, Main);
      Reg Base = B.alloc(B.constI(64), "cell");
      B.store(B.constI(7), Base, NoReg, 1, 0, 8);
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      B.store(Base, Mb, NoReg, 1, 0, 8);
      B.ret();
    }
    ir::Function &Worker = P.addFunction("spin", 1);
    WorkerId = Worker.Id;
    {
      ir::ProgramBuilder B(P, Worker);
      Reg Mb = B.constI(static_cast<int64_t>(Mailbox));
      Reg Base = B.load(Mb, NoReg, 1, 0, 8);
      Reg Acc = B.constI(0);
      B.forLoopI(0, N, 1,
                 [&](Reg) { B.accumulate(Acc, B.load(Base, NoReg, 1, 0, 8)); });
      B.ret(Acc);
    }
  }
};

/// Dense, jittered sampling so deferred delivery carries real traffic
/// even in small tests.
RunConfig denseConfig(bool InlineSimulation) {
  RunConfig Cfg;
  Cfg.InlineSimulation = InlineSimulation;
  Cfg.Sampling.Period = 64;
  return Cfg;
}

/// A one-thread setup phase followed by \p Threads workers.
template <typename Prog>
RunResult runMainThenWorkers(RunConfig Cfg, unsigned Threads, int64_t N) {
  ThreadedRuntime RT(Cfg);
  Prog Program(RT.machine(), N, Threads);
  analysis::CodeMap Map(Program.P);
  RT.runPhase(Program.P, &Map, {ThreadSpec{Program.MainId, {}}});
  std::vector<ThreadSpec> Workers;
  for (uint64_t T = 0; T != Threads; ++T)
    Workers.push_back(ThreadSpec{Program.WorkerId, {T}});
  RT.runPhase(Program.P, &Map, Workers);
  return RT.finish();
}

/// Runs \p Prog inline and decoupled and diffs the two; returns the
/// decoupled run for path checks.
template <typename Prog>
RunResult expectDecoupledMatchesInline(unsigned Threads, int64_t N,
                                       uint64_t Quantum = 64) {
  ThreadsEnv MultiCore("4");
  RunConfig Inline = denseConfig(/*InlineSimulation=*/true);
  RunConfig Decoupled = denseConfig(/*InlineSimulation=*/false);
  Inline.Quantum = Decoupled.Quantum = Quantum;
  RunResult Oracle = runMainThenWorkers<Prog>(Inline, Threads, N);
  RunResult Run = runMainThenWorkers<Prog>(Decoupled, Threads, N);
  expectIdenticalRuns(Oracle, Run);
  EXPECT_GT(Oracle.Samples, 0u);
  // The two runs really took different paths: the oracle simulated
  // inline (no drain batches), the decoupled run drained the ring.
  EXPECT_EQ(Oracle.ConsumerBatches, 0u);
  EXPECT_GT(Run.ConsumerBatches, 0u);
  return Run;
}

RunResult runChurn(bool InlineSimulation, unsigned Threads) {
  ThreadedRuntime RT(denseConfig(InlineSimulation));
  AllocProgram Program(/*Elems=*/96, /*Iters=*/5);
  analysis::CodeMap Map(Program.P);
  std::vector<ThreadSpec> Workers;
  for (uint64_t T = 0; T != Threads; ++T)
    Workers.push_back(ThreadSpec{Program.WorkerId, {T}});
  RT.runPhase(Program.P, &Map, Workers);
  return RT.finish();
}

TEST(ParallelDecoupled, ReadOnlyWorkersBitIdentical) {
  expectDecoupledMatchesInline<ReaderProgram>(4, 4096);
}

TEST(ParallelDecoupled, PartitionedWritersBitIdentical) {
  expectDecoupledMatchesInline<WriterProgram>(4, 4096);
}

TEST(ParallelDecoupled, ManyThreadsOddCountBitIdentical) {
  expectDecoupledMatchesInline<WriterProgram>(7, 7 * 700);
}

TEST(ParallelDecoupled, QuantumVariationsStayIdentical) {
  for (uint64_t Quantum : {1ull, 17ull, 64ull, 1024ull}) {
    SCOPED_TRACE("quantum " + std::to_string(Quantum));
    expectDecoupledMatchesInline<WriterProgram>(3, 1024, Quantum);
  }
}

// A dedicated consumer thread drains the ring — the TSan target for
// multithreaded phases.
TEST(ParallelDecoupled, ThreadSweepThreadedConsumerBitIdentical) {
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    expectDecoupledMatchesInline<WriterProgram>(
        Threads, static_cast<int64_t>(Threads) * 512);
  }
}

// The placement rule: with one worker (STRUCTSLIM_THREADS=1, or a
// one-CPU affinity mask) a decoupled configuration runs the inline
// oracle path and publishes no record; from two workers on it starts
// the consumer thread.
TEST(ParallelDecoupled, OneWorkerSelectsInlineSimulation) {
  RunResult Oracle =
      runMainThenWorkers<WriterProgram>(denseConfig(true), 4, 2048);
  for (const char *Workers : {"1", "2"}) {
    ThreadsEnv Env(Workers);
    SCOPED_TRACE(std::string("STRUCTSLIM_THREADS=") + Workers);
    RunResult Run =
        runMainThenWorkers<WriterProgram>(denseConfig(false), 4, 2048);
    expectIdenticalRuns(Oracle, Run);
    bool Decoupled = Workers[0] != '1';
    EXPECT_EQ(Run.PipelineRecords > 0, Decoupled);
    EXPECT_EQ(Run.ConsumerBatches > 0, Decoupled);
  }
}

// Runs, straddles and samples from four threads, interleaved at a
// quantum of 17 on a miss-heavy stream: the one-pass replay must hand
// the shared L3 the schedule's exact demand order. The L3 (80 sets,
// modulo indexing) is far smaller than the 800 KB array, so its
// contents, and which thread pays each miss, depend on that order.
TEST(ParallelDecoupled, MissHeavyInterleavedStreamBitIdentical) {
  ThreadsEnv MultiCore("4");
  RunConfig Inline = denseConfig(/*InlineSimulation=*/true);
  RunConfig Decoupled = denseConfig(/*InlineSimulation=*/false);
  for (RunConfig *Cfg : {&Inline, &Decoupled}) {
    Cfg->Quantum = 17;
    Cfg->Hierarchy.L1 = {"L1d", 4096, 4, 64, 4};
    Cfg->Hierarchy.L2 = {"L2", 16384, 8, 64, 12};
    Cfg->Hierarchy.L3 = {"L3", 80 * 12 * 64, 12, 64, 40};
  }
  RunResult Oracle = runMainThenWorkers<StrideProgram>(Inline, 4, 4096);
  RunResult Run = runMainThenWorkers<StrideProgram>(Decoupled, 4, 4096);
  expectIdenticalRuns(Oracle, Run);
  EXPECT_GT(Oracle.Samples, 0u);
  EXPECT_GT(Run.ConsumerBatches, 0u);
  EXPECT_GT(Run.Misses[2], 0u);
  EXPECT_GT(Run.Accesses[2] - Run.Misses[2], 0u)
      << "threads must hit lines other threads brought into the L3";
}

// A same-line stream longer than three maximum-length run records:
// every split run must replay as its first access plus L1 hits.
TEST(ParallelDecoupled, LongSingleLineLoopBitIdentical) {
  const int64_t N = 3 * int64_t(AccessQueue::MaxRunLength) + 7;
  ThreadsEnv MultiCore("4");
  RunConfig Inline, Decoupled;
  Inline.AttachProfiler = Decoupled.AttachProfiler = false;
  Inline.InlineSimulation = true;
  RunResult Oracle = runMainThenWorkers<SameLineProgram>(Inline, 1, N);
  RunResult Run = runMainThenWorkers<SameLineProgram>(Decoupled, 1, N);
  expectIdenticalRuns(Oracle, Run);
  EXPECT_GT(Run.ConsumerBatches, 0u);
  EXPECT_GE(Run.Accesses[0] - Run.Misses[0], uint64_t(N) - 1);
}

// Alloc/Free churn serializes through AccessQueue::sync(): the
// producing thread must observe every prior record delivered before
// the DataObjectTable mutates. Sweep the phase widths.
TEST(ParallelDecoupled, AllocFreeChurnThroughDeliverySync) {
  ThreadsEnv MultiCore("4");
  for (unsigned Threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(Threads));
    RunResult Oracle = runChurn(/*InlineSimulation=*/true, Threads);
    RunResult Run = runChurn(/*InlineSimulation=*/false, Threads);
    expectIdenticalRuns(Oracle, Run);
    EXPECT_GT(Run.ConsumerBatches, 0u);
    EXPECT_GT(Oracle.Samples, 0u);
  }
}

// The four-worker churn case at the host's own placement: decoupled
// when the process may use more than one CPU, inline otherwise.
TEST(ParallelEngine, AllocFreeChurnBitIdentical) {
  RunResult Oracle = runChurn(/*InlineSimulation=*/true, 4);
  RunResult Run = runChurn(/*InlineSimulation=*/false, 4);
  expectIdenticalRuns(Oracle, Run);
  EXPECT_EQ(Run.ConsumerBatches > 0,
            support::ThreadPool::defaultThreadCount() > 1);
  EXPECT_GT(Oracle.Samples, 0u);
}

// A hierarchy with a TLB (mode != 0) disables run-length collapse and
// replays every record exactly, in ring order; multithreaded phases
// must stay bit-identical on that path too.
TEST(ParallelDecoupled, NonZeroHierarchyModeReplaysExactly) {
  ThreadsEnv MultiCore("4");
  RunConfig Inline = denseConfig(/*InlineSimulation=*/true);
  RunConfig Decoupled = denseConfig(/*InlineSimulation=*/false);
  Inline.Hierarchy.EnableTlb = Decoupled.Hierarchy.EnableTlb = true;
  RunResult Oracle = runMainThenWorkers<WriterProgram>(Inline, 4, 2048);
  RunResult Run = runMainThenWorkers<WriterProgram>(Decoupled, 4, 2048);
  expectIdenticalRuns(Oracle, Run);
  EXPECT_GT(Run.ConsumerBatches, 0u);
}

// Three-way identity: the reference interpreter (direct ir::Instr
// walk), the predecoded core, and the predecoded core with inline
// simulation must agree bit for bit on a multithreaded program.
TEST(PredecodedEngine, ThreeWayBitIdenticalWithReferenceCore) {
  auto Execute = [](bool Reference, bool InlineSimulation) {
    RunConfig Cfg = denseConfig(InlineSimulation);
    Cfg.ReferenceInterpreter = Reference;
    return runMainThenWorkers<WriterProgram>(Cfg, 4, 4096);
  };
  RunResult Ref = Execute(/*Reference=*/true, /*InlineSimulation=*/false);
  RunResult Pre = Execute(/*Reference=*/false, /*InlineSimulation=*/false);
  RunResult PreInline =
      Execute(/*Reference=*/false, /*InlineSimulation=*/true);
  expectIdenticalRuns(Ref, Pre);
  expectIdenticalRuns(Ref, PreInline);
  EXPECT_GT(Ref.Samples, 0u);
}

struct LatchOutcome {
  RunResult Result;
  std::vector<uint64_t> Memory; ///< The shared array after the run.
};

LatchOutcome runLatchProgram(bool Reference, uint64_t Quantum) {
  constexpr int64_t N = 1536;
  constexpr unsigned Threads = 3;
  RunConfig Cfg = denseConfig(/*InlineSimulation=*/false);
  Cfg.ReferenceInterpreter = Reference;
  Cfg.Quantum = Quantum;
  ThreadedRuntime RT(Cfg);
  LatchProgram Program(RT.machine(), N, Threads);
  analysis::CodeMap Map(Program.P);
  RT.runPhase(Program.P, &Map, {ThreadSpec{Program.MainId, {}}});
  std::vector<ThreadSpec> Workers;
  for (uint64_t T = 0; T != Threads; ++T)
    Workers.push_back(ThreadSpec{Program.WorkerId, {T}});
  RT.runPhase(Program.P, &Map, Workers);
  LatchOutcome Out;
  Out.Result = RT.finish();
  uint64_t Base = RT.machine().Memory.read(Program.Mailbox, 8);
  for (int64_t I = 0; I != N; ++I)
    Out.Memory.push_back(RT.machine().Memory.read(Base + I * 8, 8));
  return Out;
}

// The fused latch retires four or five instructions in one op. A
// quantum that runs out inside it must defuse to exactly the
// reference core's slice: quanta 1..5 and 7 put the boundary at every
// offset of the five-instruction group (and shift it between threads),
// 64 is the production default.
TEST(PredecodedEngine, LatchSplitAtEveryQuantumOffsetBitIdentical) {
  {
    Machine M;
    LatchProgram Program(M, 1536, 3);
    PredecodedProgram PP(Program.P);
    ASSERT_EQ(PP.getNumFused(POpc::FusedLoopLatch), 4u);
    ASSERT_EQ(PP.getNumFused(POpc::FusedWorkLatch), 2u);
  }
  for (uint64_t Quantum : {1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 64ull}) {
    SCOPED_TRACE("quantum " + std::to_string(Quantum));
    LatchOutcome Ref = runLatchProgram(/*Reference=*/true, Quantum);
    LatchOutcome Pre = runLatchProgram(/*Reference=*/false, Quantum);
    expectIdenticalRuns(Ref.Result, Pre.Result);
    EXPECT_EQ(Ref.Memory, Pre.Memory);
    EXPECT_GT(Ref.Result.Samples, 0u);
  }
}

// Static guard on the fusion itself: every paper workload has latches,
// and the predecoder fuses each block that ends `AddI r,r,imm; Br H`
// into a `CmpLt; CondBr` header H — the Work form exactly when a Work
// precedes the AddI. A builder or predecoder change that stops the
// fusion fails here rather than only showing up as lost throughput.
TEST(PredecodedEngine, EveryPaperWorkloadFusesItsLoopLatches) {
  for (const auto &W : workloads::makePaperWorkloads()) {
    SCOPED_TRACE(W->name());
    Machine M;
    transform::FieldMap Layout(W->hotLayout());
    workloads::BuiltWorkload Built = W->build(M, Layout, 0.08);
    size_t Latches = 0, WorkLatches = 0;
    for (const auto &F : Built.Program->functions())
      for (const auto &BB : F->Blocks) {
        const auto &Is = BB->Instrs;
        size_t Size = Is.size();
        if (Size < 2 || Is[Size - 2].Op != ir::Opcode::AddI ||
            Is[Size - 2].Dst != Is[Size - 2].A ||
            Is[Size - 1].Op != ir::Opcode::Br)
          continue;
        const auto &Header = F->Blocks[BB->Succs[0]]->Instrs;
        if (Header.size() != 2 || Header[0].Op != ir::Opcode::CmpLt ||
            Header[1].Op != ir::Opcode::CondBr)
          continue;
        ++Latches;
        WorkLatches += Size >= 3 && Is[Size - 3].Op == ir::Opcode::Work;
      }
    PredecodedProgram PP(*Built.Program);
    EXPECT_GT(Latches, 0u);
    EXPECT_EQ(PP.getNumFused(POpc::FusedLoopLatch), Latches);
    EXPECT_EQ(PP.getNumFused(POpc::FusedWorkLatch), WorkLatches);
  }
}

//===----------------------------------------------------------------------===//
// Differential sweep: every paper workload, both interpreter cores.
//===----------------------------------------------------------------------===//

workloads::WorkloadRun runWith(const workloads::Workload &W,
                               bool InlineSimulation, bool Reference,
                               double Scale = 0.08) {
  workloads::DriverConfig Cfg;
  Cfg.Scale = Scale;
  Cfg.Run.Sampling.Period = 2000;
  Cfg.Run.InlineSimulation = InlineSimulation;
  Cfg.Run.ReferenceInterpreter = Reference;
  transform::FieldMap Map(W.hotLayout());
  return workloads::runWorkload(W, Map, Cfg, /*Attach=*/true);
}

TEST(PipelineDifferential, PaperWorkloadsDecoupledMatchesInlineOracle) {
  ThreadsEnv MultiCore("4");
  for (const auto &W : workloads::makePaperWorkloads()) {
    for (bool Reference : {false, true}) {
      SCOPED_TRACE(W->name() +
                   (Reference ? " [reference core]" : " [predecoded core]"));
      workloads::WorkloadRun Oracle =
          runWith(*W, /*InlineSimulation=*/true, Reference);
      workloads::WorkloadRun Decoupled =
          runWith(*W, /*InlineSimulation=*/false, Reference);
      expectIdenticalRuns(Oracle.Result, Decoupled.Result);
      EXPECT_EQ(profileText(Oracle.Merged), profileText(Decoupled.Merged));
      // The two runs really took different paths: the oracle simulated
      // inline (no drain batches), the decoupled run drained the ring.
      EXPECT_EQ(Oracle.Result.ConsumerBatches, 0u);
      EXPECT_GT(Decoupled.Result.ConsumerBatches, 0u);
      EXPECT_GT(Oracle.Result.Samples, 0u);
    }
  }
}

// The full pipeline on the paper's two multithreaded workloads at a
// larger scale: the merged profile a user sees must not depend on
// whether simulation runs inline or decoupled.
void expectMultithreadedWorkloadIdentical(const workloads::Workload &W) {
  ThreadsEnv MultiCore("4");
  workloads::WorkloadRun Oracle = runWith(W, /*InlineSimulation=*/true,
                                          /*Reference=*/false, /*Scale=*/0.1);
  workloads::WorkloadRun Decoupled = runWith(W, /*InlineSimulation=*/false,
                                             /*Reference=*/false, /*Scale=*/0.1);
  ASSERT_TRUE(W.isParallel());
  expectIdenticalRuns(Oracle.Result, Decoupled.Result);
  EXPECT_EQ(profileText(Oracle.Merged), profileText(Decoupled.Merged));
  EXPECT_GT(Decoupled.Result.ConsumerBatches, 0u);
}

TEST(ParallelEngine, ClompWorkloadBitIdentical) {
  expectMultithreadedWorkloadIdentical(*workloads::makeClomp());
}

TEST(ParallelEngine, HealthWorkloadBitIdentical) {
  expectMultithreadedWorkloadIdentical(*workloads::makeHealth());
}

} // namespace
