//===- runtime/ThreadedRuntime.cpp ----------------------------*- C++ -*-===//

#include "runtime/ThreadedRuntime.h"

#include "profile/ProfileIO.h"
#include "runtime/ProfileBuilder.h"
#include "runtime/SimPipeline.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>

using namespace structslim;
using namespace structslim::runtime;

namespace {

/// Everything one logical thread owns for the duration of a phase.
struct PhaseThread {
  std::unique_ptr<cache::MemoryHierarchy> Hierarchy;
  std::unique_ptr<pmu::PmuModel> Pmu;
  std::unique_ptr<ProfileBuilder> Builder;
  std::unique_ptr<Interpreter> Interp;
  bool Alive = true;
};

/// The phase engine: deterministic round-robin on the calling thread.
void runSerialLoop(const RunConfig &Config, std::vector<PhaseThread> &States) {
  if (States.size() == 1) {
    // One logical thread: there is no interleave to reproduce, so the
    // quantum is only loop-entry overhead — step in large slices. The
    // counters and every simulation outcome are granularity-invariant;
    // the runaway guard just trips up to one slice later.
    PhaseThread &S = States[0];
    uint64_t Slice = std::max<uint64_t>(Config.Quantum, 1ull << 20);
    while (S.Interp->step(Slice)) {
      if (S.Interp->getStats().Instructions > Config.InstructionBudget)
        fatalError("thread exceeded its instruction budget");
    }
    if (S.Interp->getStats().Instructions > Config.InstructionBudget)
      fatalError("thread exceeded its instruction budget");
    S.Alive = false;
    return;
  }
  size_t AliveCount = States.size();
  while (AliveCount != 0) {
    for (PhaseThread &S : States) {
      if (!S.Alive)
        continue;
      if (!S.Interp->step(Config.Quantum)) {
        S.Alive = false;
        --AliveCount;
      }
      if (S.Interp->getStats().Instructions > Config.InstructionBudget)
        fatalError("thread exceeded its instruction budget");
    }
  }
}

} // namespace

ThreadedRuntime::ThreadedRuntime(RunConfig Config)
    : Config(std::move(Config)) {
  SharedL3 = std::make_unique<cache::SetAssocCache>(this->Config.Hierarchy.L3);
}

ThreadedRuntime::~ThreadedRuntime() = default;

void ThreadedRuntime::runPhase(const ir::Program &P,
                               const analysis::CodeMap *CodeMap,
                               const std::vector<ThreadSpec> &Threads,
                               TraceSink *Tracer) {
  if (Threads.empty())
    return;
  if (Config.AttachProfiler && !CodeMap)
    fatalError("profiler attached but no code map supplied");

  // Predecode once per program; every thread of every phase shares the
  // immutable image. Re-predecode if the caller grew the program
  // between phases (same Program object, more instructions).
  const PredecodedProgram *PP = nullptr;
  if (!Config.ReferenceInterpreter) {
    if (PredecodedFor != &P || PredecodedInstrs != P.countInstructions()) {
      Predecoded = std::make_shared<const PredecodedProgram>(P);
      PredecodedFor = &P;
      PredecodedInstrs = P.countInstructions();
    }
    PP = Predecoded.get();
  }

  std::vector<PhaseThread> States;
  States.reserve(Threads.size());
  for (const ThreadSpec &Spec : Threads) {
    PhaseThread S;
    uint32_t Tid = NextThreadId++;
    S.Hierarchy = std::make_unique<cache::MemoryHierarchy>(Config.Hierarchy,
                                                           SharedL3.get());
    S.Pmu = std::make_unique<pmu::PmuModel>(Config.Sampling, Tid);
    if (Config.AttachProfiler) {
      S.Builder = std::make_unique<ProfileBuilder>(*CodeMap, M.Objects, Tid,
                                                   Config.Sampling.Period);
      S.Pmu->setSink(S.Builder.get());
    }
    // A detached profiler arms no sink; skip the PMU on the per-access
    // path entirely (the "measure native speed" configuration).
    S.Interp = std::make_unique<Interpreter>(
        P, M, *S.Hierarchy, Config.AttachProfiler ? S.Pmu.get() : nullptr,
        Tid, PP);
    if (S.Builder)
      S.Builder->setCallPathProvider(S.Interp.get());
    if (Config.ReferenceInterpreter)
      S.Interp->setExecCore(ExecCore::Reference);
    if (Tracer)
      S.Interp->setTracer(Tracer);
    S.Interp->start(Spec.FunctionId, Spec.Args);
    States.push_back(std::move(S));
  }

  // Pipeline selection. A tracer forces inline simulation: it observes
  // the per-access outcome at access time. Decoupled records carry an
  // 8-bit thread index, which every realistic phase fits (fall back
  // inline otherwise).
  std::unique_ptr<AccessQueue> Queue;
  std::unique_ptr<SimPipeline> Pipe;
  if (!Config.InlineSimulation && !Tracer && States.size() <= 256) {
    // The consumer runs on its own thread only when the host actually
    // has a core for it; on one core it would merely time-share with
    // the producer, so the producer drains the ring inline in batches.
    bool ThreadedConsumer = support::ThreadPool::defaultThreadCount() > 1;
    Queue = std::make_unique<AccessQueue>(
        PipelineQueueCapacity, States[0].Hierarchy->lineShift(),
        /*CollapseRuns=*/States[0].Hierarchy->mode() == 0);
    std::vector<SimPipeline::Lane> Lanes;
    Lanes.reserve(States.size());
    for (PhaseThread &S : States)
      Lanes.push_back(
          {S.Hierarchy.get(), Config.AttachProfiler ? S.Pmu.get() : nullptr});
    Pipe = std::make_unique<SimPipeline>(*Queue, std::move(Lanes),
                                         ThreadedConsumer);
    Pipe->start();
    for (size_t T = 0; T != States.size(); ++T)
      States[T].Interp->setAccessQueue(Queue.get(), static_cast<uint8_t>(T));
  }

  auto Begin = std::chrono::steady_clock::now();
  runSerialLoop(Config, States);
  if (Pipe) {
    Pipe->finish();
    for (PhaseThread &S : States)
      S.Interp->setAccessQueue(nullptr, 0);
  }
  auto End = std::chrono::steady_clock::now();
  Accum.WallSeconds +=
      std::chrono::duration<double>(End - Begin).count();
  if (Pipe) {
    Accum.QueueDepthMax = std::max(Accum.QueueDepthMax, Pipe->queueDepthMax());
    Accum.ProducerStalls += Queue->producerStalls();
    Accum.ConsumerBatches += Pipe->consumerBatches();
    Accum.PipelineRecords += Queue->recordsPublished();
    Accum.ConsumerBusySeconds += Pipe->consumerBusySeconds();
    Accum.PipelineCapacity =
        std::max(Accum.PipelineCapacity,
                 static_cast<uint64_t>(Queue->capacity()));
  }

  // Fold this phase's results into the accumulated run result.
  uint64_t PhaseMaxCycles = 0;
  uint64_t PhaseMaxDetachedCycles = 0;
  for (size_t T = 0; T != States.size(); ++T) {
    PhaseThread &S = States[T];
    RunStats Stats = S.Interp->getStats();
    if (Pipe) // Latency cycles the consumer accrued on this thread's
              // behalf; the inline engine adds them in memAccess.
      Stats.Cycles += Pipe->cyclesFor(T);
    PhaseMaxDetachedCycles = std::max(PhaseMaxDetachedCycles, Stats.Cycles);
    // Charge the simulated sampling-interrupt cost to the thread that
    // took the samples.
    uint64_t Samples = S.Pmu->getSamplesDelivered();
    Stats.Cycles += Samples * Config.SampleHandlerCycles;

    Accum.TotalCycles += Stats.Cycles;
    Accum.Instructions += Stats.Instructions;
    Accum.MemoryAccesses += Stats.MemoryAccesses;
    Accum.Samples += Samples;
    PhaseMaxCycles = std::max(PhaseMaxCycles, Stats.Cycles);
    Accum.ReturnValues.push_back(S.Interp->getResult());

    Accum.Accesses[0] += S.Hierarchy->l1().getAccesses();
    Accum.Misses[0] += S.Hierarchy->l1().getMisses();
    Accum.Accesses[1] += S.Hierarchy->l2().getAccesses();
    Accum.Misses[1] += S.Hierarchy->l2().getMisses();

    if (S.Builder) {
      profile::Profile Prof = S.Builder->take();
      Prof.Instructions = Stats.Instructions;
      Prof.MemoryAccesses = Stats.MemoryAccesses;
      Prof.Cycles = Stats.Cycles;
      // Pipeline counters deliberately stay off the in-memory profiles:
      // the identity contract compares per-thread profiles
      // between the inline and decoupled simulators, and the counters
      // are host-timing diagnostics (like WallSeconds). dumpProfiles
      // stamps them onto the first shard when given the RunResult.
      Accum.Profiles.push_back(std::move(Prof));
    }
  }
  Accum.ElapsedCycles += PhaseMaxCycles;
  Accum.DetachedElapsedCycles += PhaseMaxDetachedCycles;
}

std::vector<std::string>
structslim::runtime::dumpProfiles(const std::vector<profile::Profile> &Profiles,
                                  const std::string &Dir,
                                  const std::string &Prefix,
                                  std::vector<std::string> *Failures,
                                  const RunResult *Run) {
  std::vector<std::string> Written;
  Written.reserve(Profiles.size());
  for (size_t I = 0; I != Profiles.size(); ++I) {
    const profile::Profile &P = Profiles[I];
    std::string Path = Dir + "/" + Prefix + "thread" +
                       std::to_string(P.ThreadId) + ".structslim";
    std::string Error;
    bool Ok;
    if (I == 0 && Run &&
        (Run->QueueDepthMax | Run->ProducerStalls | Run->ConsumerBatches |
         Run->PipelineCapacity)) {
      // Stamp the run's pipeline counters onto exactly one shard (the
      // merge rule max/sum/sum/max then reproduces the run totals).
      // Done here rather than in the runtime so in-memory profiles
      // stay comparable across simulation modes.
      profile::Profile Stamped = P;
      Stamped.QueueDepthMax = Run->QueueDepthMax;
      Stamped.ProducerStalls = Run->ProducerStalls;
      Stamped.ConsumerBatches = Run->ConsumerBatches;
      Stamped.PipelineCapacity = Run->PipelineCapacity;
      Ok = profile::writeProfileFile(Stamped, Path, &Error);
    } else {
      Ok = profile::writeProfileFile(P, Path, &Error);
    }
    if (Ok)
      Written.push_back(std::move(Path));
    else if (Failures)
      Failures->push_back(Path + ": " + Error);
  }
  return Written;
}

RunResult ThreadedRuntime::finish() {
  Accum.Accesses[2] = SharedL3->getAccesses();
  Accum.Misses[2] = SharedL3->getMisses();
  return std::move(Accum);
}
