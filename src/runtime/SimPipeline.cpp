//===- runtime/SimPipeline.cpp --------------------------------*- C++ -*-===//

#include "runtime/SimPipeline.h"

#include "support/Error.h"

#include <chrono>

using namespace structslim;
using namespace structslim::runtime;

SimPipeline::SimPipeline(AccessQueue &Q, std::vector<Lane> Lanes,
                         bool Threaded)
    : Q(Q), Lanes(std::move(Lanes)), Threaded(Threaded) {
  if (this->Lanes.empty())
    fatalError("sim pipeline needs at least one lane");
  LineShift = this->Lanes[0].Hierarchy->lineShift();
  L1Latency = this->Lanes[0].Hierarchy->getConfig().L1.HitLatency;
  Cycles.assign(this->Lanes.size(), 0);
}

SimPipeline::~SimPipeline() {
  if (Consumer.joinable()) {
    Q.close();
    Consumer.join();
  }
}

void SimPipeline::start() {
  if (Threaded)
    Consumer = std::thread([this] { consumerLoop(); });
  else
    Q.setDrainHook(this);
}

void SimPipeline::finish() {
  Q.close();
  if (Consumer.joinable()) {
    Consumer.join();
  } else {
    while (drainOnce()) {
    }
    Q.setDrainHook(nullptr);
  }
}

void SimPipeline::consumerLoop() {
  for (;;) {
    if (drainOnce())
      continue;
    if (Q.isClosed()) {
      // The close() publish happened-before the flag store; one more
      // drain picks up the final records, then the stream is done.
      while (drainOnce()) {
      }
      return;
    }
    std::this_thread::yield();
  }
}

bool SimPipeline::drainOnce() {
  size_t N = Q.available();
  if (N == 0)
    return false;
  if (N > QueueDepthMaxV)
    QueueDepthMaxV = N;
  ++ConsumerBatchesV;
  auto Begin = std::chrono::steady_clock::now();
  replay(N);
  BusySeconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Begin)
                     .count();
  // Records stay visible to the producer until after they are fully
  // simulated: ring drained implies consumer quiescent, which is what
  // AccessQueue::sync() relies on at Alloc/Free serialization points.
  Q.pop(N);
  return true;
}

void SimPipeline::deliverSample(const AccessRec &R, size_t RecIdx,
                                unsigned Latency, cache::MemLevel Served,
                                bool TlbMiss) {
  // Reassemble the call path from the trailing Path records (two words
  // per slot; the producer published the group atomically).
  uint32_t Words = R.Count;
  size_t PathRecs = (Words + 1) / 2;
  PathScratch.clear();
  for (size_t P = 0; P != PathRecs; ++P) {
    AccessRec &PR = Q.at(RecIdx + 1 + P);
    PathScratch.push_back(PR.A);
    if (PathScratch.size() < Words)
      PathScratch.push_back(PR.B);
  }
  pmu::AddressSample S;
  S.Ip = R.B;
  S.EffAddr = R.A;
  S.AccessSize = R.Size;
  S.Latency = Latency;
  S.Served = Served;
  S.IsWrite = (R.Flags & 1) != 0;
  S.TlbMiss = TlbMiss;
  Lanes[R.Tid].Pmu->deliverDeferred(S, PathScratch.data(), Words);
}

void SimPipeline::replay(size_t N) {
  for (size_t I = 0; I != N; ++I) {
    const AccessRec &R = Q.at(I);
    cache::MemoryHierarchy &H = *Lanes[R.Tid].Hierarchy;
    bool IsWrite = (R.Flags & 1) != 0;
    if (R.Kind == RecRun) {
      // The first access resolves through the hierarchy; the Count-1
      // repeats hit the line it left most recent in the thread's L1.
      // Runs exist only in mode 0, where the ip is never read.
      uint64_t Repeats = R.Count - 1;
      Cycles[R.Tid] += H.access(R.A << LineShift, R.Size, IsWrite, 0).Latency +
                       Repeats * L1Latency;
      H.l1().repeatMru(Repeats);
      continue;
    }
    cache::AccessResult Res = H.access(R.A, R.Size, IsWrite, R.B);
    Cycles[R.Tid] += Res.Latency;
    if (R.Kind == RecSampled) {
      deliverSample(R, I, Res.Latency, Res.Served, Res.TlbMiss);
      I += (R.Count + 1) / 2; // Skip the call-path records.
    }
  }
}
