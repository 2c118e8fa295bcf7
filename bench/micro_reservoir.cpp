//===- bench/micro_reservoir.cpp - Bounded sample buffer cost -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Host-side cost of the latency-weighted A-ExpJ sample reservoir: a
// synthetic PMU sample stream (90% cache-hit latencies, 10% heavy
// memory-latency samples — the skew the weighting exists for) is
// offered to reservoirs of several capacities and to a direct sink
// baseline. The interesting numbers are offers/second (the saturated
// reservoir must reject most samples with one add + compare), the
// kept-weight fraction (the weighting should keep far more latency
// mass than a capacity/seen head-sample would), and the peak resident
// bytes (the memory bound the subsystem exists to provide — constant
// in stream length). Determinism is asserted: two runs under the same
// seed keep byte-identical survivor sets.
//
// Writes BENCH_reservoir.json (override the path with argv[1]).
// --smoke shrinks the stream and rep count for CI.
//
//===----------------------------------------------------------------------===//

#include "runtime/SampleReservoir.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/TablePrinter.h"

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

using namespace structslim;

namespace {

/// Terminal sink: folds delivered samples into a checksum (order
/// sensitive) so survivor sets can be compared across runs.
class ChecksumSink : public pmu::SampleSink {
public:
  void onSample(const pmu::AddressSample &S) override {
    Checksum = Checksum * 0x100000001b3ULL ^ S.EffAddr ^
               (static_cast<uint64_t>(S.Latency) << 32);
    ++Delivered;
    WeightDelivered += S.Latency ? S.Latency : 1;
  }
  uint64_t Checksum = 0xcbf29ce484222325ULL;
  uint64_t Delivered = 0;
  uint64_t WeightDelivered = 0;
};

/// The synthetic stream: mostly cheap L1-latency samples, a heavy
/// tail of memory-latency ones (the mass the reservoir must keep).
pmu::AddressSample makeSample(uint64_t I, Rng &R) {
  pmu::AddressSample S;
  S.Ip = 0x400000 + I % 64;
  S.EffAddr = 0x10000 + I * 8;
  S.AccessSize = 8;
  S.Latency = R.nextBelow(10) == 0 ? 200 + R.nextBelow(200)
                                   : 1 + R.nextBelow(8);
  return S;
}

struct Measured {
  double Seconds = 0;
  uint64_t Delivered = 0;
  uint64_t Evictions = 0;
  uint64_t WeightSeen = 0;
  uint64_t WeightKept = 0;
  uint64_t PeakBytes = 0;
  uint64_t Checksum = 0;
};

Measured runOnce(uint64_t Capacity, uint64_t Offers, unsigned Reps) {
  Measured Out;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    Rng Gen(0x5eed);
    ChecksumSink Sink;
    auto Begin = std::chrono::steady_clock::now();
    if (Capacity == 0) {
      // Baseline: the unbounded path, samples go straight through.
      for (uint64_t I = 0; I != Offers; ++I)
        Sink.onSample(makeSample(I, Gen));
      Out.Seconds += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Begin)
                         .count();
      Out.Delivered = Sink.Delivered;
      Out.WeightSeen = Out.WeightKept = Sink.WeightDelivered;
      Out.Checksum = Sink.Checksum;
      continue;
    }
    runtime::SampleReservoir Rsvr(Sink, Capacity, /*Seed=*/0x5eed);
    for (uint64_t I = 0; I != Offers; ++I)
      Rsvr.onSample(makeSample(I, Gen));
    Rsvr.flush();
    Out.Seconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Begin)
                       .count();
    Out.Delivered = Sink.Delivered;
    Out.Evictions = Rsvr.getEvictions();
    Out.WeightSeen = Rsvr.getWeightSeen();
    Out.WeightKept = Rsvr.getWeightKept();
    Out.PeakBytes = Rsvr.getPeakBytes();
    Out.Checksum = Sink.Checksum;
  }
  Out.Seconds /= Reps;
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  const char *JsonPath = "BENCH_reservoir.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else
      JsonPath = argv[I];
  }

  const uint64_t Offers = Smoke ? 100000 : 2000000;
  const unsigned Reps = Smoke ? 2 : 5;
  const uint64_t Capacities[] = {0, 256, 1024, 4096};

  std::cout << "Weighted reservoir cost (" << Offers
            << " offers/run, heavy-tail latencies)\n\n";

  TablePrinter Table;
  Table.setHeader({"capacity", "offer s", "Moffers/s", "kept", "weight kept",
                   "peak bytes", "deterministic"});

  std::ofstream Json(JsonPath);
  Json << "{\n  \"bench\": \"micro_reservoir\",\n"
       << "  \"host_hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"offers\": " << Offers
       << ",\n  \"points\": [\n";

  bool AllDeterministic = true;
  uint64_t BoundedPeakMax = 0;
  for (size_t C = 0; C != sizeof(Capacities) / sizeof(*Capacities); ++C) {
    uint64_t Capacity = Capacities[C];
    Measured M = runOnce(Capacity, Offers, Reps);
    Measured Again = runOnce(Capacity, Offers, /*Reps=*/1);
    bool Deterministic = M.Checksum == Again.Checksum;
    AllDeterministic = AllDeterministic && Deterministic;
    if (Capacity)
      BoundedPeakMax = std::max(BoundedPeakMax, M.PeakBytes);
    double WeightFrac =
        M.WeightSeen ? double(M.WeightKept) / double(M.WeightSeen) : 1.0;
    Table.addRow(
        {Capacity ? std::to_string(Capacity) : "off (direct)",
         formatDouble(M.Seconds, 4),
         formatDouble(Offers / M.Seconds / 1e6, 2), std::to_string(M.Delivered),
         formatDouble(100.0 * WeightFrac, 1) + "%",
         std::to_string(M.PeakBytes), Deterministic ? "yes" : "NO"});
    Json << "    {\"capacity\": " << Capacity
         << ", \"offer_seconds\": " << M.Seconds
         << ", \"offers_per_second\": " << uint64_t(Offers / M.Seconds)
         << ", \"delivered\": " << M.Delivered
         << ", \"evictions\": " << M.Evictions
         << ", \"weight_kept_fraction\": " << WeightFrac
         << ", \"peak_resident_sample_bytes\": " << M.PeakBytes
         << ", \"deterministic\": " << (Deterministic ? "true" : "false")
         << "}" << (C + 1 != sizeof(Capacities) / sizeof(*Capacities) ? ","
                                                                      : "")
         << "\n";
  }
  Json << "  ]\n}\n";
  Table.print(std::cout);

  if (!AllDeterministic) {
    std::cerr << "\nFAIL: same-seed runs diverged\n";
    return 1;
  }
  std::cout << "\nSame-seed runs byte-identical; peak resident bytes <= "
            << BoundedPeakMax << " for every bounded capacity. JSON: "
            << JsonPath << "\n";
  return 0;
}
