//===- support/Random.h - Deterministic pseudo-random numbers -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, deterministic RNG (xoshiro256** seeded by splitmix64).
/// Used for PEBS-style sample-period jitter, Monte Carlo accuracy
/// experiments, and property-test input generation. Determinism across
/// platforms matters for test reproducibility, which rules out
/// std::mt19937 distributions (their mapping is implementation-defined).
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_RANDOM_H
#define STRUCTSLIM_SUPPORT_RANDOM_H

#include <cassert>
#include <cstdint>

namespace structslim {

/// xoshiro256** generator with splitmix64 seeding.
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x5eed5eed5eed5eedULL) { reseed(Seed); }

  /// Re-initializes the state from \p Seed via splitmix64.
  void reseed(uint64_t Seed) {
    for (auto &Word : State) {
      Seed += 0x9e3779b97f4a7c15ULL;
      uint64_t Z = Seed;
      Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
      Word = Z ^ (Z >> 31);
    }
  }

  /// Returns the next 64-bit value.
  uint64_t next() {
    uint64_t Result = rotl(State[1] * 5, 7) * 9;
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Returns a uniform value in [0, Bound). \p Bound must be nonzero.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "nextBelow requires a nonzero bound");
    // Rejection sampling to avoid modulo bias.
    uint64_t Threshold = -Bound % Bound;
    for (;;) {
      uint64_t Value = next();
      if (Value >= Threshold)
        return Value % Bound;
    }
  }

  /// Returns a uniform value in [Lo, Hi] inclusive.
  uint64_t nextInRange(uint64_t Lo, uint64_t Hi) {
    assert(Lo <= Hi && "invalid range");
    return Lo + nextBelow(Hi - Lo + 1);
  }

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t State[4];
};

} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_RANDOM_H
