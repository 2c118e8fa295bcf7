//===- support/Simd.h - Compile-time SIMD dispatch policy ------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dispatch policy for the vectorized stride-GCD folds in
/// core/StrideKernel. The policy is compile-time: each kernel TU is
/// built at the widest vector level its build flags enable (the build
/// system adds -mavx2 to exactly those TUs when a configure-time probe
/// runs AVX2 code successfully on the build host), and the kernel
/// branches once per call between its vector path and the portable
/// scalar reference. The scalar path is always compiled and always
/// bit-identical — the differential test suite asserts it, and the
/// forced-scalar CI job ships it.
///
/// Three ways to get the scalar reference:
///  - configure with -DSTRUCTSLIM_NO_SIMD=ON (defines
///    STRUCTSLIM_NO_SIMD_BUILD, compiling the vector paths out),
///  - set STRUCTSLIM_NO_SIMD=1 in the environment at run time,
///  - call simd::forceScalar(true) (the in-process test hook).
///
/// A kernel compiled with AVX2 additionally checks the running host
/// once (the binary may have moved); the SSE2 tier is the x86-64
/// baseline and needs no check. Non-x86 targets compile neither tier
/// and always run scalar.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_SIMD_H
#define STRUCTSLIM_SUPPORT_SIMD_H

#include <cstdint>

// Per-TU tier macros: what the *including* translation unit may use.
#if !defined(STRUCTSLIM_NO_SIMD_BUILD) && defined(__AVX2__)
#define STRUCTSLIM_SIMD_AVX2 1
#else
#define STRUCTSLIM_SIMD_AVX2 0
#endif
#if !defined(STRUCTSLIM_NO_SIMD_BUILD) && defined(__SSE2__)
#define STRUCTSLIM_SIMD_SSE2 1
#else
#define STRUCTSLIM_SIMD_SSE2 0
#endif

namespace structslim {
namespace support {
namespace simd {

/// Vector tier of a kernel. Scalar is the checked reference.
enum class Level : uint8_t { Scalar = 0, Sse2 = 1, Avx2 = 2 };

const char *levelName(Level L);

/// True when the scalar reference is forced — either STRUCTSLIM_NO_SIMD
/// was set in the environment (read once, on first query) or
/// forceScalar(true) was called.
bool scalarForced();

/// Test hook: force (or un-force) the scalar reference process-wide.
/// Call only from single-threaded test setup; the kernels re-read the
/// flag on every invocation.
void forceScalar(bool Force);

/// Running-host CPU features (independent of what was compiled).
bool hostAvx2();
bool hostSse2();

/// The vector tier this TU was compiled at.
constexpr Level compiledLevel() {
#if STRUCTSLIM_SIMD_AVX2
  return Level::Avx2;
#elif STRUCTSLIM_SIMD_SSE2
  return Level::Sse2;
#else
  return Level::Scalar;
#endif
}

/// Whether this TU's vector path should run right now: compiled in,
/// not forced off, and (for AVX2) supported by the running host.
inline bool useSimd() {
#if STRUCTSLIM_SIMD_AVX2
  return !scalarForced() && hostAvx2();
#elif STRUCTSLIM_SIMD_SSE2
  return !scalarForced();
#else
  return false;
#endif
}

/// The tier this TU's kernels would dispatch to right now.
inline Level activeLevel() {
  return useSimd() ? compiledLevel() : Level::Scalar;
}

} // namespace simd
} // namespace support
} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_SIMD_H
