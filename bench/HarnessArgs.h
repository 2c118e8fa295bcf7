//===- bench/HarnessArgs.h - Bench harness command line --------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// The command line of the bench harnesses: `--name=<value>` flags
// (`--scale=<f>`, `--n=<n>`, ...) and bare switches (`--advice`).
// Parsed as strictly as the tools parse theirs: a malformed or
// non-positive value, or any argument the harness does not name,
// prints an error and a usage line and exits 2, so a typo never aborts
// on an exception or silently runs the default table.
//
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_BENCH_HARNESSARGS_H
#define STRUCTSLIM_BENCH_HARNESSARGS_H

#include "support/ParseNumber.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>

namespace structslim {
namespace benchutil {

/// One flag a harness accepts. A bool target is a bare switch `<Name>`
/// that sets it; a number target takes `<Name>=<value>`, which must be
/// finite (doubles) and greater than zero. A target keeps its default
/// when its flag is absent.
struct HarnessFlag {
  const char *Name;
  std::variant<bool *, double *, int64_t *, uint64_t *, unsigned *> Target;
};

namespace detail {

inline bool storePositive(const std::string &Text, double *Out) {
  double Value = 0;
  if (!support::parseDouble(Text, Value) || Value <= 0)
    return false;
  *Out = Value;
  return true;
}

template <typename Int> bool storePositive(const std::string &Text, Int *Out) {
  static_assert(std::is_integral_v<Int>);
  uint64_t Value = 0;
  if (!support::parseUint64(Text, Value) || Value == 0 ||
      Value > static_cast<uint64_t>(std::numeric_limits<Int>::max()))
    return false;
  *Out = static_cast<Int>(Value);
  return true;
}

} // namespace detail

/// Parses every argument against \p Flags; exits 2 on anything else.
inline void parseHarnessArgs(int argc, char **argv,
                             std::initializer_list<HarnessFlag> Flags) {
  auto Fail = [&](const std::string &Message) {
    std::string Program = argv[0];
    std::cerr << "error: " << Message << "\nusage: "
              << Program.substr(Program.find_last_of('/') + 1);
    for (const HarnessFlag &F : Flags) {
      std::cerr << " [" << F.Name;
      if (std::holds_alternative<double *>(F.Target))
        std::cerr << "=<f>";
      else if (!std::holds_alternative<bool *>(F.Target))
        std::cerr << "=<n>";
      std::cerr << "]";
    }
    std::cerr << "\n";
    std::exit(2);
  };
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    const HarnessFlag *Match = nullptr;
    std::string Value; // After the '=' of a number flag.
    for (const HarnessFlag &F : Flags) {
      size_t Len = std::strlen(F.Name);
      if (Arg.compare(0, Len, F.Name) != 0)
        continue;
      if (std::holds_alternative<bool *>(F.Target) ? Arg.size() == Len
                                                    : Arg[Len] == '=') {
        Match = &F;
        Value = Arg.substr(std::min(Len + 1, Arg.size()));
      }
    }
    if (!Match)
      Fail("unknown option '" + Arg + "'");
    bool Ok = std::visit(
        [&](auto *Out) {
          if constexpr (std::is_same_v<decltype(Out), bool *>)
            return *Out = true;
          else
            return detail::storePositive(Value, Out);
        },
        Match->Target);
    if (!Ok)
      Fail("invalid value '" + Value + "' for " + Match->Name);
  }
}

} // namespace benchutil
} // namespace structslim

#endif // STRUCTSLIM_BENCH_HARNESSARGS_H
