//===- support/ParseNumber.h - Strict command-line numbers -----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full-string number parsing for command-line flags. Each parser
/// accepts the whole text or nothing: "", "abc", "1x" and out-of-range
/// values fail instead of yielding a prefix, a zero or an exception, so
/// the tools and bench harnesses can exit 2 with a usage line.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_PARSENUMBER_H
#define STRUCTSLIM_SUPPORT_PARSENUMBER_H

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

namespace structslim {
namespace support {

/// Parses a finite double; rejects "", "abc", "0.5x", "nan", "inf" and
/// values that overflow.
bool parseDouble(const std::string &Text, double &Out);

/// Parses a decimal unsigned 64-bit integer; rejects "", "abc", "1x",
/// "-1", "+1" and values above 2^64-1.
bool parseUint64(const std::string &Text, uint64_t &Out);

/// parseUint64 narrowed to \p T: also rejects values above T's range.
template <typename T> bool parseUnsigned(const std::string &Text, T &Out) {
  static_assert(std::is_unsigned_v<T>, "parseUnsigned needs an unsigned type");
  uint64_t Value = 0;
  if (!parseUint64(Text, Value) || Value > std::numeric_limits<T>::max())
    return false;
  Out = static_cast<T>(Value);
  return true;
}

} // namespace support
} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_PARSENUMBER_H
