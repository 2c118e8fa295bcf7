//===- support/Format.h - Small string formatting helpers -----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Formatting utilities shared by report rendering and the bench
/// harnesses: fixed-precision doubles, percentages, hex addresses, and
/// the JSON scalars behind structslim-report's and structslim-verify's
/// documents.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_FORMAT_H
#define STRUCTSLIM_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>
#include <vector>

namespace structslim {

/// Formats \p Value with \p Precision digits after the decimal point.
std::string formatDouble(double Value, unsigned Precision = 2);

/// Formats \p Fraction (0..1) as a percentage string such as "73.3%".
std::string formatPercent(double Fraction, unsigned Precision = 1);

/// Formats \p Value as "1.37x" style multiplier text.
std::string formatTimes(double Value, unsigned Precision = 2);

/// Formats \p Addr as 0x-prefixed hexadecimal.
std::string formatHex(uint64_t Addr);

/// Joins \p Parts with \p Separator.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Separator);

/// Escapes \p S for use inside a JSON string literal.
std::string jsonEscape(const std::string &S);

/// \p S as a quoted, escaped JSON string literal.
std::string jsonString(const std::string &S);

/// Deterministic JSON number rendering: shortest %.9g form, never
/// NaN/Inf (which JSON cannot represent; they render as 0).
std::string jsonNumber(double Value);

inline const char *jsonBool(bool B) { return B ? "true" : "false"; }

} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_FORMAT_H
