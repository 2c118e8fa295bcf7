//===- support/Format.cpp -------------------------------------*- C++ -*-===//

#include "support/Format.h"

#include <cmath>
#include <cstdio>

using namespace structslim;

std::string structslim::formatDouble(double Value, unsigned Precision) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Precision, Value);
  return Buffer;
}

std::string structslim::formatPercent(double Fraction, unsigned Precision) {
  return formatDouble(Fraction * 100.0, Precision) + "%";
}

std::string structslim::formatTimes(double Value, unsigned Precision) {
  return formatDouble(Value, Precision) + "x";
}

std::string structslim::formatHex(uint64_t Addr) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "0x%llx",
                static_cast<unsigned long long>(Addr));
  return Buffer;
}

std::string structslim::join(const std::vector<std::string> &Parts,
                             const std::string &Separator) {
  std::string Result;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Result += Separator;
    Result += Parts[I];
  }
  return Result;
}

std::string structslim::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string structslim::jsonString(const std::string &S) {
  return "\"" + jsonEscape(S) + "\"";
}

std::string structslim::jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
  return Buf;
}
