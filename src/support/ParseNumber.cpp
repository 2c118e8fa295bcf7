//===- support/ParseNumber.cpp --------------------------------*- C++ -*-===//

#include "support/ParseNumber.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

using namespace structslim;

bool support::parseDouble(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double Value = std::strtod(Text.c_str(), &End);
  if (errno != 0 || End != Text.c_str() + Text.size() ||
      !std::isfinite(Value))
    return false;
  Out = Value;
  return true;
}

bool support::parseUint64(const std::string &Text, uint64_t &Out) {
  // strtoull accepts a sign (and negates "-1" into 2^64-1); refuse both.
  if (Text.empty() || Text[0] == '-' || Text[0] == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text.c_str(), &End, 10);
  if (errno != 0 || End != Text.c_str() + Text.size())
    return false;
  Out = Value;
  return true;
}
