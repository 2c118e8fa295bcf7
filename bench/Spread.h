//===- bench/Spread.h - Median and quartiles of timings ---------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// The spread a repeated timing row reports: median plus the quartiles
// around it (linear interpolation between order statistics), so one
// noisy repeat cannot pose as the result.
//
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_BENCH_SPREAD_H
#define STRUCTSLIM_BENCH_SPREAD_H

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace structslim {

struct Spread {
  double Median = 0;
  double Q1 = 0;
  double Q3 = 0;
  double Min = 0;

  /// `"<Prefix>_median": m, "<Prefix>_q1": ..., "<Prefix>_q3": ...,
  /// "<Prefix>_min": ...` for splicing into a JSON object.
  std::string jsonFields(const std::string &Prefix) const {
    auto Num = [](double V) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.6g", V);
      return std::string(Buf);
    };
    return "\"" + Prefix + "_median\": " + Num(Median) + ", \"" + Prefix +
           "_q1\": " + Num(Q1) + ", \"" + Prefix + "_q3\": " + Num(Q3) +
           ", \"" + Prefix + "_min\": " + Num(Min);
  }
};

inline Spread spreadOf(std::vector<double> Values) {
  Spread S;
  if (Values.empty())
    return S;
  std::sort(Values.begin(), Values.end());
  auto Quantile = [&](double Q) {
    double Pos = Q * (Values.size() - 1);
    size_t Lo = static_cast<size_t>(Pos);
    size_t Hi = std::min(Lo + 1, Values.size() - 1);
    return Values[Lo] + (Pos - Lo) * (Values[Hi] - Values[Lo]);
  };
  S.Median = Quantile(0.5);
  S.Q1 = Quantile(0.25);
  S.Q3 = Quantile(0.75);
  S.Min = Values.front();
  return S;
}

} // namespace structslim

#endif // STRUCTSLIM_BENCH_SPREAD_H
