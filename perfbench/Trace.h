//===- perfbench/Trace.h - In-memory spans for the e2e bench -*- C++ -*-===//
//
// Spans recorded around the benchmark's own calls into each library
// layer. Every span has a name, start, end, parent and the id of the op
// it belongs to; spans stay in memory and are written out once, at exit,
// as Chrome trace-event JSON (readable by Perfetto and chrome://tracing).
//
// Names with a '.' ("runtime.serial_phase", "core.analyze", ...) are
// layer spans; names without one ("op", "advise", ...) are the
// benchmark's own stage brackets. A layer's self time is its span minus
// the part covered by its child spans.
//
// Single-threaded by design: the benchmark is one closed-loop client, and
// every span is opened and closed on its thread.
//
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PERFBENCH_TRACE_H
#define STRUCTSLIM_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct Span {
  const char *Name = "";
  Clock::time_point Start;
  Clock::time_point End;
  int Parent = -1; ///< Index into Tracer::spans(), -1 at the root.
  uint64_t Op = 0;
};

class Tracer {
public:
  void setEnabled(bool On) { Enabled = On; }
  void setOp(uint64_t Id) { Op = Id; }

  /// Opens a span; returns its index, or -1 when tracing is off.
  int begin(const char *Name) {
    if (!Enabled)
      return -1;
    Span S;
    S.Name = Name;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Op = Op;
    S.Start = Clock::now();
    Spans.push_back(S);
    Open.push_back(static_cast<int>(Spans.size() - 1));
    return Open.back();
  }

  void end(int Index) {
    if (Index < 0)
      return;
    Spans[Index].End = Clock::now();
    Open.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span: its duration minus its children's.
  std::vector<double> selfSeconds() const {
    std::vector<double> Self(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[I] = secondsBetween(Spans[I].Start, Spans[I].End);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[S.Parent] -= secondsBetween(S.Start, S.End);
    return Self;
  }

  /// Per op: layer name -> summed self seconds.
  std::map<uint64_t, std::map<std::string, double>> layerSelfByOp() const {
    std::vector<double> Self = selfSeconds();
    std::map<uint64_t, std::map<std::string, double>> Out;
    for (size_t I = 0; I != Spans.size(); ++I)
      if (isLayer(Spans[I].Name))
        Out[Spans[I].Op][Spans[I].Name] += Self[I];
    return Out;
  }

  /// Share of span \p Root's wall time covered by layer spans below it.
  /// Layer spans nest only inside stage brackets, never inside each
  /// other's siblings, so summing the outermost layer spans is exact.
  double layerCoverage(int Root) const {
    double Covered = 0;
    for (size_t I = 0; I != Spans.size(); ++I) {
      if (!isLayer(Spans[I].Name) || !hasAncestor(static_cast<int>(I), Root))
        continue;
      if (outermostLayer(static_cast<int>(I)))
        Covered += secondsBetween(Spans[I].Start, Spans[I].End);
    }
    double Total = secondsBetween(Spans[Root].Start, Spans[Root].End);
    return Total > 0 ? Covered / Total : 0;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void writeChromeTrace(std::ostream &OS) const {
    Clock::time_point Origin =
        Spans.empty() ? Clock::time_point() : Spans.front().Start;
    OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      double Ts = secondsBetween(Origin, S.Start) * 1e6;
      double Dur = secondsBetween(S.Start, S.End) * 1e6;
      OS << "  {\"name\": \"" << S.Name << "\", \"cat\": \""
         << (isLayer(S.Name) ? layerOf(S.Name) : std::string("bench"))
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << Ts
         << ", \"dur\": " << Dur << ", \"args\": {\"id\": " << I
         << ", \"parent\": " << S.Parent << ", \"op\": " << S.Op << "}}"
         << (I + 1 != Spans.size() ? "," : "") << "\n";
    }
    OS << "]}\n";
  }

  static bool isLayer(const char *Name) {
    return std::string(Name).find('.') != std::string::npos;
  }
  static std::string layerOf(const char *Name) {
    std::string S(Name);
    return S.substr(0, S.find('.'));
  }

private:
  bool hasAncestor(int I, int Root) const {
    for (int P = Spans[I].Parent; P >= 0; P = Spans[P].Parent)
      if (P == Root)
        return true;
    return false;
  }
  bool outermostLayer(int I) const {
    for (int P = Spans[I].Parent; P >= 0; P = Spans[P].Parent)
      if (isLayer(Spans[P].Name))
        return false;
    return true;
  }

  bool Enabled = false;
  uint64_t Op = 0;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span on a Tracer; a no-op when tracing is off.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name) : T(T), Index(T.begin(Name)) {}
  ~ScopedSpan() { T.end(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int Index;
};

} // namespace perfbench

#endif // STRUCTSLIM_PERFBENCH_TRACE_H
