//===- core/ClosedLoop.cpp ------------------------------------*- C++ -*-===//

#include "core/ClosedLoop.h"

#include "ir/Verifier.h"
#include "support/Format.h"
#include "support/TablePrinter.h"
#include "transform/StructSplitter.h"

#include <algorithm>
#include <sstream>

using namespace structslim;
using namespace structslim::core;

const char *structslim::core::applyModeName(ApplyMode Mode) {
  switch (Mode) {
  case ApplyMode::None:
    return "none";
  case ApplyMode::IrSplit:
    return "ir-split";
  }
  return "none";
}

double SimCounters::missRate(unsigned Level) const {
  if (Level >= 3 || Accesses[Level] == 0)
    return 0.0;
  return static_cast<double>(Misses[Level]) /
         static_cast<double>(Accesses[Level]);
}

unsigned VerifyReport::countMode(ApplyMode Mode) const {
  unsigned N = 0;
  for (const WorkloadVerdict &V : Workloads)
    N += V.Mode == Mode;
  return N;
}

unsigned VerifyReport::countImproved() const {
  unsigned N = 0;
  for (const WorkloadVerdict &V : Workloads)
    N += V.improved();
  return N;
}

unsigned VerifyReport::countRegressed() const {
  unsigned N = 0;
  for (const WorkloadVerdict &V : Workloads)
    N += V.regressed();
  return N;
}

unsigned VerifyReport::countMismatched() const {
  unsigned N = 0;
  for (const WorkloadVerdict &V : Workloads)
    N += !V.ResultsMatch;
  return N;
}

bool VerifyReport::allOk() const {
  for (const WorkloadVerdict &V : Workloads)
    if (!V.ok())
      return false;
  return true;
}

namespace {

SimCounters countersOf(const runtime::RunResult &R) {
  SimCounters C;
  C.ElapsedCycles = R.ElapsedCycles;
  C.Instructions = R.Instructions;
  C.MemoryAccesses = R.MemoryAccesses;
  for (unsigned Level = 0; Level != 3; ++Level) {
    C.Accesses[Level] = R.Accesses[Level];
    C.Misses[Level] = R.Misses[Level];
  }
  return C;
}

} // namespace

WorkloadVerdict
structslim::core::verifyWorkload(const workloads::Workload &W,
                                 const workloads::DriverConfig &Config) {
  WorkloadVerdict V;
  V.Name = W.name();
  V.Suite = W.suite();
  ir::StructLayout Hot = W.hotLayout();
  V.ActualStructSize = Hot.getSize();
  transform::FieldMap Identity(Hot);

  // 1-2. Profile the original layout and run the offline analyzer. The
  // profiled run is also the baseline: its as-if-detached cycles are a
  // detached run's, and every other counter is unperturbed.
  workloads::WorkloadRun Profiled =
      workloads::runWorkload(W, Identity, Config, /*Attach=*/true);
  StructSlimAnalyzer Analyzer(*Profiled.CodeMap, Config.Analysis);
  Analyzer.registerLayout(W.hotObjectName(), Hot);
  V.Analysis = Analyzer.analyze(Profiled.Merged);
  V.Profiled = std::move(Profiled.Result);
  V.Before = countersOf(V.Profiled);
  V.Before.ElapsedCycles = V.Profiled.DetachedElapsedCycles;

  // 3. Advice for the hot object, plus the what-if projection.
  if (const ObjectAnalysis *HotObj =
          V.Analysis.findObject(W.hotObjectName())) {
    V.Plan = makeSplitPlan(*HotObj, &Hot);
    V.InferredStructSize = HotObj->StructSize;
    V.SizeConfidence = HotObj->SizeConfidence;
    V.HotShare = HotObj->HotShare;
    V.Samples = HotObj->SampleCount;
    // Memory share of the run: sampled latency stands for 1/period of
    // the true memory latency, over the thread-summed cycles with the
    // sample-handler charge removed. The per-phase-max detached elapsed
    // cycles would overcount the parallel programs' share.
    double MemCycles = static_cast<double>(V.Analysis.TotalLatency) *
                       static_cast<double>(Config.Run.Sampling.Period);
    uint64_t BusyCycles = V.Profiled.TotalCycles -
                          V.Profiled.Samples * Config.Run.SampleHandlerCycles;
    double MemoryShare =
        std::min(1.0, MemCycles / static_cast<double>(BusyCycles));
    V.PredictedSpeedup =
        estimateSplitBenefit(*HotObj, V.Plan, MemoryShare).PredictedSpeedup;
  } else {
    V.Plan.ObjectName = W.hotObjectName();
    V.FallbackReason =
        "hot object '" + W.hotObjectName() + "' not significant in the profile";
  }

  // 4. Rewrite the built IR through the allocation token and re-simulate
  // under the identical RunConfig.
  if (V.Plan.isSplit()) {
    runtime::RunConfig DetachedCfg = Config.Run;
    DetachedCfg.AttachProfiler = false;
    runtime::ThreadedRuntime Runtime(DetachedCfg);
    workloads::BuiltWorkload Built =
        W.build(Runtime.machine(), Identity, Config.Scale);

    std::string Err;
    std::unique_ptr<ir::Program> Split;
    if (uint32_t Token = Built.Program->findToken(W.hotObjectName()))
      Split = transform::splitArrayOfStructs(*Built.Program, Token, Hot,
                                             V.Plan, &Err);
    else
      Err = "program carries no allocation token for object '" +
            W.hotObjectName() + "'";
    if (Split)
      if (std::string VerifyErr = ir::verify(*Split); !VerifyErr.empty()) {
        Split.reset();
        Err = "split program failed IR verification: " + VerifyErr;
      }

    if (Split) {
      // cloneProgram preserves function ids, so the original phase
      // plan drives the rewritten program unchanged.
      V.Mode = ApplyMode::IrSplit;
      analysis::CodeMap SplitMap(*Split);
      for (const auto &Phase : Built.Phases)
        Runtime.runPhase(*Split, &SplitMap, Phase);
      runtime::RunResult After = Runtime.finish();
      V.After = countersOf(After);
      V.ResultsMatch = After.ReturnValues == V.Profiled.ReturnValues;
    } else {
      V.FallbackReason = Err;
    }
  }
  if (V.Mode == ApplyMode::None) {
    if (V.FallbackReason.empty())
      V.FallbackReason = "advice keeps the structure whole";
    V.After = V.Before;
  }

  // 5. Deltas.
  if (V.After.ElapsedCycles != 0)
    V.MeasuredSpeedup = static_cast<double>(V.Before.ElapsedCycles) /
                        static_cast<double>(V.After.ElapsedCycles);
  if (V.Before.ElapsedCycles != 0)
    V.OverheadSim = static_cast<double>(V.Profiled.ElapsedCycles) /
                        static_cast<double>(V.Before.ElapsedCycles) -
                    1.0;
  for (unsigned Level = 0; Level != 3; ++Level) {
    double Before = static_cast<double>(V.Before.Misses[Level]);
    if (Before > 0)
      V.MissReduction[Level] =
          (Before - static_cast<double>(V.After.Misses[Level])) / Before;
  }
  return V;
}

VerifyReport structslim::core::verifyWorkloads(
    const std::vector<std::unique_ptr<workloads::Workload>> &Ws,
    const workloads::DriverConfig &Config) {
  VerifyReport Report;
  for (const auto &W : Ws)
    Report.Workloads.push_back(verifyWorkload(*W, Config));
  return Report;
}

// --- Rendering ----------------------------------------------------------

std::string structslim::core::renderVerifyText(const VerifyReport &Report) {
  TablePrinter Table;
  Table.setHeader({"Workload", "Suite", "Mode", "Size", "HotShare", "Pred",
                   "Meas", "dL1", "dL2", "dL3", "OK"});
  for (const WorkloadVerdict &V : Report.Workloads) {
    std::string Size = std::to_string(V.InferredStructSize) + "/" +
                       std::to_string(V.ActualStructSize) +
                       (V.sizeExact() ? "" : " !");
    Table.addRow({V.Name, V.Suite, applyModeName(V.Mode), Size,
                  formatPercent(V.HotShare), formatTimes(V.PredictedSpeedup),
                  formatTimes(V.MeasuredSpeedup),
                  formatPercent(V.MissReduction[0]),
                  formatPercent(V.MissReduction[1]),
                  formatPercent(V.MissReduction[2]),
                  V.ok() ? "yes" : "NO"});
  }
  std::ostringstream OS;
  OS << Table.toString();
  OS << "\n";
  for (const WorkloadVerdict &V : Report.Workloads)
    if (V.Mode != ApplyMode::IrSplit && !V.FallbackReason.empty())
      OS << V.Name << ": " << applyModeName(V.Mode) << " ("
         << V.FallbackReason << ")\n";
  OS << "\n"
     << Report.Workloads.size() << " workload(s): "
     << Report.countMode(ApplyMode::IrSplit) << " ir-split, "
     << Report.countMode(ApplyMode::None) << " unsplit; "
     << Report.countImproved() << " improved, " << Report.countRegressed()
     << " regressed, " << Report.countMismatched() << " mismatched\n";
  return OS.str();
}

namespace {

void renderCounters(std::ostream &OS, const SimCounters &C,
                    const std::string &Indent) {
  OS << "{\n";
  OS << Indent << "  \"elapsed_cycles\": " << C.ElapsedCycles << ",\n";
  OS << Indent << "  \"instructions\": " << C.Instructions << ",\n";
  OS << Indent << "  \"memory_accesses\": " << C.MemoryAccesses << ",\n";
  OS << Indent << "  \"accesses\": [" << C.Accesses[0] << ", " << C.Accesses[1]
     << ", " << C.Accesses[2] << "],\n";
  OS << Indent << "  \"misses\": [" << C.Misses[0] << ", " << C.Misses[1]
     << ", " << C.Misses[2] << "],\n";
  OS << Indent << "  \"miss_rates\": [" << jsonNumber(C.missRate(0)) << ", "
     << jsonNumber(C.missRate(1)) << ", " << jsonNumber(C.missRate(2))
     << "]\n";
  OS << Indent << "}";
}

} // namespace

std::string
structslim::core::renderVerifyJson(const VerifyReport &Report,
                                   const workloads::DriverConfig &D) {
  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"schema_version\": 4,\n";
  OS << "  \"generator\": \"structslim-verify\",\n";

  OS << "  \"config\": {\n";
  OS << "    \"scale\": " << jsonNumber(D.Scale) << ",\n";
  OS << "    \"sampling_period\": " << D.Run.Sampling.Period << ",\n";
  OS << "    \"quantum\": " << D.Run.Quantum << ",\n";
  OS << "    \"affinity_threshold\": " << jsonNumber(D.Analysis.AffinityThreshold)
     << ",\n";
  OS << "    \"min_unique_addrs\": " << D.Analysis.MinUniqueAddrs << "\n";
  OS << "  },\n";

  OS << "  \"workloads\": [\n";
  for (size_t I = 0; I != Report.Workloads.size(); ++I) {
    const WorkloadVerdict &V = Report.Workloads[I];
    OS << "    {\n";
    OS << "      \"name\": " << jsonString(V.Name) << ",\n";
    OS << "      \"suite\": " << jsonString(V.Suite) << ",\n";
    OS << "      \"mode\": " << jsonString(applyModeName(V.Mode)) << ",\n";
    OS << "      \"fallback_reason\": " << jsonString(V.FallbackReason)
       << ",\n";
    OS << "      \"plan\": " << renderSplitPlanJson(V.Plan, "      ").substr(6)
       << ",\n";
    OS << "      \"agreement\": {\n";
    OS << "        \"inferred_struct_size\": " << V.InferredStructSize
       << ",\n";
    OS << "        \"actual_struct_size\": " << V.ActualStructSize << ",\n";
    OS << "        \"size_exact\": " << jsonBool(V.sizeExact()) << ",\n";
    OS << "        \"size_confidence\": " << jsonNumber(V.SizeConfidence)
       << ",\n";
    OS << "        \"hot_share\": " << jsonNumber(V.HotShare) << ",\n";
    OS << "        \"samples\": " << V.Samples << "\n";
    OS << "      },\n";
    OS << "      \"before\": ";
    renderCounters(OS, V.Before, "      ");
    OS << ",\n";
    OS << "      \"after\": ";
    renderCounters(OS, V.After, "      ");
    OS << ",\n";
    OS << "      \"delta\": {\n";
    OS << "        \"measured_speedup\": " << jsonNumber(V.MeasuredSpeedup)
       << ",\n";
    OS << "        \"predicted_speedup\": " << jsonNumber(V.PredictedSpeedup)
       << ",\n";
    OS << "        \"prediction_ratio\": "
       << jsonNumber(V.MeasuredSpeedup > 0
                         ? V.PredictedSpeedup / V.MeasuredSpeedup
                         : 0)
       << ",\n";
    OS << "        \"miss_reduction\": [" << jsonNumber(V.MissReduction[0])
       << ", " << jsonNumber(V.MissReduction[1]) << ", "
       << jsonNumber(V.MissReduction[2]) << "]\n";
    OS << "      },\n";
    OS << "      \"results_match\": " << jsonBool(V.ResultsMatch) << ",\n";
    OS << "      \"improved\": " << jsonBool(V.improved()) << ",\n";
    OS << "      \"regressed\": " << jsonBool(V.regressed()) << "\n";
    OS << "    }" << (I + 1 != Report.Workloads.size() ? "," : "") << "\n";
  }
  OS << "  ],\n";

  OS << "  \"summary\": {\n";
  OS << "    \"workloads\": " << Report.Workloads.size() << ",\n";
  OS << "    \"ir_split\": " << Report.countMode(ApplyMode::IrSplit) << ",\n";
  OS << "    \"unsplit\": " << Report.countMode(ApplyMode::None) << ",\n";
  OS << "    \"improved\": " << Report.countImproved() << ",\n";
  OS << "    \"regressed\": " << Report.countRegressed() << ",\n";
  OS << "    \"results_mismatch\": " << Report.countMismatched() << ",\n";
  OS << "    \"all_ok\": " << jsonBool(Report.allOk()) << "\n";
  OS << "  }\n";
  OS << "}\n";
  return OS.str();
}
