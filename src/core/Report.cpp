//===- core/Report.cpp ----------------------------------------*- C++ -*-===//

#include "core/Report.h"

#include "support/Format.h"
#include "support/TablePrinter.h"

#include <sstream>

using namespace structslim;
using namespace structslim::core;

/// Parses the allocation-path IPs out of an object key
/// ("name@ip>ip>..."); returns an empty vector for static objects.
static std::vector<uint64_t> allocPathFromKey(const std::string &Key) {
  std::vector<uint64_t> Path;
  size_t At = Key.find('@');
  if (At == std::string::npos)
    return Path;
  std::string Rest = Key.substr(At + 1);
  size_t Pos = 0;
  while (Pos < Rest.size()) {
    size_t Next = Rest.find('>', Pos);
    std::string Part = Rest.substr(
        Pos, Next == std::string::npos ? std::string::npos : Next - Pos);
    if (!Part.empty())
      Path.push_back(std::stoull(Part));
    if (Next == std::string::npos)
      break;
    Pos = Next + 1;
  }
  return Path;
}

std::string
structslim::core::renderHotObjects(const AnalysisResult &Result,
                                   const analysis::CodeMap *CodeMap) {
  TablePrinter Table;
  std::vector<std::string> Header = {"Data object", "Samples", "Latency",
                                     "l_d", "Inferred size"};
  if (CodeMap)
    Header.push_back("Allocated at");
  Table.setHeader(Header);
  for (const ObjectAnalysis &O : Result.Objects) {
    std::vector<std::string> Row = {
        O.Name, std::to_string(O.SampleCount), std::to_string(O.LatencySum),
        formatPercent(O.HotShare),
        O.StructSize ? std::to_string(O.StructSize) + " B" : "-"};
    // An inferred size always shows its Eq. 4 confidence; one the
    // model cannot vouch for (sparse streams) is marked instead of
    // silently printed as exact.
    if (O.StructSize) {
      std::string Conf = O.SizeConfidence <= 0
                             ? std::string("conf n/a")
                             : "conf " + formatPercent(O.SizeConfidence);
      std::string Marks;
      if (O.SizeConfidence <= 0 || O.LowConfidenceSize)
        Marks += ", low";
      Row.back() += " (" + Conf + Marks + ")";
    }
    if (CodeMap) {
      std::vector<std::string> Sites;
      for (uint64_t Ip : allocPathFromKey(O.Key)) {
        const analysis::CodeSite &Site = CodeMap->lookup(Ip);
        Sites.push_back(Site.Valid
                            ? CodeMap->getFunctionName(Site.FuncId) + ":L" +
                                  std::to_string(Site.Line)
                            : formatHex(Ip));
      }
      Row.push_back(Sites.empty() ? "(static)" : join(Sites, " > "));
    }
    Table.addRow(Row);
  }
  return Table.toString();
}

std::string structslim::core::renderFieldTable(const ObjectAnalysis &Analysis) {
  TablePrinter Table;
  Table.setHeader({"Field", "Offset", "Latency %", "Samples"});
  for (const FieldStat &F : Analysis.Fields)
    Table.addRow({F.Name, std::to_string(F.Offset),
                  formatPercent(F.LatencyShare),
                  std::to_string(F.SampleCount)});
  return Table.toString();
}

std::string
structslim::core::renderFieldLevelTable(const ObjectAnalysis &Analysis) {
  TablePrinter Table;
  Table.setHeader({"Field", "L1", "L2", "L3", "DRAM", "Samples"});
  for (const FieldStat &F : Analysis.Fields) {
    uint64_t Total = 0;
    for (uint64_t L : F.LevelSamples)
      Total += L;
    auto Cell = [&](size_t Level) {
      return Total == 0
                 ? std::string("-")
                 : formatPercent(static_cast<double>(F.LevelSamples[Level]) /
                                 static_cast<double>(Total));
    };
    Table.addRow({F.Name, Cell(0), Cell(1), Cell(2), Cell(3),
                  std::to_string(F.SampleCount)});
  }
  return Table.toString();
}

std::string structslim::core::renderLoopTable(const ObjectAnalysis &Analysis) {
  TablePrinter Table;
  Table.setHeader({"Loop (lines)", "Latency %", "Accessed fields"});
  for (const LoopStat &L : Analysis.Loops) {
    std::vector<std::string> Names;
    for (uint32_t Offset : L.Offsets) {
      const FieldStat *F = Analysis.fieldAtOffset(Offset);
      Names.push_back(F ? F->Name : "off" + std::to_string(Offset));
    }
    Table.addRow(
        {L.LoopName, formatPercent(L.LatencyShare), join(Names, ", ")});
  }
  return Table.toString();
}

std::string
structslim::core::renderHotContexts(const profile::Profile &Merged,
                                    const analysis::CodeMap *CodeMap,
                                    size_t TopN) {
  const profile::CallContextTree &Cct = Merged.Contexts;
  auto Describe = [&](uint64_t Ip) {
    if (CodeMap) {
      const analysis::CodeSite &Site = CodeMap->lookup(Ip);
      if (Site.Valid)
        return CodeMap->getFunctionName(Site.FuncId) + ":L" +
               std::to_string(Site.Line);
    }
    return formatHex(Ip);
  };

  TablePrinter Table;
  Table.setHeader({"Calling context", "Latency", "Samples"});
  for (uint32_t NodeId : Cct.hottest(TopN)) {
    std::vector<std::string> Parts;
    for (uint64_t Ip : Cct.path(NodeId))
      Parts.push_back(Describe(Ip));
    Table.addRow({join(Parts, " > "),
                  std::to_string(Cct.node(NodeId).LatencySum),
                  std::to_string(Cct.node(NodeId).SampleCount)});
  }
  std::ostringstream OS;
  Table.print(OS);
  return OS.str();
}

// --- JSON rendering ---------------------------------------------------

std::string structslim::core::renderJsonReport(
    const AnalysisResult &Result, const profile::Profile &Merged,
    const AnalysisConfig &Config, const ReportStats &Stats,
    const std::vector<profile::ShardFailure> &Skipped) {
  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"schema_version\": 3,\n";
  OS << "  \"generator\": \"structslim-report\",\n";

  OS << "  \"profile\": {\n";
  OS << "    \"shards_merged\": " << Stats.ShardsMerged << ",\n";
  OS << "    \"shards_skipped\": [";
  for (size_t I = 0; I != Skipped.size(); ++I) {
    OS << (I ? ",\n" : "\n");
    OS << "      {\"path\": " << jsonString(Skipped[I].Path)
       << ", \"reason\": " << jsonString(Skipped[I].Message) << "}";
  }
  OS << (Skipped.empty() ? "],\n" : "\n    ],\n");
  OS << "    \"sample_period\": " << Merged.SamplePeriod << ",\n";
  OS << "    \"total_samples\": " << Result.TotalSamples << ",\n";
  OS << "    \"total_latency\": " << Result.TotalLatency << "\n";
  OS << "  },\n";

  OS << "  \"config\": {\n";
  OS << "    \"top_objects\": " << Config.TopObjects << ",\n";
  OS << "    \"min_object_share\": " << jsonNumber(Config.MinObjectShare)
     << ",\n";
  OS << "    \"affinity_threshold\": " << jsonNumber(Config.AffinityThreshold)
     << ",\n";
  OS << "    \"min_unique_addrs\": " << Config.MinUniqueAddrs << ",\n";
  OS << "    \"clustering\": "
     << (Config.Clustering == ClusteringMethod::Hierarchical
             ? "\"hierarchical\""
             : "\"threshold\"")
     << ",\n";
  OS << "    \"jobs\": " << Stats.Jobs << "\n";
  OS << "  },\n";

  OS << "  \"objects\": [";
  for (size_t ObjIdx = 0; ObjIdx != Result.Objects.size(); ++ObjIdx) {
    const ObjectAnalysis &O = Result.Objects[ObjIdx];
    OS << (ObjIdx ? ",\n" : "\n");
    OS << "    {\n";
    OS << "      \"name\": " << jsonString(O.Name) << ",\n";
    OS << "      \"key\": " << jsonString(O.Key) << ",\n";
    OS << "      \"samples\": " << O.SampleCount << ",\n";
    OS << "      \"latency\": " << O.LatencySum << ",\n";
    OS << "      \"hot_share\": " << jsonNumber(O.HotShare) << ",\n";
    OS << "      \"struct_size\": " << O.StructSize << ",\n";
    OS << "      \"size_confidence\": " << jsonNumber(O.SizeConfidence)
       << ",\n";
    OS << "      \"size_low_confidence\": " << jsonBool(O.LowConfidenceSize)
       << ",\n";
    OS << "      \"tlb_miss_samples\": " << O.TlbMissSamples << ",\n";
    OS << "      \"skipped_streams\": " << O.SkippedStreams << ",\n";
    OS << "      \"sparse_streams\": " << O.SparseStreams << ",\n";
    OS << "      \"split_recommended\": " << jsonBool(O.splitRecommended())
       << ",\n";

    OS << "      \"fields\": [";
    for (size_t I = 0; I != O.Fields.size(); ++I) {
      const FieldStat &F = O.Fields[I];
      OS << (I ? ",\n" : "\n");
      OS << "        {\"name\": " << jsonString(F.Name)
         << ", \"offset\": " << F.Offset << ", \"size\": " << F.Size
         << ", \"samples\": " << F.SampleCount
         << ", \"latency\": " << F.LatencySum
         << ", \"latency_share\": " << jsonNumber(F.LatencyShare)
         << ", \"level_samples\": [" << F.LevelSamples[0] << ", "
         << F.LevelSamples[1] << ", " << F.LevelSamples[2] << ", "
         << F.LevelSamples[3] << "]}";
    }
    OS << (O.Fields.empty() ? "],\n" : "\n      ],\n");

    OS << "      \"loops\": [";
    for (size_t I = 0; I != O.Loops.size(); ++I) {
      const LoopStat &L = O.Loops[I];
      OS << (I ? ",\n" : "\n");
      OS << "        {\"id\": " << L.LoopId
         << ", \"name\": " << jsonString(L.LoopName)
         << ", \"latency\": " << L.LatencySum
         << ", \"latency_share\": " << jsonNumber(L.LatencyShare)
         << ", \"offsets\": [";
      for (size_t K = 0; K != L.Offsets.size(); ++K)
        OS << (K ? ", " : "") << L.Offsets[K];
      OS << "]}";
    }
    OS << (O.Loops.empty() ? "],\n" : "\n      ],\n");

    OS << "      \"affinity\": [";
    for (size_t I = 0; I != O.Affinity.size(); ++I) {
      OS << (I ? ",\n" : "\n") << "        [";
      for (size_t J = 0; J != O.Affinity[I].size(); ++J)
        OS << (J ? ", " : "") << jsonNumber(O.Affinity[I][J]);
      OS << "]";
    }
    OS << (O.Affinity.empty() ? "],\n" : "\n      ],\n");

    OS << "      \"clusters\": [";
    for (size_t I = 0; I != O.Clusters.size(); ++I) {
      OS << (I ? ", " : "") << "[";
      for (size_t K = 0; K != O.Clusters[I].size(); ++K)
        OS << (K ? ", " : "") << O.Clusters[I][K];
      OS << "]";
    }
    OS << "]\n";
    OS << "    }";
  }
  OS << (Result.Objects.empty() ? "],\n" : "\n  ],\n");

  OS << "  \"stats\": {\n";
  OS << "    \"objects_considered\": " << Result.Stats.ObjectsConsidered
     << ",\n";
  OS << "    \"objects_analyzed\": " << Result.Stats.ObjectsAnalyzed << ",\n";
  OS << "    \"streams_analyzed\": " << Result.Stats.StreamsAnalyzed << ",\n";
  OS << "    \"skipped_inconsistent_streams\": "
     << Result.Stats.SkippedInconsistentStreams << ",\n";
  OS << "    \"low_confidence_sizes\": " << Result.Stats.LowConfidenceSizes
     << ",\n";
  OS << "    \"sparse_streams\": " << Result.Stats.SparseStreams << "\n";
  OS << "  },\n";

  OS << "  \"timing\": {\n";
  OS << "    \"merge_seconds\": " << jsonNumber(Stats.MergeSeconds) << ",\n";
  OS << "    \"merge_load_seconds\": " << jsonNumber(Stats.MergeLoadSeconds)
     << ",\n";
  OS << "    \"merge_reduce_seconds\": "
     << jsonNumber(Stats.MergeReduceSeconds) << ",\n";
  OS << "    \"merge_peak_resident_profiles\": "
     << Stats.PeakResidentProfiles << ",\n";
  OS << "    \"analyze_seconds\": " << jsonNumber(Stats.AnalyzeSeconds)
     << ",\n";
  OS << "    \"render_seconds\": " << jsonNumber(Stats.RenderSeconds) << "\n";
  OS << "  }\n";
  OS << "}\n";
  return OS.str();
}

std::string structslim::core::renderStatsText(const AnalysisResult &Result,
                                              const ReportStats &Stats) {
  std::ostringstream OS;
  OS << "=== Pipeline stats ===\n";
  OS << "merge:   " << formatDouble(Stats.MergeSeconds, 6) << "s  ("
     << Stats.ShardsMerged << " shard(s) merged, " << Stats.ShardsSkipped
     << " skipped, jobs=" << Stats.Jobs << ")\n";
  OS << "  load:   " << formatDouble(Stats.MergeLoadSeconds, 6)
     << "s  (decode, summed across workers)\n";
  OS << "  reduce: " << formatDouble(Stats.MergeReduceSeconds, 6)
     << "s  (peak resident profiles: " << Stats.PeakResidentProfiles
     << ")\n";
  OS << "analyze: " << formatDouble(Stats.AnalyzeSeconds, 6) << "s  ("
     << Result.Stats.ObjectsAnalyzed << "/" << Result.Stats.ObjectsConsidered
     << " object(s), " << Result.Stats.StreamsAnalyzed << " stream(s))\n";
  OS << "render:  " << formatDouble(Stats.RenderSeconds, 6) << "s\n";
  if (Result.Stats.SkippedInconsistentStreams)
    OS << "skipped inconsistent streams: "
       << Result.Stats.SkippedInconsistentStreams << "\n";
  if (Result.Stats.LowConfidenceSizes)
    OS << "low-confidence sizes: " << Result.Stats.LowConfidenceSizes << "\n";
  return OS.str();
}

std::string
structslim::core::renderAffinityMatrix(const ObjectAnalysis &Analysis) {
  TablePrinter Table;
  std::vector<std::string> Header = {""};
  for (const FieldStat &F : Analysis.Fields)
    Header.push_back(F.Name);
  Table.setHeader(Header);
  for (size_t I = 0; I != Analysis.Fields.size(); ++I) {
    std::vector<std::string> Row = {Analysis.Fields[I].Name};
    for (size_t J = 0; J != Analysis.Fields.size(); ++J)
      Row.push_back(formatDouble(Analysis.Affinity[I][J], 2));
    Table.addRow(Row);
  }
  return Table.toString();
}
