//===- core/Report.h - Paper-style report rendering ------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the analyzer output in the shapes the paper's evaluation
/// reports: the hot-object ranking (l_d), the per-field latency table
/// (Table 5), and the per-loop latency/field table (Table 6). Also the
/// machine-readable surface: the full AnalysisResult as stable-schema
/// JSON plus per-stage pipeline statistics.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_CORE_REPORT_H
#define STRUCTSLIM_CORE_REPORT_H

#include "core/Analyzer.h"
#include "profile/MergeTree.h"

#include <string>

namespace structslim {
namespace core {

/// Per-stage wall-clock timings and shard counters of one report run,
/// printed under `structslim-report --stats` and embedded in the JSON
/// document. Purely informational: never part of the byte-identity
/// contract between runs (timings vary), which is
/// why renderJsonReport embeds exactly what the caller passes instead
/// of measuring anything itself.
struct ReportStats {
  double MergeSeconds = 0;   ///< Shard load + reduction-tree merge.
  /// Aggregate decode time summed across workers (exceeds MergeSeconds
  /// when the streaming loader overlaps decodes).
  double MergeLoadSeconds = 0;
  double MergeReduceSeconds = 0; ///< Calling-thread time folding shards.
  double AnalyzeSeconds = 0; ///< StructSlimAnalyzer::analyze.
  double RenderSeconds = 0;  ///< Report rendering (text or JSON).
  /// Effective --jobs: 1 decoded shards serially; N > 1 kept up to 2N
  /// decoding ahead on the shared pool (sized by STRUCTSLIM_THREADS or
  /// one worker per core, independently of N).
  unsigned Jobs = 0;
  uint64_t ShardsMerged = 0;
  uint64_t ShardsSkipped = 0;
  /// High-water mark of decoded profiles resident during the merge.
  uint64_t PeakResidentProfiles = 0;
  /// Online decoupled-pipeline counters carried in the merged profile
  /// (zero when the profiled run simulated inline or the shards predate
  /// the pipeline); schema-additive, mirroring PeakResidentProfiles.
  uint64_t QueueDepthMax = 0;
  uint64_t ProducerStalls = 0;
  uint64_t ConsumerBatches = 0;
  /// Access-queue capacity (records); max across shards.
  uint64_t PipelineCapacity = 0;
};

/// Hot data objects ranked by l_d (Eq. 1). When \p CodeMap is given,
/// heap objects additionally show their allocation call path resolved
/// to function:line (the data-centric "full calling context" view).
std::string renderHotObjects(const AnalysisResult &Result,
                             const analysis::CodeMap *CodeMap = nullptr);

/// Table 5 shape: per-field share of the object's access latency.
std::string renderFieldTable(const ObjectAnalysis &Analysis);

/// Per-field data-source decomposition: share of samples served by
/// each memory level (the PEBS-LL data-source field) plus TLB misses.
std::string renderFieldLevelTable(const ObjectAnalysis &Analysis);

/// Table 6 shape: per-loop latency share and accessed fields.
std::string renderLoopTable(const ObjectAnalysis &Analysis);

/// The affinity matrix, row per field.
std::string renderAffinityMatrix(const ObjectAnalysis &Analysis);

/// The hottest sampled calling contexts (HPCToolkit-style view over
/// the profile's CCT). \p CodeMap, when given, resolves IPs to
/// function:line; otherwise raw IPs print.
std::string renderHotContexts(const profile::Profile &Merged,
                              const analysis::CodeMap *CodeMap,
                              size_t TopN = 10);

/// The full analysis as one stable-schema JSON document
/// ("schema_version": 2): profile totals, merge skip reasons, the
/// analyzer configuration, every object with its fields, loops,
/// affinity matrix, clusters and size confidence, the analysis
/// counters, and the per-stage timings from \p Stats. Key order and
/// number formatting are deterministic, so two runs over the same
/// profile with the same \p Stats values serialize byte-identically
/// regardless of the analyzer's job count.
std::string renderJsonReport(const AnalysisResult &Result,
                             const profile::Profile &Merged,
                             const AnalysisConfig &Config,
                             const ReportStats &Stats,
                             const std::vector<profile::ShardFailure> &Skipped);

/// Human-readable pipeline statistics (the `--stats` block).
std::string renderStatsText(const AnalysisResult &Result,
                            const ReportStats &Stats);

} // namespace core
} // namespace structslim

#endif // STRUCTSLIM_CORE_REPORT_H
