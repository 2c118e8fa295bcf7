//===- profile/MergeTree.h - Reduction-tree profile merge ------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Merges per-thread profiles with a reduction tree (paper Sec. 5.2,
/// citing Tallent et al.'s scalable call-path merging).
///
/// The canonical tree pairs ADJACENT profiles level by level — (0,1),
/// (2,3), ... with an odd tail promoted unmerged. Profile::merge is not
/// associative (cross-profile RepAddr differences sharpen stride GCDs,
/// Sec. 4.4), so the tree shape is part of the output contract. One
/// binary-counter accumulator builds that tree as profiles arrive in
/// order: it merges equal-weight subtrees on arrival and right-folds
/// the O(log n) survivors at the end. Both entry points below fold
/// through it.
///
/// The file-loading front end keeps a bounded window of shard decodes
/// running ahead on the shared support::ThreadPool while the caller's
/// thread folds results in file order, so at most O(jobs) decoded
/// shards are resident at once (plus the accumulator's O(log shards)
/// subtrees) instead of the whole input set.
///
/// Loading degrades gracefully: per-thread shards are written without
/// synchronization and can be truncated, corrupted, or missing at merge
/// time (the PROMPT/BOLT failure model), so a bad shard is skipped with
/// a structured report and the surviving shards merge normally — any
/// subset of a job's threads is a well-defined merge input. Strict mode
/// restores hard failure for callers that need all-or-nothing
/// semantics.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PROFILE_MERGETREE_H
#define STRUCTSLIM_PROFILE_MERGETREE_H

#include "profile/Profile.h"

#include <cstddef>
#include <string>
#include <vector>

namespace structslim {
namespace profile {

/// Merges all \p Profiles into one over the canonical tree, in input
/// order. Consumes the input vector.
Profile mergeProfiles(std::vector<Profile> Profiles);

/// Knobs for the shard-loading front end.
struct MergeOptions {
  /// In strict mode the first unreadable shard (in file order) aborts
  /// the load: the result's StrictFailure is set, Skipped holds exactly
  /// that shard, and Loaded/Merged are left empty — a strict failure
  /// never exposes a partial merge. Otherwise bad shards are skipped
  /// and reported in MergeLoadResult::Skipped.
  bool Strict = false;
  /// Decode look-ahead: 1 decodes each shard on the calling thread;
  /// N > 1 keeps up to 2N shards decoding ahead on the shared
  /// support::ThreadPool, which has ThreadPool::defaultThreadCount()
  /// workers however N is set. 0 means N = defaultThreadCount(). The
  /// merged bytes are the same for every value.
  unsigned WorkerThreads = 0;
};

/// One shard that could not be loaded, and why.
struct ShardFailure {
  std::string Path;
  std::string Message;
};

/// Outcome of loadAndMergeProfiles.
struct MergeLoadResult {
  Profile Merged;                    ///< Merge of the loaded shards.
  std::vector<std::string> Loaded;   ///< Paths merged, in input order.
  std::vector<ShardFailure> Skipped; ///< Shards dropped (or, in strict
                                     ///< mode, the one that aborted).
  bool StrictFailure = false;        ///< Strict mode hit a bad shard.

  // --- Pipeline observability (for --stats / --json timing) ---------
  /// Aggregate wall time spent decoding shards, summed across threads
  /// (can exceed elapsed time when decodes overlap).
  double LoadSeconds = 0;
  /// Wall time the calling thread spent folding decoded shards into
  /// the merge accumulator.
  double ReduceSeconds = 0;
  /// High-water mark of simultaneously resident decoded profiles
  /// (decoded-but-unmerged shards plus the accumulator stack). Bounded
  /// by O(jobs + log shards) — the point of streaming.
  size_t PeakResidentProfiles = 0;
};

/// Reads every shard in \p Files (via profile::readProfileFile, so
/// fault injection applies) and merges the readable ones in file order
/// over the canonical tree, with decodes running ahead as
/// MergeOptions::WorkerThreads describes. A merge of a partial thread
/// set is well-defined — totals cover exactly the shards in Loaded. The
/// fault-injection site support::FaultSite::MergeShardAlloc models a
/// failed allocation while buffering a loaded shard; it reports like a
/// load failure. When any fault site is armed, every shard decodes on
/// the calling thread so the injector's hit-order contract (hit N ==
/// file N) holds; results are identical either way.
MergeLoadResult loadAndMergeProfiles(const std::vector<std::string> &Files,
                                     const MergeOptions &Opts = {});

} // namespace profile
} // namespace structslim

#endif // STRUCTSLIM_PROFILE_MERGETREE_H
