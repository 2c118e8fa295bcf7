//===- profile/Cct.h - Calling-context tree ---------------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A calling-context tree (CCT) in the HPCToolkit style the paper
/// builds on (Sec. 3.2: latency metrics attributed "to the full calling
/// contexts of code and data"). Each sampled access is attributed to
/// the path of call-site IPs active when the sample fired, ending in
/// the sampled instruction itself. Per-thread CCTs merge node-by-node,
/// the same way profiles do.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PROFILE_CCT_H
#define STRUCTSLIM_PROFILE_CCT_H

#include "support/FlatHash.h"

#include <cstdint>
#include <vector>

namespace structslim {
namespace profile {

/// Interned calling-context tree with latency/sample metrics per node.
class CallContextTree {
public:
  static constexpr uint32_t Root = 0;

  struct Node {
    uint64_t Ip = 0;          ///< Call-site or sampled-instruction IP.
    uint32_t Parent = Root;   ///< Root's parent is itself.
    uint64_t LatencySum = 0;
    uint64_t SampleCount = 0;
  };

  CallContextTree();

  /// Interns \p Path (outermost call site first, sampled IP last) and
  /// returns the leaf node id. An empty path returns the root.
  uint32_t intern(const std::vector<uint64_t> &Path);

  /// Adds one sample's metrics to \p NodeId (leaf attribution; callers
  /// aggregate inclusively via subtreeLatency()).
  void attribute(uint32_t NodeId, uint64_t Latency);

  /// Reconstructs the IP path from the root to \p NodeId.
  std::vector<uint64_t> path(uint32_t NodeId) const;

  /// Inclusive latency of \p NodeId's subtree.
  uint64_t subtreeLatency(uint32_t NodeId) const;

  /// Leaf-exclusive metrics.
  const Node &node(uint32_t NodeId) const { return Nodes[NodeId]; }
  size_t size() const { return Nodes.size(); }

  /// The \p N hottest contexts by exclusive latency, hottest first.
  std::vector<uint32_t> hottest(size_t N) const;

  /// Merges \p Other into this tree (paths align by IP).
  void merge(const CallContextTree &Other);

  /// Consumes one decoded node record (from ProfileIO; parents precede
  /// children). Returns false on a malformed record (bad parent).
  bool addSerializedNode(uint32_t Parent, uint64_t Ip, uint64_t Latency,
                         uint64_t Samples);

private:
  uint32_t child(uint32_t Parent, uint64_t Ip);

  std::vector<Node> Nodes;
  /// (Ip, Parent) -> node id. Flat open addressing: merging trees and
  /// replaying serialized nodes probe one cache line per child instead
  /// of walking a red-black tree and allocating a node per insert.
  support::FlatPairMap ChildIndex;
};

} // namespace profile
} // namespace structslim

#endif // STRUCTSLIM_PROFILE_CCT_H
