//===- profile/Cct.cpp ----------------------------------------*- C++ -*-===//

#include "profile/Cct.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace structslim;
using namespace structslim::profile;

CallContextTree::CallContextTree() {
  Node RootNode;
  RootNode.Parent = Root;
  Nodes.push_back(RootNode);
}

uint32_t CallContextTree::child(uint32_t Parent, uint64_t Ip) {
  bool Inserted = false;
  uint32_t Id = ChildIndex.getOrInsert(Ip, Parent,
                                       static_cast<uint32_t>(Nodes.size()),
                                       Inserted);
  if (Inserted) {
    Node N;
    N.Ip = Ip;
    N.Parent = Parent;
    Nodes.push_back(N);
  }
  return Id;
}

uint32_t CallContextTree::intern(const std::vector<uint64_t> &Path) {
  uint32_t Cur = Root;
  for (uint64_t Ip : Path)
    Cur = child(Cur, Ip);
  return Cur;
}

void CallContextTree::attribute(uint32_t NodeId, uint64_t Latency) {
  assert(NodeId < Nodes.size() && "unknown CCT node");
  Nodes[NodeId].LatencySum += Latency;
  Nodes[NodeId].SampleCount += 1;
}

std::vector<uint64_t> CallContextTree::path(uint32_t NodeId) const {
  std::vector<uint64_t> Out;
  for (uint32_t Cur = NodeId; Cur != Root; Cur = Nodes[Cur].Parent)
    Out.push_back(Nodes[Cur].Ip);
  std::reverse(Out.begin(), Out.end());
  return Out;
}

uint64_t CallContextTree::subtreeLatency(uint32_t NodeId) const {
  // Children always have larger ids than their parents (both intern()
  // and deserialization append children after parents), so one reverse
  // sweep accumulates inclusively.
  std::vector<uint64_t> Inclusive(Nodes.size());
  for (size_t I = 0; I != Nodes.size(); ++I)
    Inclusive[I] = Nodes[I].LatencySum;
  for (size_t I = Nodes.size(); I-- > 1;)
    Inclusive[Nodes[I].Parent] += Inclusive[I];
  return Inclusive[NodeId];
}

std::vector<uint32_t> CallContextTree::hottest(size_t N) const {
  std::vector<uint32_t> Ids(Nodes.size());
  std::iota(Ids.begin(), Ids.end(), 0u);
  std::stable_sort(Ids.begin(), Ids.end(), [&](uint32_t A, uint32_t B) {
    return Nodes[A].LatencySum > Nodes[B].LatencySum;
  });
  // Drop zero-latency tails and the root (latency 0 unless attributed).
  std::vector<uint32_t> Out;
  for (uint32_t Id : Ids) {
    if (Out.size() == N || Nodes[Id].LatencySum == 0)
      break;
    Out.push_back(Id);
  }
  return Out;
}

void CallContextTree::merge(const CallContextTree &Other) {
  // Batched array walk: both trees store parents before children, so a
  // single id-order pass over Other.Nodes remaps every path without
  // re-interning it node by node. Pre-sizing the node array and child
  // index up front keeps the walk free of rehash/reallocation stalls.
  Nodes.reserve(Nodes.size() + Other.Nodes.size() - 1);
  ChildIndex.reserve(Nodes.size() + Other.Nodes.size() - 1);
  std::vector<uint32_t> Remap(Other.Nodes.size(), Root);
  for (uint32_t I = 1; I < Other.Nodes.size(); ++I) {
    const Node &Theirs = Other.Nodes[I];
    uint32_t Parent = Remap[Theirs.Parent];
    uint32_t Mine = child(Parent, Theirs.Ip);
    Remap[I] = Mine;
    Nodes[Mine].LatencySum += Theirs.LatencySum;
    Nodes[Mine].SampleCount += Theirs.SampleCount;
  }
  Nodes[Root].LatencySum += Other.Nodes[Root].LatencySum;
  Nodes[Root].SampleCount += Other.Nodes[Root].SampleCount;
}

bool CallContextTree::addSerializedNode(uint32_t Parent, uint64_t Ip,
                                        uint64_t Latency,
                                        uint64_t Samples) {
  if (Parent >= Nodes.size())
    return false;
  uint32_t Id = child(Parent, Ip);
  Nodes[Id].LatencySum += Latency;
  Nodes[Id].SampleCount += Samples;
  return true;
}
