//===- core/Advice.cpp ----------------------------------------*- C++ -*-===//

#include "core/Advice.h"

#include "support/DotWriter.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

using namespace structslim;
using namespace structslim::core;

SplitPlan structslim::core::makeSplitPlan(const ObjectAnalysis &Analysis,
                                          const ir::StructLayout *Original) {
  SplitPlan Plan;
  Plan.ObjectName = Analysis.Name;
  Plan.OriginalSize =
      Analysis.StructSize ? Analysis.StructSize
                          : (Original ? Original->getSize() : 0);

  // With a known layout, canonicalize observed offsets to their
  // containing field's offset (wide fields like char arrays are
  // sampled at several inner offsets) and merge clusters that turn out
  // to share a field.
  auto Canonical = [&](uint32_t Offset) {
    if (Original)
      if (const ir::FieldDesc *F = Original->fieldContaining(Offset))
        return F->Offset;
    return Offset;
  };

  // Union canonical offsets that share an analysis cluster, then emit
  // groups in the order their representatives first appear (hottest
  // cluster first, matching the analysis ordering).
  std::map<uint32_t, uint32_t> Parent; // canonical offset union-find
  std::function<uint32_t(uint32_t)> Find = [&](uint32_t X) -> uint32_t {
    auto It = Parent.find(X);
    if (It == Parent.end() || It->second == X)
      return X;
    return It->second = Find(It->second);
  };
  std::vector<uint32_t> Appearance; // canonical offsets, first-seen order
  for (const std::vector<uint32_t> &Cluster : Analysis.Clusters) {
    uint32_t First = ~0u;
    for (uint32_t FieldIndex : Cluster) {
      uint32_t Offset = Canonical(Analysis.Fields[FieldIndex].Offset);
      if (!Parent.count(Offset)) {
        Parent[Offset] = Offset;
        Appearance.push_back(Offset);
      }
      if (First == ~0u)
        First = Offset;
      else
        Parent[Find(Offset)] = Find(First);
    }
  }
  std::map<uint32_t, size_t> GroupOf; // root -> plan cluster index
  for (uint32_t Offset : Appearance) {
    uint32_t Root = Find(Offset);
    auto [It, Inserted] = GroupOf.try_emplace(Root, Plan.ClusterOffsets.size());
    if (Inserted)
      Plan.ClusterOffsets.emplace_back();
    Plan.ClusterOffsets[It->second].push_back(Offset);
  }
  for (std::vector<uint32_t> &Offsets : Plan.ClusterOffsets)
    std::sort(Offsets.begin(), Offsets.end());

  // Cold fields: present in the source layout but never sampled. They
  // go into one trailing structure of their own.
  if (Original) {
    std::set<uint32_t> Covered;
    for (const auto &Offsets : Plan.ClusterOffsets)
      Covered.insert(Offsets.begin(), Offsets.end());
    std::vector<uint32_t> Cold;
    for (const ir::FieldDesc &F : Original->fields()) {
      bool Observed = false;
      for (uint32_t Offset : Covered)
        if (Offset >= F.Offset && Offset < F.Offset + F.Size)
          Observed = true;
      if (!Observed)
        Cold.push_back(F.Offset);
    }
    if (!Cold.empty())
      Plan.ClusterOffsets.push_back(std::move(Cold));
  }
  return Plan;
}

SplitPlan structslim::core::makeReorderPlan(const ObjectAnalysis &Analysis,
                                            const ir::StructLayout &Original) {
  // Start from the split plan (canonical offsets, cold fields last) and
  // flatten it into one cluster, preserving the hot-first cluster order
  // but NOT re-sorting across clusters.
  SplitPlan Split = makeSplitPlan(Analysis, &Original);
  SplitPlan Plan;
  Plan.ObjectName = Split.ObjectName;
  Plan.OriginalSize = Split.OriginalSize;
  Plan.ClusterOffsets.emplace_back();
  for (const std::vector<uint32_t> &Cluster : Split.ClusterOffsets)
    Plan.ClusterOffsets.front().insert(Plan.ClusterOffsets.front().end(),
                                       Cluster.begin(), Cluster.end());
  return Plan;
}

std::vector<ir::StructLayout>
structslim::core::renderSplitLayouts(const SplitPlan &Plan,
                                     const ObjectAnalysis &Analysis,
                                     const ir::StructLayout *Original) {
  std::vector<ir::StructLayout> Layouts;
  for (size_t C = 0; C != Plan.ClusterOffsets.size(); ++C) {
    ir::StructLayout L(Plan.ObjectName + "_" + std::to_string(C));
    for (uint32_t Offset : Plan.ClusterOffsets[C]) {
      if (Original) {
        if (const ir::FieldDesc *F = Original->fieldContaining(Offset)) {
          L.addField(F->Name, F->Size);
          continue;
        }
      }
      const FieldStat *Stat = Analysis.fieldAtOffset(Offset);
      uint32_t Size = Stat && Stat->Size ? Stat->Size : 8;
      std::string Name = Stat ? Stat->Name : "off" + std::to_string(Offset);
      L.addField(Name, Size);
    }
    L.finalize();
    Layouts.push_back(std::move(L));
  }
  return Layouts;
}

std::string
structslim::core::renderAdviceText(const SplitPlan &Plan,
                                   const ObjectAnalysis &Analysis,
                                   const ir::StructLayout *Original) {
  std::string Text;
  if (!Plan.isSplit()) {
    Text += "// No profitable split found for " + Plan.ObjectName + "\n";
    return Text;
  }
  Text += "// StructSlim advice: split '" + Plan.ObjectName + "' (size " +
          std::to_string(Plan.OriginalSize) + " bytes" +
          (Analysis.LowConfidenceSize ? ", low-confidence size" : "") +
          ") into " + std::to_string(Plan.ClusterOffsets.size()) +
          " structures\n";
  for (const ir::StructLayout &L :
       renderSplitLayouts(Plan, Analysis, Original))
    Text += L.toString() + "\n";
  return Text;
}

std::string structslim::core::renderSplitPlanJson(const SplitPlan &Plan,
                                                  const std::string &Indent) {
  std::string Out;
  Out += Indent + "{\n";
  Out += Indent + "  \"object\": \"" + Plan.ObjectName + "\",\n";
  Out += Indent + "  \"original_size\": " +
         std::to_string(Plan.OriginalSize) + ",\n";
  Out += Indent + "  \"split\": " + (Plan.isSplit() ? "true" : "false") +
         ",\n";
  Out += Indent + "  \"clusters\": [";
  for (size_t C = 0; C != Plan.ClusterOffsets.size(); ++C) {
    Out += C ? ", [" : "[";
    for (size_t I = 0; I != Plan.ClusterOffsets[C].size(); ++I)
      Out += (I ? ", " : "") + std::to_string(Plan.ClusterOffsets[C][I]);
    Out += "]";
  }
  Out += "]\n";
  Out += Indent + "}";
  return Out;
}

std::string structslim::core::affinityGraphDot(const ObjectAnalysis &Analysis) {
  DotWriter Writer("affinity_" + Analysis.Name);

  // Assign each field to its cluster index for subgraph grouping.
  std::vector<int> ClusterOf(Analysis.Fields.size(), -1);
  for (size_t C = 0; C != Analysis.Clusters.size(); ++C)
    for (uint32_t FieldIndex : Analysis.Clusters[C])
      ClusterOf[FieldIndex] = static_cast<int>(C);

  for (size_t I = 0; I != Analysis.Fields.size(); ++I) {
    const FieldStat &F = Analysis.Fields[I];
    Writer.addNode("f" + std::to_string(F.Offset), F.Name, ClusterOf[I]);
  }
  for (size_t I = 0; I != Analysis.Fields.size(); ++I)
    for (size_t J = I + 1; J != Analysis.Fields.size(); ++J) {
      double A = Analysis.Affinity[I][J];
      if (A <= 0.0)
        continue;
      Writer.addEdge("f" + std::to_string(Analysis.Fields[I].Offset),
                     "f" + std::to_string(Analysis.Fields[J].Offset), A);
    }
  return Writer.toString();
}
