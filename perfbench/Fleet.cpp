//===- perfbench/Fleet.cpp ------------------------------------*- C++ -*-===//

#include "Fleet.h"

#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

using namespace structslim;
using namespace structslim::workloads;
using ir::Reg;

namespace perfbench {

namespace {
constexpr unsigned NumObjects = 192;
/// The three hottest objects: elements and passes of their hottest loop.
/// Their arrays outgrow the modelled L2, so the split pays off.
constexpr int64_t HotElems[3] = {16384, 8192, 8192};
constexpr int64_t HotPasses[3] = {16, 8, 6};
/// Passes of the hottest loop of a tail object of rank r: this / (r+1).
constexpr double TailPasses = 48;
/// Rare loops on each of the three hottest objects, and the elements
/// one rare loop visits.
constexpr unsigned HotRareLoops = 64;
constexpr int64_t RareAccesses = 1600;
} // namespace

FleetWorkload::FleetWorkload(uint64_t Seed) {
  Rng R(Seed ^ 0xf1ee7f1ee7ULL);
  for (unsigned Rank = 0; Rank != NumObjects; ++Rank) {
    ObjectPlan O;
    char Name[32];
    std::snprintf(Name, sizeof(Name), "fleet_obj%03u", Rank);
    O.Name = Name;
    bool Hot = Rank < 3;
    // The hot objects' shapes are fixed, so every seed's program does
    // the same amount of work; the seed picks which fields go where.
    unsigned NumFields = Hot ? 8 : static_cast<unsigned>(R.nextInRange(4, 9));
    O.Layout = ir::StructLayout(O.Name + "_t");
    for (unsigned F = 0; F != NumFields; ++F)
      O.Layout.addField("f" + std::to_string(F), 8);
    O.Layout.finalize();
    O.Elems = Hot ? HotElems[Rank]
                  : static_cast<int64_t>(R.nextInRange(256, 768));

    std::vector<unsigned> Order(NumFields);
    std::iota(Order.begin(), Order.end(), 0u);
    for (unsigned I = NumFields - 1; I != 0; --I)
      std::swap(Order[I], Order[R.nextBelow(I + 1)]);

    // Two hot groups of co-read fields; whatever is left stays cold
    // apart from the initialization pass.
    unsigned HotA = Hot ? 2
                        : static_cast<unsigned>(
                              R.nextInRange(1, std::min(3u, NumFields - 2)));
    unsigned HotB =
        Hot ? 3 : static_cast<unsigned>(R.nextInRange(1, NumFields - HotA - 1));
    int64_t RepsA =
        Hot ? HotPasses[Rank]
            : std::max<int64_t>(1, std::lround(TailPasses / (Rank + 1)));
    LoopPlan A{{Order.begin(), Order.begin() + HotA}, RepsA, O.Elems, 1};
    LoopPlan B{{Order.begin() + HotA, Order.begin() + HotA + HotB},
               std::max<int64_t>(1, RepsA / 4), O.Elems, 1};
    O.Loops.push_back(std::move(A));
    O.Loops.push_back(std::move(B));
    // Rare loops, each its own few-IP stream that 1/10000 sampling
    // leaves sparse: many on the three hottest objects (the analyzed
    // ones), one on half of the rest.
    unsigned NumRare =
        Hot ? HotRareLoops : static_cast<unsigned>(R.nextBelow(2));
    for (unsigned I = 0; I != NumRare; ++I) {
      LoopPlan Rare;
      Rare.Fields.push_back(Order[R.nextBelow(NumFields)]);
      // About 1600 accesses per thread: across the fleet's 36 thread
      // runs that leaves each stream ~5 sampled addresses, so nearly every
      // rare stream on a hot object is sparse (2 to 9 unique addresses)
      // and every seed's program has the same report cost.
      Rare.Count = O.Elems;
      Rare.Step = std::max<int64_t>(1, O.Elems / RareAccesses);
      O.Loops.push_back(std::move(Rare));
    }
    Objects.push_back(std::move(O));
  }
}

uint64_t FleetWorkload::plantedSize(const std::string &Name) const {
  for (const ObjectPlan &O : Objects)
    if (O.Name == Name)
      return O.Layout.getSize();
  return 0;
}

BuiltWorkload FleetWorkload::build(runtime::Machine &,
                                   const transform::FieldMap &Map,
                                   double Scale) const {
  BuiltWorkload Out;
  Out.Program = std::make_unique<ir::Program>();
  ir::Function &Worker = Out.Program->addFunction("fleet_worker", 1);
  ir::ProgramBuilder B(*Out.Program, Worker);
  Reg Tid = 0;

  // Every object but the hottest keeps its planted layout; the maps must
  // outlive the StructArrays that point at them.
  std::vector<transform::FieldMap> Planted;
  Planted.reserve(Objects.size());
  std::vector<StructArray> Arrays;
  for (size_t I = 0; I != Objects.size(); ++I) {
    const ObjectPlan &O = Objects[I];
    const transform::FieldMap *M = &Map;
    if (I != 0)
      M = &Planted.emplace_back(O.Layout);
    uint32_t Line = 1000 + 20 * static_cast<uint32_t>(I);
    B.setLine(Line);
    StructArray Arr = allocStructArray(B, *M, O.Name, O.Elems);
    B.forLoopI(0, O.Elems, 1, [&](Reg E) {
      B.setLine(Line + 1);
      for (size_t F = 0; F != O.Layout.getNumFields(); ++F) {
        Reg V = B.add(B.mulI(E, 31 + static_cast<int64_t>(F)), Tid);
        storeField(B, Arr, O.Layout.getField(F).Name, E, V);
      }
      B.setLine(Line);
    });
    Arrays.push_back(std::move(Arr));
  }

  Reg Acc = B.constI(0);
  for (size_t I = 0; I != Objects.size(); ++I) {
    const ObjectPlan &O = Objects[I];
    for (size_t L = 0; L != O.Loops.size(); ++L) {
      const LoopPlan &Loop = O.Loops[L];
      uint32_t Line = 1000 + 20 * static_cast<uint32_t>(I) +
                      5 * static_cast<uint32_t>(L + 1);
      int64_t Reps = std::max<int64_t>(
          1, static_cast<int64_t>(std::lround(Loop.Reps * Scale)));
      B.setLine(Line);
      B.forLoopI(0, Reps, 1, [&](Reg) {
        B.forLoopI(0, Loop.Count, Loop.Step, [&](Reg E) {
          B.setLine(Line + 1);
          Reg Sum = B.constI(1);
          for (unsigned F : Loop.Fields)
            Sum = B.add(Sum,
                        loadField(B, Arrays[I], O.Layout.getField(F).Name, E));
          // Read-modify-write of the loop's first field keeps the pass
          // observable in the return value.
          storeField(B, Arrays[I], O.Layout.getField(Loop.Fields[0]).Name, E,
                     Sum);
          B.accumulate(Acc, Sum);
          B.setLine(Line);
        });
      });
    }
  }
  B.ret(Acc);

  // The threads run one after another, one phase each: every thread
  // still writes its own shard, and the fleet's simulation stays on the
  // single-thread path so the offline layers dominate the workload.
  Out.Program->setEntry(Worker.Id);
  for (unsigned T = 0; T != NumThreads; ++T)
    Out.Phases.push_back({runtime::ThreadSpec{Worker.Id, {T}}});
  return Out;
}

} // namespace perfbench
