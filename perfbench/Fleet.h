//===- perfbench/Fleet.h - Seeded many-object fleet program ----*- C++ -*-===//
//
// The program behind the fleet_report workload: a seeded generator of an
// IR program with a few hundred array-of-structures objects, each with
// its own planted layout. Every logical thread allocates and initializes
// its own copy of every object (so the allocation never escapes and the
// IR splitter can rewrite it), then runs each object's loops; the threads
// run one after another, each writing its own shard. Each loop
// touches a random subset of fields; repetition counts fall off with the
// object's rank, so a few objects are hot and the tail is cold, and some
// loops run only over a handful of elements. Under 1/10000 sampling
// that leaves the sparse streams real profiles have.
//
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PERFBENCH_FLEET_H
#define STRUCTSLIM_PERFBENCH_FLEET_H

#include "workloads/Workload.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class FleetWorkload : public structslim::workloads::Workload {
public:
  /// Generates the object and loop plan from \p Seed.
  explicit FleetWorkload(uint64_t Seed);

  std::string name() const override { return "fleet"; }
  std::string suite() const override { return "generated"; }
  bool isParallel() const override { return true; }
  /// The planted layout of the hottest object (rank 0).
  structslim::ir::StructLayout hotLayout() const override {
    return Objects.front().Layout;
  }
  std::string hotObjectName() const override { return Objects.front().Name; }

  /// \p Map lays out the hottest object; every other object keeps its
  /// planted layout.
  structslim::workloads::BuiltWorkload
  build(structslim::runtime::Machine &M,
        const structslim::transform::FieldMap &Map,
        double Scale) const override;

  /// The planted struct size of object \p Name; 0 when it is not one of
  /// the generated objects.
  uint64_t plantedSize(const std::string &Name) const;

private:
  struct LoopPlan {
    std::vector<unsigned> Fields; ///< Field indices the loop reads.
    int64_t Reps = 1;             ///< Passes at scale 1.
    int64_t Count = 0;            ///< Elements per pass.
    int64_t Step = 1;             ///< Element stride.
  };
  struct ObjectPlan {
    std::string Name;
    structslim::ir::StructLayout Layout;
    int64_t Elems = 0;
    std::vector<LoopPlan> Loops;
  };

  static constexpr unsigned NumThreads = 4;
  std::vector<ObjectPlan> Objects;
};

} // namespace perfbench

#endif // STRUCTSLIM_PERFBENCH_FLEET_H
