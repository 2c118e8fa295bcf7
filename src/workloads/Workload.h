//===- workloads/Workload.h - Benchmark model interface --------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seven benchmarks of the paper's evaluation (Table 2) re-built as
/// IR programs: ART (SPEC CPU2000), libquantum (SPEC CPU2006), TSP
/// (Olden), MSER (SD-VBS), CLOMP (LLNL CORAL), Health (BOTS) and NN
/// (Rodinia). Each workload reproduces the benchmark's documented hot
/// data structure, field mix and loop structure (including the paper's
/// source line numbers, so Table 5/6-style reports read the same).
///
/// Builders are parameterized over a transform::FieldMap: the identity
/// map yields the original array-of-structures program; a map derived
/// from a StructSlim SplitPlan yields the split program — the same
/// source-level transformation the paper applies by hand.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_WORKLOADS_WORKLOAD_H
#define STRUCTSLIM_WORKLOADS_WORKLOAD_H

#include "ir/ProgramBuilder.h"
#include "ir/StructLayout.h"
#include "runtime/Machine.h"
#include "runtime/ThreadedRuntime.h"
#include "transform/FieldMap.h"

#include <memory>
#include <string>
#include <vector>

namespace structslim {
namespace workloads {

/// A fully built program plus its execution plan.
struct BuiltWorkload {
  std::unique_ptr<ir::Program> Program;
  /// Phases run in order; each phase's threads run concurrently
  /// (interleaved). Phase 0 is typically serial setup + serial work,
  /// phase 1 the parallel region.
  std::vector<std::vector<runtime::ThreadSpec>> Phases;
};

/// One benchmark model.
class Workload {
public:
  virtual ~Workload();

  virtual std::string name() const = 0;
  virtual std::string suite() const = 0;
  virtual bool isParallel() const = 0;
  /// The paper runs parallel benchmarks with four threads.
  virtual unsigned numThreads() const { return isParallel() ? 4 : 1; }

  /// Source-level layout of the hot structure (the paper's Table 2
  /// programs define these in C). StructSlim only uses it for field
  /// naming; the FieldMap uses it to lay out storage.
  virtual ir::StructLayout hotLayout() const = 0;

  /// Name of the data object holding the hot array.
  virtual std::string hotObjectName() const = 0;

  /// Builds the program under layout \p Map. \p Scale (default 1.0)
  /// scales the working set / iteration counts for quicker test runs.
  virtual BuiltWorkload build(runtime::Machine &M,
                              const transform::FieldMap &Map,
                              double Scale) const = 0;
};

// --- Builder helpers shared by the workload models ----------------------

/// The allocation groups of one logical array-of-structures.
struct StructArray {
  const transform::FieldMap *Map = nullptr;
  std::vector<ir::Reg> Bases; ///< One base register per group.
  /// Program token tying this array's allocations and accesses
  /// together, so transform::splitArrayOfStructs can rewrite the built
  /// program directly (the closed-loop pipeline). One token per object
  /// name; the profiler never reads it.
  uint32_t Token = 0;
};

/// Emits allocations (group 0 named \p Name, further groups suffixed)
/// for \p Count elements and returns the base registers. Every
/// allocation and every later loadField/storeField through the
/// returned array is annotated with the object's token.
StructArray allocStructArray(ir::ProgramBuilder &B,
                             const transform::FieldMap &Map,
                             const std::string &Name, int64_t Count);

/// Stores the group base addresses to the mailbox at \p MailboxAddr,
/// slots \p FirstSlot... (8 bytes each). Used to hand shared arrays to
/// worker threads, as OpenMP shared variables do.
void publishBases(ir::ProgramBuilder &B, const StructArray &Array,
                  uint64_t MailboxAddr, unsigned FirstSlot);

/// Loads group base addresses back from the mailbox (worker side).
/// \p Name is the object name the publisher allocated under; it binds
/// the worker's accesses to the same token, so the split transform
/// rewrites the worker's accesses along with the allocating function.
StructArray subscribeBases(ir::ProgramBuilder &B,
                           const transform::FieldMap &Map,
                           const std::string &Name, uint64_t MailboxAddr,
                           unsigned FirstSlot);

/// Loads field \p Field of element \p Index. Fields wider than 8 bytes
/// are accessed at \p InnerOffset with \p Size bytes (e.g. NN's char
/// array); scalar fields pass the defaults.
ir::Reg loadField(ir::ProgramBuilder &B, const StructArray &Array,
                  const std::string &Field, ir::Reg Index,
                  uint32_t InnerOffset = 0, uint8_t Size = 0);

/// Stores \p Value into field \p Field of element \p Index.
void storeField(ir::ProgramBuilder &B, const StructArray &Array,
                const std::string &Field, ir::Reg Index, ir::Reg Value,
                uint32_t InnerOffset = 0, uint8_t Size = 0);

} // namespace workloads
} // namespace structslim

#endif // STRUCTSLIM_WORKLOADS_WORKLOAD_H
