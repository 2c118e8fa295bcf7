//===- runtime/Interpreter.h - IR execution engine --------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one logical thread of an IR program over the shared Machine
/// state, driving the cache hierarchy on every memory access and
/// feeding the PMU model (and, optionally, an instrumentation
/// TraceSink). Supports incremental stepping so the ThreadedRuntime can
/// interleave threads deterministically.
///
/// Two execution cores produce bit-identical results:
///
///  - the *predecoded* core (default) runs PredecodedProgram op arrays
///    with fused pairs and loop latches, a contiguous register arena +
///    flat frame stack (no allocation on call/return), and a
///    per-interpreter page-pointer cache in front of SimMemory;
///  - the *reference* core walks the ir::Instr records directly, one
///    switch per instruction. It is the semantic baseline for the
///    differential tests and the only core that can feed a TraceSink
///    (which needs block-entry events the predecoded core elides), so
///    attaching a tracer forces it.
///
/// Cost model: every instruction retires in 1 cycle plus, for memory
/// operations, the hierarchy latency of the access. This is the
/// simulated-time basis for all speedup measurements.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_RUNTIME_INTERPRETER_H
#define STRUCTSLIM_RUNTIME_INTERPRETER_H

#include "cache/Hierarchy.h"
#include "ir/Program.h"
#include "mem/SimMemory.h"
#include "pmu/AddressSampling.h"
#include "runtime/AccessQueue.h"
#include "runtime/Machine.h"
#include "runtime/Predecode.h"
#include "runtime/ProfileBuilder.h"
#include "runtime/TraceSink.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace structslim {
namespace runtime {

/// Execution counters for one thread.
struct RunStats {
  uint64_t Instructions = 0;
  uint64_t MemoryAccesses = 0;
  uint64_t Cycles = 0;
};

/// Which execution core an Interpreter runs.
enum class ExecCore : uint8_t {
  Predecoded, ///< dispatch over predecoded op arrays (default)
  Reference,  ///< direct ir::Instr walk (differential baseline, tracing)
};

/// One logical thread executing a Program.
class Interpreter : public CallPathProvider {
public:
  /// \p Pmu may be null (no sampling hardware armed). \p Shared, when
  /// non-null, is a predecoded image of \p P built by the caller (the
  /// runtime shares one across all threads of a phase); otherwise the
  /// interpreter predecodes lazily on first start().
  Interpreter(const ir::Program &P, Machine &M,
              cache::MemoryHierarchy &Hierarchy, pmu::PmuModel *Pmu,
              uint32_t ThreadId,
              const PredecodedProgram *Shared = nullptr);

  /// Attaches an instrumentation sink seeing every access (baselines).
  /// Forces the reference core: tracers consume block-entry events the
  /// predecoded core does not generate.
  void setTracer(TraceSink *Tracer) {
    this->Tracer = Tracer;
    if (Tracer)
      Core = ExecCore::Reference;
  }

  /// Selects the execution core. Must be called before start().
  void setExecCore(ExecCore C) { Core = C; }
  ExecCore getExecCore() const { return Core; }

  /// Begins execution of \p FunctionId with \p Args.
  void start(uint32_t FunctionId, const std::vector<uint64_t> &Args);

  /// Executes at most \p MaxInstructions more instructions. Returns
  /// false once the top-level function has returned.
  bool step(uint64_t MaxInstructions);

  /// Runs \p FunctionId to completion and returns its result
  /// (0 for void). Aborts after \p InstructionBudget instructions to
  /// catch runaway programs.
  uint64_t run(uint32_t FunctionId, const std::vector<uint64_t> &Args,
               uint64_t InstructionBudget = 1ull << 33);

  bool isDone() const { return Started && Frames.empty() && PFrames.empty(); }
  uint64_t getResult() const { return Result; }
  const RunStats &getStats() const { return Stats; }
  uint32_t getThreadId() const { return ThreadId; }

  /// Attaches (or, with null, detaches) the decoupled sample pipeline:
  /// memory accesses append records tagged with phase-local index
  /// \p Tid to \p Q instead of driving the hierarchy and PMU delivery
  /// inline (the PMU period counter still ticks here, preserving the
  /// jitter draw order). The serializing Alloc/Free opcodes sync the
  /// queue first, so delivery-time DataObjectTable lookups observe the
  /// serial schedule's state. Mutually exclusive with a TraceSink.
  void setAccessQueue(AccessQueue *Q, uint8_t Tid) {
    Queue = Q;
    QTid = Tid;
  }

  /// Call-site IPs of the active frames, outermost first (the stack
  /// walk a PMU interrupt handler performs).
  const std::vector<uint64_t> &currentCallPath() const override {
    return CallPath;
  }

private:
  // Reference-core frame: block-structured, own register vector.
  struct Frame {
    const ir::Function *F = nullptr;
    const ir::BasicBlock *BB = nullptr;
    size_t InstrIndex = 0;
    ir::Reg ReturnDst = ir::NoReg;
    std::vector<uint64_t> Regs;
  };

  // Predecoded-core frame: registers live at RegArena[RegBase ...].
  struct PFrame {
    const PFunc *F = nullptr;
    uint32_t PC = 0;
    uint32_t RegBase = 0;
    ir::Reg ReturnDst = ir::NoReg;
  };

  bool stepReference(uint64_t MaxInstructions);
  bool stepPredecoded(uint64_t MaxInstructions);
  void executeOne(const ir::Instr &I);
  void doMemoryOp(const ir::Instr &I);

  /// Shared memory-access path of both cores: hierarchy + PMU + tracer
  /// + simulated memory, or the access queue when attached. Returns
  /// the loaded value (0 for writes).
  uint64_t memAccess(uint64_t Ip, uint64_t Ea, uint8_t Size, bool IsWrite,
                     uint64_t StoreValue);
  uint64_t doAlloc(uint64_t Ip, uint64_t Size, const std::string &Sym);
  void doFree(uint64_t Ip, uint64_t Addr);
  void enterBlock(const ir::BasicBlock &BB);
  void pushFrame(const ir::Function &F, const std::vector<uint64_t> &Args,
                 ir::Reg ReturnDst);

  const ir::Program &P;
  Machine &M;
  cache::MemoryHierarchy &Hierarchy;
  pmu::PmuModel *Pmu;
  TraceSink *Tracer = nullptr;
  AccessQueue *Queue = nullptr;
  uint8_t QTid = 0;
  uint32_t ThreadId;
  ExecCore Core = ExecCore::Predecoded;

  const PredecodedProgram *PP = nullptr;     ///< shared or owned image
  std::unique_ptr<PredecodedProgram> OwnedPP;
  std::vector<PFrame> PFrames;
  std::vector<uint64_t> RegArena; ///< all live frames' registers
  uint32_t RegTop = 0;            ///< first free arena slot

  mem::PageAccessCache PageCache;

  std::vector<Frame> Frames;
  std::vector<uint64_t> CallPath; ///< Call-site IPs, outermost first.
  RunStats Stats;
  uint64_t Result = 0;
  bool Started = false;
  bool Advanced = false; ///< Set by control flow within executeOne.
};

} // namespace runtime
} // namespace structslim

#endif // STRUCTSLIM_RUNTIME_INTERPRETER_H
