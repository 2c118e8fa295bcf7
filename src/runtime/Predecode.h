//===- runtime/Predecode.h - Predecoded op arrays --------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Predecoding of ir::Function into dense, execution-ready op arrays.
/// The interpreter's hot loop pays for the IR's flexibility on every
/// instruction: a switch over ir::Instr records scattered across
/// heap-allocated blocks, branch targets resolved through block-id
/// indirection, and a base+index addressing decision re-made per
/// access. Predecoding does all of that once per function:
///
///  - blocks are flattened into one contiguous POp array per function,
///    with Br/CondBr targets resolved to flat op indices;
///  - plain and indexed memory ops get distinct opcodes so the hot
///    path never tests B == NoReg;
///  - ConstI+Store and Cmp*+CondBr pairs are fused into single ops
///    that retire two instructions. The second half of every fused
///    pair is kept intact at its original slot, so a pair that
///    straddles a quantum boundary can execute its first half alone
///    and land on the untouched second op — this keeps quantum-round
///    composition (and therefore shared-cache access order under the
///    serial-interleaved reference) bit-identical;
///  - the canonical loop back edge — a block ending `AddI r,r,imm; Br H`
///    whose header H is `CmpLt; CondBr` — becomes one FusedLoopLatch
///    op at the AddI slot that retires all four instructions; a Work
///    just before that AddI gets the five-instruction FusedWorkLatch.
///    The Br and the header stay intact in their slots, and a latch
///    that meets a quantum boundary defuses to its first instruction
///    the same way a pair does.
///
/// A pair is fused only if the workload programs execute it: AddI+Load,
/// ConstI+shift and Xor+ALU pairs have zero dynamic hits on all of
/// them, so they are not fused.
///
/// A PredecodedProgram borrows the ir::Program it was built from (for
/// Alloc symbol names and Call argument lists) and must not outlive it
/// or survive mutation of it.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_RUNTIME_PREDECODE_H
#define STRUCTSLIM_RUNTIME_PREDECODE_H

#include "ir/Program.h"

#include <array>
#include <cstdint>
#include <vector>

namespace structslim {
namespace runtime {

/// Predecoded opcodes. The leading block mirrors ir::Opcode one-to-one;
/// the tail adds the split memory forms, the fused pairs and the fused
/// loop latches.
enum class POpc : uint8_t {
  ConstI,
  Move,
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  AddI,
  MulI,
  AndI,
  CmpLt,
  CmpLe,
  CmpEq,
  CmpNe,
  Work,
  Load,    ///< no index register: Ea = A + Disp
  LoadX,   ///< indexed: Ea = A + B*Scale + Disp
  Store,   ///< no index register
  StoreX,  ///< indexed
  Alloc,
  Free,
  Call,
  Br,
  CondBr,
  Ret,
  // Fused pairs. T/C/Imm carry the first half; the rest is the second.
  FusedConstIStore,///< R[T] = Imm; then Store/StoreX fields
  FusedCmpLtBr,    ///< R[T] = (A < B signed); branch on R[C]
  FusedCmpLeBr,
  FusedCmpEqBr,
  FusedCmpNeBr,
  // Loop latches: the header's FusedCmpLtBr fields (T/A/B/C/Target/
  // Target2) plus the increment R[Dst] += Imm; the Work form also
  // charges Disp cycles first.
  FusedLoopLatch,  ///< AddI; Br; CmpLt; CondBr (4 instructions)
  FusedWorkLatch,  ///< Work; AddI; Br; CmpLt; CondBr (5 instructions)
  NumPOpcs
};

inline constexpr size_t NumPOpcs = static_cast<size_t>(POpc::NumPOpcs);

/// One predecoded op. 64 bytes, stored contiguously per function.
struct POp {
  POpc Op = POpc::ConstI;
  uint8_t Size = 8;      ///< memory access size in bytes
  uint16_t ArgsLen = 0;  ///< Call: argument count
  uint32_t Dst = ir::NoReg;
  uint32_t A = ir::NoReg;
  uint32_t B = ir::NoReg;
  uint32_t C = ir::NoReg;
  uint32_t T = ir::NoReg; ///< fused pairs: first half's destination
  uint32_t Scale = 1;
  uint32_t Target = 0;   ///< Br/CondBr(+fused): taken flat index; Call: callee
  uint32_t Target2 = 0;  ///< CondBr(+fused): fall-through flat index
  uint32_t Aux = 0;      ///< Call: ArgRegs offset; Alloc: anchor index
  int64_t Imm = 0;
  int64_t Disp = 0;      ///< memory ops: displacement; FusedWorkLatch: cycles
  uint64_t Ip = 0;
};

static_assert(sizeof(POp) <= 64, "POp must stay within one cache line");

/// One predecoded function: a flat op array plus frame metadata.
struct PFunc {
  uint32_t Id = 0;
  uint32_t NumRegs = 0;
  uint32_t NumParams = 0;
  std::vector<POp> Ops;
};

/// All functions of a program, predecoded. Build once per phase and
/// share across interpreter threads (immutable after construction).
class PredecodedProgram {
public:
  explicit PredecodedProgram(const ir::Program &P);

  const ir::Program &program() const { return *P; }
  const PFunc &func(uint32_t Id) const { return Funcs[Id]; }

  /// Flattened Call argument registers; a Call op's Aux/ArgsLen slice
  /// into this.
  const uint32_t *argRegs() const { return ArgRegs.data(); }

  /// Original Alloc instructions (for their Sym names), indexed by an
  /// Alloc op's Aux field.
  const ir::Instr &anchor(uint32_t Index) const { return *Anchors[Index]; }

  /// Number of slots predecoded to the fused opcode \p Kind across all
  /// functions (zero for unfused opcodes). Static counts: how often
  /// each fusion applies in the code, not how often it executes.
  size_t getNumFused(POpc Kind) const {
    return NumFused[static_cast<size_t>(Kind)];
  }

private:
  const ir::Program *P;
  std::vector<PFunc> Funcs;
  std::vector<uint32_t> ArgRegs;
  std::vector<const ir::Instr *> Anchors;
  std::array<size_t, NumPOpcs> NumFused{};
};

} // namespace runtime
} // namespace structslim

#endif // STRUCTSLIM_RUNTIME_PREDECODE_H
