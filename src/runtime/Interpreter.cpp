//===- runtime/Interpreter.cpp --------------------------------*- C++ -*-===//
//
// Two execution cores live here. stepReference() walks ir::Instr
// records through one switch per instruction — it is the semantic
// baseline. stepPredecoded() runs the same programs several-fold
// faster over PredecodedProgram op arrays, a flat frame stack over one
// register arena, and fused ops that retire two (pairs) or four to five
// (loop latches) instructions per dispatch.
//
// Dispatch: each handler ends in `goto *JumpTable[op]` under GCC/Clang
// (a dense switch elsewhere), but GCC 12 at -O2 cross-jumps those
// identical tails into one shared indirect jump, so the build really
// runs a central dispatch loop (2 `jmp *` sites in this function).
// Building with -fno-crossjumping restores per-handler jumps (about
// 40 sites) and measured no gain, so no flag is set. The compiler also
// if-converts a guest branch's `PC = R[c] ? T : F` into a conditional
// move, which makes the next dispatch wait on the compared register.
// That is kept for CondBr and the fused compare-branch pairs, whose
// outcome often depends on data; the fused loop latch instead branches
// on the host with a 0.99 taken hint and dispatches separately on each
// arm, so the host predicts the back edge and runs ahead into the next
// iteration.
//
// Bit-identity contract: both cores make the same memAccess() calls in
// the same order with the same operands, so hierarchy state, PMU
// jitter draws, sample delivery, cycle counts and profiles are
// bit-identical. The one subtlety is a fused op meeting a quantum with
// fewer instructions of budget left than it retires: the fused handler
// then "defuses" — executes only its first instruction and retires
// one — and the next step() lands on the next slot, which holds the
// intact second instruction (or, inside a latch, the shorter latch
// starting there). Quantum-round composition therefore matches the
// reference exactly, which the deterministic round-robin interleave of
// multithreaded phases depends on.
//
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace structslim;
using namespace structslim::runtime;
using structslim::ir::Instr;
using structslim::ir::NoReg;
using structslim::ir::Opcode;

TraceSink::~TraceSink() = default;

void TraceSink::onBlockEnter(uint32_t, uint32_t, uint32_t) {}

Interpreter::Interpreter(const ir::Program &P, Machine &M,
                         cache::MemoryHierarchy &Hierarchy,
                         pmu::PmuModel *Pmu, uint32_t ThreadId,
                         const PredecodedProgram *Shared)
    : P(P), M(M), Hierarchy(Hierarchy), Pmu(Pmu), ThreadId(ThreadId),
      PP(Shared), PageCache(M.Memory) {}

void Interpreter::pushFrame(const ir::Function &F,
                            const std::vector<uint64_t> &Args,
                            ir::Reg ReturnDst) {
  assert(Args.size() == F.NumParams && "argument count mismatch");
  Frame Fr;
  Fr.F = &F;
  Fr.BB = &F.entry();
  Fr.InstrIndex = 0;
  Fr.ReturnDst = ReturnDst;
  Fr.Regs.assign(F.NumRegs, 0);
  for (size_t I = 0; I != Args.size(); ++I)
    Fr.Regs[I] = Args[I];
  Frames.push_back(std::move(Fr));
  if (Tracer)
    Tracer->onBlockEnter(ThreadId, F.Id, F.entry().Id);
}

void Interpreter::start(uint32_t FunctionId,
                        const std::vector<uint64_t> &Args) {
  assert(Frames.empty() && PFrames.empty() && "interpreter already running");
  Started = true;
  if (Core == ExecCore::Reference) {
    pushFrame(P.getFunction(FunctionId), Args, NoReg);
    return;
  }
  if (!PP) {
    OwnedPP = std::make_unique<PredecodedProgram>(P);
    PP = OwnedPP.get();
  }
  const PFunc &F = PP->func(FunctionId);
  assert(Args.size() == F.NumParams && "argument count mismatch");
  size_t Want = std::max<size_t>(F.NumRegs, 256);
  if (RegArena.size() < Want)
    RegArena.resize(Want);
  std::fill_n(RegArena.begin(), F.NumRegs, 0);
  for (size_t N = 0; N != Args.size(); ++N)
    RegArena[N] = Args[N];
  RegTop = F.NumRegs;
  PFrames.push_back({&F, 0, 0, NoReg});
}

void Interpreter::enterBlock(const ir::BasicBlock &BB) {
  Frame &Fr = Frames.back();
  Fr.BB = &BB;
  Fr.InstrIndex = 0;
  if (Tracer)
    Tracer->onBlockEnter(ThreadId, Fr.F->Id, BB.Id);
}

uint64_t Interpreter::memAccess(uint64_t Ip, uint64_t Ea, uint8_t Size,
                                bool IsWrite, uint64_t StoreValue) {
  if (Queue) {
    // Decoupled pipeline: tick the PMU now (the selection is
    // outcome-independent, so this preserves the inline jitter draw
    // order), enqueue the access for deferred simulation, and touch
    // only the functional memory here.
    ++Stats.MemoryAccesses;
    bool Sampled = Pmu && Pmu->tick(IsWrite);
    Queue->noteAccess(QTid, Ip, Ea, Size, IsWrite, Sampled, CallPath);
    if (IsWrite) {
      PageCache.write(Ea, Size, StoreValue);
      return 0;
    }
    return PageCache.read(Ea, Size);
  }

  cache::AccessResult Result = Hierarchy.access(Ea, Size, IsWrite, Ip);
  ++Stats.MemoryAccesses;
  Stats.Cycles += Result.Latency;

  if (Pmu)
    Pmu->onAccess(Ip, Ea, Size, IsWrite, Result);
  if (Tracer)
    Tracer->onAccess(ThreadId, Ip, Ea, Size, IsWrite, Result);

  if (IsWrite) {
    PageCache.write(Ea, Size, StoreValue);
    return 0;
  }
  return PageCache.read(Ea, Size);
}

void Interpreter::doMemoryOp(const Instr &I) {
  Frame &Fr = Frames.back();
  uint64_t Ea = Fr.Regs[I.A] + I.Disp;
  if (I.B != NoReg)
    Ea += Fr.Regs[I.B] * I.Scale;
  if (I.Op == Opcode::Store)
    memAccess(I.Ip, Ea, I.Size, true, Fr.Regs[I.C]);
  else
    Fr.Regs[I.Dst] = memAccess(I.Ip, Ea, I.Size, false, 0);
}

uint64_t Interpreter::doAlloc(uint64_t Ip, uint64_t Size,
                              const std::string &Sym) {
  if (Queue) // The pipeline consumer reads the DataObjectTable at
             // delivery time; drain before mutating it.
    Queue->sync();
  uint64_t Addr = M.Allocator.allocate(Size);
  CallPath.push_back(Ip);
  M.Objects.addHeap(Sym, Addr, Size, CallPath);
  CallPath.pop_back();
  return Addr;
}

void Interpreter::doFree(uint64_t Ip, uint64_t Addr) {
  if (Queue)
    Queue->sync();
  if (!M.Allocator.deallocate(Addr))
    fatalError("invalid free at ip " + std::to_string(Ip));
  M.Objects.release(Addr);
}

void Interpreter::executeOne(const Instr &I) {
  Frame &Fr = Frames.back();
  auto &Regs = Fr.Regs;
  switch (I.Op) {
  case Opcode::ConstI:
    Regs[I.Dst] = static_cast<uint64_t>(I.Imm);
    break;
  case Opcode::Move:
    Regs[I.Dst] = Regs[I.A];
    break;
  case Opcode::Add:
    Regs[I.Dst] = Regs[I.A] + Regs[I.B];
    break;
  case Opcode::Sub:
    Regs[I.Dst] = Regs[I.A] - Regs[I.B];
    break;
  case Opcode::Mul:
    Regs[I.Dst] = Regs[I.A] * Regs[I.B];
    break;
  case Opcode::Div: {
    int64_t D = static_cast<int64_t>(Regs[I.B]);
    if (D == 0)
      fatalError("division by zero at ip " + std::to_string(I.Ip));
    Regs[I.Dst] =
        static_cast<uint64_t>(static_cast<int64_t>(Regs[I.A]) / D);
    break;
  }
  case Opcode::Rem: {
    int64_t D = static_cast<int64_t>(Regs[I.B]);
    if (D == 0)
      fatalError("remainder by zero at ip " + std::to_string(I.Ip));
    Regs[I.Dst] =
        static_cast<uint64_t>(static_cast<int64_t>(Regs[I.A]) % D);
    break;
  }
  case Opcode::And:
    Regs[I.Dst] = Regs[I.A] & Regs[I.B];
    break;
  case Opcode::Or:
    Regs[I.Dst] = Regs[I.A] | Regs[I.B];
    break;
  case Opcode::Xor:
    Regs[I.Dst] = Regs[I.A] ^ Regs[I.B];
    break;
  case Opcode::Shl:
    Regs[I.Dst] = Regs[I.A] << (Regs[I.B] & 63);
    break;
  case Opcode::Shr:
    Regs[I.Dst] = Regs[I.A] >> (Regs[I.B] & 63);
    break;
  case Opcode::AddI:
    Regs[I.Dst] = Regs[I.A] + static_cast<uint64_t>(I.Imm);
    break;
  case Opcode::MulI:
    Regs[I.Dst] = Regs[I.A] * static_cast<uint64_t>(I.Imm);
    break;
  case Opcode::AndI:
    Regs[I.Dst] = Regs[I.A] & static_cast<uint64_t>(I.Imm);
    break;
  case Opcode::CmpLt:
    Regs[I.Dst] = static_cast<int64_t>(Regs[I.A]) <
                  static_cast<int64_t>(Regs[I.B]);
    break;
  case Opcode::CmpLe:
    Regs[I.Dst] = static_cast<int64_t>(Regs[I.A]) <=
                  static_cast<int64_t>(Regs[I.B]);
    break;
  case Opcode::CmpEq:
    Regs[I.Dst] = Regs[I.A] == Regs[I.B];
    break;
  case Opcode::CmpNe:
    Regs[I.Dst] = Regs[I.A] != Regs[I.B];
    break;
  case Opcode::Work:
    Stats.Cycles += static_cast<uint64_t>(I.Imm);
    break;
  case Opcode::Load:
  case Opcode::Store:
    doMemoryOp(I);
    break;
  case Opcode::Alloc:
    Regs[I.Dst] = doAlloc(I.Ip, Regs[I.A], I.Sym);
    break;
  case Opcode::Free:
    doFree(I.Ip, Regs[I.A]);
    break;
  case Opcode::Call: {
    std::vector<uint64_t> Args;
    Args.reserve(I.Args.size());
    for (ir::Reg R : I.Args)
      Args.push_back(Regs[R]);
    ++Fr.InstrIndex; // Resume after the call once the callee returns.
    CallPath.push_back(I.Ip);
    pushFrame(P.getFunction(I.Callee), Args, I.Dst);
    Advanced = true;
    break;
  }
  case Opcode::Br:
    enterBlock(*Fr.F->Blocks[Fr.BB->Succs[0]]);
    Advanced = true;
    break;
  case Opcode::CondBr:
    enterBlock(*Fr.F->Blocks[Fr.BB->Succs[Regs[I.A] != 0 ? 0 : 1]]);
    Advanced = true;
    break;
  case Opcode::Ret: {
    uint64_t Value = I.A == NoReg ? 0 : Regs[I.A];
    ir::Reg Dst = Fr.ReturnDst;
    Frames.pop_back();
    if (!CallPath.empty() && !Frames.empty())
      CallPath.pop_back();
    if (Frames.empty())
      Result = Value;
    else if (Dst != NoReg)
      Frames.back().Regs[Dst] = Value;
    Advanced = true;
    break;
  }
  }
}

bool Interpreter::stepReference(uint64_t MaxInstructions) {
  uint64_t Budget = MaxInstructions;
  while (Budget != 0 && !Frames.empty()) {
    Frame &Fr = Frames.back();
    assert(Fr.InstrIndex < Fr.BB->Instrs.size() &&
           "fell off the end of a block without a terminator");
    const Instr &I = Fr.BB->Instrs[Fr.InstrIndex];
    Advanced = false;
    ++Stats.Instructions;
    ++Stats.Cycles;
    --Budget;
    executeOne(I);
    if (!Advanced)
      ++Frames.back().InstrIndex;
  }
  return !Frames.empty();
}

// X-macro over POpc in declaration order; the jump table and the
// switch fallback are both generated from it so they cannot drift.
#define SS_POPC_LIST(X)                                                        \
  X(ConstI) X(Move) X(Add) X(Sub) X(Mul) X(Div) X(Rem) X(And) X(Or) X(Xor)     \
  X(Shl) X(Shr) X(AddI) X(MulI) X(AndI) X(CmpLt) X(CmpLe) X(CmpEq) X(CmpNe)    \
  X(Work) X(Load) X(LoadX) X(Store) X(StoreX) X(Alloc) X(Free) X(Call)         \
  X(Br) X(CondBr) X(Ret) X(FusedConstIStore) X(FusedCmpLtBr) X(FusedCmpLeBr)  \
  X(FusedCmpEqBr) X(FusedCmpNeBr) X(FusedLoopLatch) X(FusedWorkLatch)

#if defined(__GNUC__) || defined(__clang__)
#define SS_THREADED_DISPATCH 1
#else
#define SS_THREADED_DISPATCH 0
#endif

#if SS_THREADED_DISPATCH
#define SS_DISPATCH()                                                          \
  do {                                                                         \
    if (Budget == 0)                                                           \
      goto out_budget;                                                         \
    goto *JumpTable[static_cast<size_t>(Ops[PC].Op)];                          \
  } while (0)
#else
#define SS_DISPATCH() goto dispatch
#endif

// Retirement only decrements the local budget; the retired-instruction
// count (and its 1-cycle-per-instruction charge) is derived from
// MaxInstructions - Budget in one fold per step() exit, keeping two
// memory increments out of every handler. Handlers that charge extra
// cycles (Work, memAccess latency) still add to Stats.Cycles directly.
#define SS_RETIRE1() (--Budget)
#define SS_RETIRE2() (Budget -= 2)
#define SS_FOLD_RETIRED()                                                      \
  do {                                                                         \
    uint64_t Retired = MaxInstructions - Budget;                               \
    Stats.Instructions += Retired;                                             \
    Stats.Cycles += Retired;                                                   \
  } while (0)

// A loop back edge is taken on all but the last iteration.
#if defined(__has_builtin)
#if __has_builtin(__builtin_expect_with_probability)
#define SS_LIKELY_TAKEN(Cond) __builtin_expect_with_probability((Cond), 1, 0.99)
#endif
#endif
#ifndef SS_LIKELY_TAKEN
#define SS_LIKELY_TAKEN(Cond) (Cond)
#endif

bool Interpreter::stepPredecoded(uint64_t MaxInstructions) {
  if (PFrames.empty())
    return false;
  uint64_t Budget = MaxInstructions;

  // Hot state cached in locals; refreshed on call/return and saved back
  // on every exit path.
  PFrame *Fr = &PFrames.back();
  const POp *Ops = Fr->F->Ops.data();
  uint64_t *R = RegArena.data() + Fr->RegBase;
  uint32_t PC = Fr->PC;

#if SS_THREADED_DISPATCH
#define SS_LABEL_ADDR(Name) &&L_##Name,
  static const void *const JumpTable[] = {SS_POPC_LIST(SS_LABEL_ADDR)};
#undef SS_LABEL_ADDR
  static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) == NumPOpcs,
                "jump table out of sync with POpc");
#endif

  SS_DISPATCH();

#if !SS_THREADED_DISPATCH
dispatch:
  if (Budget == 0)
    goto out_budget;
  switch (Ops[PC].Op) {
#define SS_SWITCH_CASE(Name)                                                   \
  case POpc::Name:                                                             \
    goto L_##Name;
    SS_POPC_LIST(SS_SWITCH_CASE)
#undef SS_SWITCH_CASE
  case POpc::NumPOpcs:
    break;
  }
  unreachable("bad predecoded opcode");
#endif

L_ConstI: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = static_cast<uint64_t>(O.Imm);
  ++PC;
  SS_DISPATCH();
}
L_Move: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A];
  ++PC;
  SS_DISPATCH();
}
L_Add: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] + R[O.B];
  ++PC;
  SS_DISPATCH();
}
L_Sub: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] - R[O.B];
  ++PC;
  SS_DISPATCH();
}
L_Mul: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] * R[O.B];
  ++PC;
  SS_DISPATCH();
}
L_Div: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  int64_t D = static_cast<int64_t>(R[O.B]);
  if (D == 0)
    fatalError("division by zero at ip " + std::to_string(O.Ip));
  R[O.Dst] = static_cast<uint64_t>(static_cast<int64_t>(R[O.A]) / D);
  ++PC;
  SS_DISPATCH();
}
L_Rem: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  int64_t D = static_cast<int64_t>(R[O.B]);
  if (D == 0)
    fatalError("remainder by zero at ip " + std::to_string(O.Ip));
  R[O.Dst] = static_cast<uint64_t>(static_cast<int64_t>(R[O.A]) % D);
  ++PC;
  SS_DISPATCH();
}
L_And: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] & R[O.B];
  ++PC;
  SS_DISPATCH();
}
L_Or: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] | R[O.B];
  ++PC;
  SS_DISPATCH();
}
L_Xor: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] ^ R[O.B];
  ++PC;
  SS_DISPATCH();
}
L_Shl: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] << (R[O.B] & 63);
  ++PC;
  SS_DISPATCH();
}
L_Shr: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] >> (R[O.B] & 63);
  ++PC;
  SS_DISPATCH();
}
L_AddI: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] + static_cast<uint64_t>(O.Imm);
  ++PC;
  SS_DISPATCH();
}
L_MulI: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] * static_cast<uint64_t>(O.Imm);
  ++PC;
  SS_DISPATCH();
}
L_AndI: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] & static_cast<uint64_t>(O.Imm);
  ++PC;
  SS_DISPATCH();
}
L_CmpLt: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = static_cast<int64_t>(R[O.A]) < static_cast<int64_t>(R[O.B]);
  ++PC;
  SS_DISPATCH();
}
L_CmpLe: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = static_cast<int64_t>(R[O.A]) <= static_cast<int64_t>(R[O.B]);
  ++PC;
  SS_DISPATCH();
}
L_CmpEq: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] == R[O.B];
  ++PC;
  SS_DISPATCH();
}
L_CmpNe: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = R[O.A] != R[O.B];
  ++PC;
  SS_DISPATCH();
}
L_Work: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  Stats.Cycles += static_cast<uint64_t>(O.Imm);
  ++PC;
  SS_DISPATCH();
}
L_Load: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = memAccess(O.Ip, R[O.A] + O.Disp, O.Size, false, 0);
  ++PC;
  SS_DISPATCH();
}
L_LoadX: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  uint64_t Ea = R[O.A] + O.Disp + R[O.B] * O.Scale;
  R[O.Dst] = memAccess(O.Ip, Ea, O.Size, false, 0);
  ++PC;
  SS_DISPATCH();
}
L_Store: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  memAccess(O.Ip, R[O.A] + O.Disp, O.Size, true, R[O.C]);
  ++PC;
  SS_DISPATCH();
}
L_StoreX: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  uint64_t Ea = R[O.A] + O.Disp + R[O.B] * O.Scale;
  memAccess(O.Ip, Ea, O.Size, true, R[O.C]);
  ++PC;
  SS_DISPATCH();
}
L_Alloc: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  R[O.Dst] = doAlloc(O.Ip, R[O.A], PP->anchor(O.Aux).Sym);
  ++PC;
  SS_DISPATCH();
}
L_Free: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  doFree(O.Ip, R[O.A]);
  ++PC;
  SS_DISPATCH();
}
L_Call: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  const PFunc &Callee = PP->func(O.Target);
  assert(O.ArgsLen == Callee.NumParams && "argument count mismatch");
  Fr->PC = PC + 1; // Resume after the call once the callee returns.
  CallPath.push_back(O.Ip);
  uint32_t NewBase = RegTop;
  size_t Need = static_cast<size_t>(NewBase) + Callee.NumRegs;
  if (Need > RegArena.size())
    RegArena.resize(std::max<size_t>(RegArena.size() * 2, Need));
  uint64_t *CallerR = RegArena.data() + Fr->RegBase;
  uint64_t *CalleeR = RegArena.data() + NewBase;
  std::fill_n(CalleeR, Callee.NumRegs, 0);
  const uint32_t *ArgRegs = PP->argRegs() + O.Aux;
  for (uint32_t N = 0; N != O.ArgsLen; ++N)
    CalleeR[N] = CallerR[ArgRegs[N]];
  RegTop = NewBase + Callee.NumRegs;
  PFrames.push_back({&Callee, 0, NewBase, O.Dst});
  Fr = &PFrames.back();
  Ops = Callee.Ops.data();
  R = CalleeR;
  PC = 0;
  SS_DISPATCH();
}
L_Br: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  PC = O.Target;
  SS_DISPATCH();
}
L_CondBr: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  PC = R[O.A] != 0 ? O.Target : O.Target2;
  SS_DISPATCH();
}
L_Ret: {
  const POp &O = Ops[PC];
  SS_RETIRE1();
  uint64_t Value = O.A == NoReg ? 0 : R[O.A];
  ir::Reg Dst = Fr->ReturnDst;
  RegTop = Fr->RegBase;
  PFrames.pop_back();
  if (!CallPath.empty() && !PFrames.empty())
    CallPath.pop_back();
  if (PFrames.empty()) {
    Result = Value;
    SS_FOLD_RETIRED();
    return false;
  }
  Fr = &PFrames.back();
  Ops = Fr->F->Ops.data();
  R = RegArena.data() + Fr->RegBase;
  PC = Fr->PC;
  if (Dst != NoReg)
    R[Dst] = Value;
  SS_DISPATCH();
}
L_FusedConstIStore: {
  const POp &O = Ops[PC];
  if (Budget < 2) {
    SS_RETIRE1();
    R[O.T] = static_cast<uint64_t>(O.Imm);
    ++PC;
    SS_DISPATCH();
  }
  SS_RETIRE2();
  R[O.T] = static_cast<uint64_t>(O.Imm);
  uint64_t Ea = R[O.A] + O.Disp;
  if (O.B != NoReg)
    Ea += R[O.B] * O.Scale;
  memAccess(O.Ip, Ea, O.Size, true, R[O.C]);
  PC += 2;
  SS_DISPATCH();
}
L_FusedCmpLtBr: {
  const POp &O = Ops[PC];
  uint64_t V = static_cast<int64_t>(R[O.A]) < static_cast<int64_t>(R[O.B]);
  if (Budget < 2) {
    SS_RETIRE1();
    R[O.T] = V;
    ++PC;
    SS_DISPATCH();
  }
  SS_RETIRE2();
  R[O.T] = V;
  PC = R[O.C] != 0 ? O.Target : O.Target2;
  SS_DISPATCH();
}
L_FusedCmpLeBr: {
  const POp &O = Ops[PC];
  uint64_t V = static_cast<int64_t>(R[O.A]) <= static_cast<int64_t>(R[O.B]);
  if (Budget < 2) {
    SS_RETIRE1();
    R[O.T] = V;
    ++PC;
    SS_DISPATCH();
  }
  SS_RETIRE2();
  R[O.T] = V;
  PC = R[O.C] != 0 ? O.Target : O.Target2;
  SS_DISPATCH();
}
L_FusedCmpEqBr: {
  const POp &O = Ops[PC];
  uint64_t V = R[O.A] == R[O.B];
  if (Budget < 2) {
    SS_RETIRE1();
    R[O.T] = V;
    ++PC;
    SS_DISPATCH();
  }
  SS_RETIRE2();
  R[O.T] = V;
  PC = R[O.C] != 0 ? O.Target : O.Target2;
  SS_DISPATCH();
}
L_FusedCmpNeBr: {
  const POp &O = Ops[PC];
  uint64_t V = R[O.A] != R[O.B];
  if (Budget < 2) {
    SS_RETIRE1();
    R[O.T] = V;
    ++PC;
    SS_DISPATCH();
  }
  SS_RETIRE2();
  R[O.T] = V;
  PC = R[O.C] != 0 ? O.Target : O.Target2;
  SS_DISPATCH();
}
L_FusedWorkLatch: {
  const POp &O = Ops[PC];
  Stats.Cycles += static_cast<uint64_t>(O.Disp);
  if (Budget < 5) {
    // Quantum boundary inside the latch: retire only the Work and land
    // on the AddI slot's four-instruction latch.
    SS_RETIRE1();
    ++PC;
    SS_DISPATCH();
  }
  Budget -= 5;
  goto latch_body;
}
L_FusedLoopLatch: {
  if (Budget < 4) {
    // Retire only the AddI and land on the intact Br.
    const POp &O = Ops[PC];
    SS_RETIRE1();
    R[O.Dst] += static_cast<uint64_t>(O.Imm);
    ++PC;
    SS_DISPATCH();
  }
  Budget -= 4;
latch_body:
  const POp &O = Ops[PC];
  R[O.Dst] += static_cast<uint64_t>(O.Imm);
  R[O.T] = static_cast<int64_t>(R[O.A]) < static_cast<int64_t>(R[O.B]);
  // A real, predicted host branch rather than the conditional move the
  // compiler picks for the generic CondBr: the back edge is taken on
  // all but the last iteration, so the host runs ahead into the next
  // iteration instead of waiting on the compare.
  if (SS_LIKELY_TAKEN(R[O.C] != 0)) {
    PC = O.Target;
    SS_DISPATCH();
  }
  PC = O.Target2;
  SS_DISPATCH();
}

out_budget:
  Fr->PC = PC;
  SS_FOLD_RETIRED();
  return true;
}

bool Interpreter::step(uint64_t MaxInstructions) {
  assert(Started && "step() before start()");
  return Core == ExecCore::Predecoded ? stepPredecoded(MaxInstructions)
                                      : stepReference(MaxInstructions);
}

uint64_t Interpreter::run(uint32_t FunctionId,
                          const std::vector<uint64_t> &Args,
                          uint64_t InstructionBudget) {
  start(FunctionId, Args);
  while (step(1 << 20)) {
    if (Stats.Instructions > InstructionBudget)
      fatalError("instruction budget exhausted; runaway program?");
  }
  return Result;
}
