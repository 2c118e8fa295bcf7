//===- transform/StructSplitter.cpp ---------------------------*- C++ -*-===//

#include "transform/StructSplitter.h"

#include "transform/FieldMap.h"

#include <map>
#include <set>
#include <vector>

using namespace structslim;
using namespace structslim::transform;
using structslim::ir::Instr;
using structslim::ir::NoReg;
using structslim::ir::Opcode;

std::unique_ptr<ir::Program>
structslim::transform::cloneProgram(const ir::Program &In) {
  auto Out = std::make_unique<ir::Program>();
  // Token table: id 0 is implicit; replicate the rest in order.
  for (uint32_t T = 1; T < In.getNumTokens(); ++T)
    Out->makeToken(In.getTokenName(T));
  for (const auto &F : In.functions()) {
    ir::Function &NewF = Out->addFunction(F->Name, F->NumParams);
    NewF.NumRegs = F->NumRegs;
    for (const auto &BB : F->Blocks) {
      auto NewBB = std::make_unique<ir::BasicBlock>();
      NewBB->Id = BB->Id;
      NewBB->Instrs = BB->Instrs;
      NewBB->Succs = BB->Succs;
      NewF.Blocks.push_back(std::move(NewBB));
    }
  }
  Out->setEntry(In.getEntry());
  Out->reserveIps(In.getIpEnd());
  return Out;
}

namespace {

/// Rewrite state: the program-wide mailbox and per-function group bases.
struct SplitContext {
  const ir::StructLayout &Original;
  const core::SplitPlan &Plan;
  const FieldMap &Map;
  uint32_t Token;
  std::string Error;

  bool fail(const std::string &Message) {
    if (Error.empty())
      Error = Message;
    return false;
  }

  /// Base register of each group, keyed by the group-0 (original)
  /// allocation or subscribed register.
  std::map<ir::Reg, std::vector<ir::Reg>> GroupBases;

  /// The mailbox slot (valid if Publications is not empty) and the IPs
  /// that publish or subscribe the base through it (see findMailbox).
  uint64_t Slot = 0;
  std::set<uint64_t> Publications, Subscriptions;
};

std::set<ir::Reg> allocRegs(const ir::Function &F, uint32_t Token) {
  std::set<ir::Reg> Regs;
  for (const auto &BB : F.Blocks)
    for (const Instr &I : BB->Instrs)
      if (I.Op == Opcode::Alloc && I.Token == Token)
        Regs.insert(I.Dst);
  return Regs;
}

/// Finds a base shared through a constant-address mailbox slot, as
/// OpenMP shared variables hand an array to worker threads: published by
/// an untokened, unindexed 8-byte store of the base to a constant
/// address, subscribed (in any function) by such loads from it. The
/// split uses G consecutive slots from there, as publishBases lays out a
/// split array, so no other constant-address access may touch them, and
/// none may be indexed (its range cannot be bounded).
bool findMailbox(const ir::Program &P, SplitContext &Ctx) {
  std::vector<std::pair<const Instr *, uint64_t>> Others; // With address.
  for (const auto &F : P.functions()) {
    // A constant address register is defined exactly once, by a ConstI.
    std::set<ir::Reg> Defined, AllocRegs = allocRegs(*F, Ctx.Token);
    std::map<ir::Reg, uint64_t> Consts;
    for (const auto &BB : F->Blocks)
      for (const Instr &I : BB->Instrs)
        if (I.Dst != NoReg && Defined.insert(I.Dst).second &&
            I.Op == Opcode::ConstI && I.Dst >= F->NumParams)
          Consts[I.Dst] = static_cast<uint64_t>(I.Imm);
        else if (I.Dst != NoReg)
          Consts.erase(I.Dst);
    for (const auto &BB : F->Blocks)
      for (const Instr &I : BB->Instrs) {
        auto Base = Consts.find(I.A);
        if (!ir::isMemoryOp(I.Op) || Base == Consts.end())
          continue;
        uint64_t Addr = Base->second + static_cast<uint64_t>(I.Disp);
        if (I.Op != Opcode::Store || I.Token != 0 || I.B != NoReg ||
            I.Size != 8 || !AllocRegs.count(I.C)) {
          Others.emplace_back(&I, Addr);
          continue;
        }
        if (!Ctx.Publications.empty() && Ctx.Slot != Addr)
          return Ctx.fail("store at ip " + std::to_string(I.Ip) +
                          ": base published to a second mailbox slot");
        Ctx.Slot = Addr;
        Ctx.Publications.insert(I.Ip);
      }
  }
  if (Ctx.Publications.empty())
    return true;
  uint64_t Span = 8 * uint64_t{Ctx.Map.getNumGroups()};
  for (auto [I, Addr] : Others) {
    if (I->B != NoReg)
      return Ctx.fail("access at ip " + std::to_string(I->Ip) +
                      ": indexed constant-address access beside a mailbox");
    if (I->Op == Opcode::Load && I->Token == 0 && I->Size == 8 &&
        Addr == Ctx.Slot)
      Ctx.Subscriptions.insert(I->Ip);
    else if (Addr - Ctx.Slot < Span || Ctx.Slot - Addr < I->Size) // Overlaps.
      return Ctx.fail("access at ip " + std::to_string(I->Ip) +
                      ": constant-address access overlaps the mailbox");
  }
  return true;
}

/// Safety pass over one function before any rewriting: the base
/// register of every annotated allocation may only ever be used as the
/// base of a token-annotated access or as the operand of Free. Any
/// other use — stored as a value (publishing it to other threads or
/// functions), passed to a callee, returned, copied, or fed into
/// arithmetic — means the pointer escapes the pattern the rewriter
/// understands; and a memory access through the base that lacks the
/// token would keep the original layout after fission, silently
/// reading garbage. Both cases must reject, not miscompile. A mailbox
/// publication (findMailbox) is the one store allowed; a register a
/// subscription loads is held to the same rules, and may not be freed.
bool checkFunction(const ir::Function &F, SplitContext &Ctx) {
  std::set<ir::Reg> AllocRegs = allocRegs(F, Ctx.Token), SubRegs;
  for (const auto &BB : F.Blocks)
    for (const Instr &I : BB->Instrs)
      if (Ctx.Subscriptions.count(I.Ip))
        SubRegs.insert(I.Dst);

  auto Escapes = [&](ir::Reg R) {
    return R != NoReg && (AllocRegs.count(R) || SubRegs.count(R));
  };
  for (const auto &BB : F.Blocks)
    for (const Instr &I : BB->Instrs) {
      if (SubRegs.count(I.Dst) && !Ctx.Subscriptions.count(I.Ip))
        return Ctx.fail("instruction at ip " + std::to_string(I.Ip) +
                        ": redefines a subscribed base pointer");
      if (Ctx.Publications.count(I.Ip))
        continue; // Republished per group by the rewrite.
      if (I.Op == Opcode::Free && AllocRegs.count(I.A))
        continue; // Fissioned by the rewrite.
      if (ir::isMemoryOp(I.Op)) {
        if (I.Token != Ctx.Token && Escapes(I.A))
          return Ctx.fail("access at ip " + std::to_string(I.Ip) +
                          ": unannotated access through a split "
                          "allocation's base pointer");
        // An annotated access may use the base as its base operand
        // only; as index or stored value it escapes like anywhere else.
        if (Escapes(I.B) || Escapes(I.C))
          return Ctx.fail("instruction at ip " + std::to_string(I.Ip) +
                          ": base pointer escapes (stored or used as a "
                          "value)");
        continue;
      }
      if (Escapes(I.A) || Escapes(I.B) || Escapes(I.C))
        return Ctx.fail("instruction at ip " + std::to_string(I.Ip) +
                        ": base pointer escapes (stored or used as a "
                        "value)");
      for (ir::Reg Arg : I.Args)
        if (Escapes(Arg))
          return Ctx.fail("instruction at ip " + std::to_string(I.Ip) +
                          ": base pointer escapes into a call");
    }
  return true;
}

/// Emits mailbox access \p I once per group base in \p Bases, at
/// consecutive 8-byte slots, with \p Operand naming the base.
void emitPerSlot(ir::Program &P, const Instr &I, ir::Reg Instr::*Operand,
                 const std::vector<ir::Reg> &Bases, std::vector<Instr> &Out) {
  for (size_t G = 0; G != Bases.size(); ++G) {
    Instr Slot = I;
    Slot.*Operand = Bases[G];
    Slot.Disp = I.Disp + 8 * static_cast<int64_t>(G);
    Slot.Ip = G == 0 ? I.Ip : P.nextIp();
    Out.push_back(std::move(Slot));
  }
}

/// Rewrites one function in place. Returns false on diagnostics.
bool rewriteFunction(ir::Program &P, ir::Function &F, SplitContext &Ctx) {
  uint64_t S = Ctx.Original.getSize();
  unsigned NumGroups = Ctx.Map.getNumGroups();

  if (!checkFunction(F, Ctx))
    return false;

  // Pass 1: find token-annotated allocations and fission them.
  for (auto &BB : F.Blocks) {
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(BB->Instrs.size());
    for (Instr &I : BB->Instrs) {
      if (Ctx.Subscriptions.count(I.Ip)) {
        std::vector<ir::Reg> &Bases = Ctx.GroupBases[I.Dst];
        for (unsigned G = 0; G != NumGroups; ++G)
          Bases.push_back(G == 0 ? I.Dst : F.NumRegs++);
        emitPerSlot(P, I, &Instr::Dst, Bases, NewInstrs);
        continue;
      }
      if (I.Op != Opcode::Alloc || I.Token != Ctx.Token) {
        NewInstrs.push_back(std::move(I));
        continue;
      }
      // count = sizeBytes / S  (element count of the array)
      ir::Reg SizeReg = I.A;
      ir::Reg CountReg = F.NumRegs++;
      {
        Instr Konst;
        Konst.Op = Opcode::ConstI;
        Konst.Dst = F.NumRegs++;
        Konst.Imm = static_cast<int64_t>(S);
        Konst.Ip = P.nextIp();
        Konst.Line = I.Line;
        Instr Division;
        Division.Op = Opcode::Div;
        Division.Dst = CountReg;
        Division.A = SizeReg;
        Division.B = Konst.Dst;
        Division.Ip = P.nextIp();
        Division.Line = I.Line;
        NewInstrs.push_back(std::move(Konst));
        NewInstrs.push_back(std::move(Division));
      }

      std::vector<ir::Reg> Bases(NumGroups);
      for (unsigned G = 0; G != NumGroups; ++G) {
        // groupSize = count * S_g
        Instr Scale;
        Scale.Op = Opcode::MulI;
        Scale.Dst = F.NumRegs++;
        Scale.A = CountReg;
        Scale.Imm = Ctx.Map.getGroupSize(G);
        Scale.Ip = P.nextIp();
        Scale.Line = I.Line;
        NewInstrs.push_back(Scale);

        Instr NewAlloc;
        NewAlloc.Op = Opcode::Alloc;
        NewAlloc.Dst = G == 0 ? I.Dst : F.NumRegs++;
        NewAlloc.A = Scale.Dst;
        NewAlloc.Sym = I.Sym + Ctx.Map.groupSuffix(G);
        NewAlloc.Token = I.Token;
        NewAlloc.Ip = G == 0 ? I.Ip : P.nextIp();
        NewAlloc.Line = I.Line;
        Bases[G] = NewAlloc.Dst;
        NewInstrs.push_back(std::move(NewAlloc));
      }
      Ctx.GroupBases[I.Dst] = std::move(Bases);
    }
    BB->Instrs = std::move(NewInstrs);
  }

  // Pass 2: retarget annotated memory operations and fission frees.
  for (auto &BB : F.Blocks) {
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(BB->Instrs.size());
    for (Instr &I : BB->Instrs) {
      if (Ctx.Publications.count(I.Ip)) {
        emitPerSlot(P, I, &Instr::C, Ctx.GroupBases[I.C], NewInstrs);
        continue;
      }
      bool IsTokenedMem = ir::isMemoryOp(I.Op) && I.Token == Ctx.Token;
      bool IsTokenedFree =
          I.Op == Opcode::Free && Ctx.GroupBases.count(I.A) != 0;
      if (!IsTokenedMem && !IsTokenedFree) {
        NewInstrs.push_back(std::move(I));
        continue;
      }

      if (IsTokenedFree) {
        const std::vector<ir::Reg> &Bases = Ctx.GroupBases[I.A];
        for (unsigned G = 1; G < NumGroups; ++G) {
          Instr ExtraFree;
          ExtraFree.Op = Opcode::Free;
          ExtraFree.A = Bases[G];
          ExtraFree.Ip = P.nextIp();
          ExtraFree.Line = I.Line;
          NewInstrs.push_back(std::move(ExtraFree));
        }
        NewInstrs.push_back(std::move(I));
        continue;
      }

      auto BasesIt = Ctx.GroupBases.find(I.A);
      if (BasesIt == Ctx.GroupBases.end())
        return Ctx.fail("access at ip " + std::to_string(I.Ip) +
                        ": base register is not a token-annotated "
                        "allocation in this function");
      if (I.Disp < 0 ||
          static_cast<uint64_t>(I.Disp) >= Ctx.Original.getSize())
        return Ctx.fail("access at ip " + std::to_string(I.Ip) +
                        ": displacement outside the structure");
      const ir::FieldDesc *Field =
          Ctx.Original.fieldContaining(static_cast<uint32_t>(I.Disp));
      if (!Field)
        return Ctx.fail("access at ip " + std::to_string(I.Ip) +
                        ": displacement hits structure padding");
      if (I.B != NoReg && I.Scale % S != 0)
        return Ctx.fail("access at ip " + std::to_string(I.Ip) +
                        ": scale is not a multiple of the structure size");

      FieldLoc Loc = Ctx.Map.locate(Field->Name);
      uint32_t Inner = static_cast<uint32_t>(I.Disp) - Field->Offset;
      I.A = BasesIt->second[Loc.Group];
      I.Disp = static_cast<int64_t>(Loc.Offset) + Inner;
      if (I.B != NoReg) {
        uint64_t Multiple = I.Scale / S;
        I.Scale = static_cast<uint32_t>(Multiple *
                                        Ctx.Map.getGroupSize(Loc.Group));
      }
      NewInstrs.push_back(std::move(I));
    }
    BB->Instrs = std::move(NewInstrs);
  }
  return true;
}

} // namespace

std::unique_ptr<ir::Program> structslim::transform::splitArrayOfStructs(
    const ir::Program &In, uint32_t Token, const ir::StructLayout &Original,
    const core::SplitPlan &Plan, std::string *Error) {
  if (Original.getSize() == 0) {
    if (Error)
      *Error = "original structure has zero size";
    return nullptr;
  }
  if (!Plan.isSplit()) {
    if (Error)
      *Error = "split plan keeps the structure whole; nothing to do";
    return nullptr;
  }

  auto Out = cloneProgram(In);
  FieldMap Map(Original, Plan);
  SplitContext Ctx{Original, Plan, Map, Token, {}, {}, 0, {}, {}};
  bool Ok = findMailbox(*Out, Ctx);
  for (auto &F : Out->functions()) {
    Ctx.GroupBases.clear();
    Ok = Ok && rewriteFunction(*Out, *F, Ctx);
  }
  if (!Ok && Error)
    *Error = Ctx.Error;
  return Ok ? std::move(Out) : nullptr;
}
