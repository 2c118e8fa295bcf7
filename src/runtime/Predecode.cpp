//===- runtime/Predecode.cpp ----------------------------------*- C++ -*-===//

#include "runtime/Predecode.h"

#include "support/Error.h"

#include <unordered_map>

using namespace structslim;
using namespace structslim::runtime;

namespace {

POpc basePOpc(ir::Opcode Op) {
  switch (Op) {
  case ir::Opcode::ConstI:
    return POpc::ConstI;
  case ir::Opcode::Move:
    return POpc::Move;
  case ir::Opcode::Add:
    return POpc::Add;
  case ir::Opcode::Sub:
    return POpc::Sub;
  case ir::Opcode::Mul:
    return POpc::Mul;
  case ir::Opcode::Div:
    return POpc::Div;
  case ir::Opcode::Rem:
    return POpc::Rem;
  case ir::Opcode::And:
    return POpc::And;
  case ir::Opcode::Or:
    return POpc::Or;
  case ir::Opcode::Xor:
    return POpc::Xor;
  case ir::Opcode::Shl:
    return POpc::Shl;
  case ir::Opcode::Shr:
    return POpc::Shr;
  case ir::Opcode::AddI:
    return POpc::AddI;
  case ir::Opcode::MulI:
    return POpc::MulI;
  case ir::Opcode::AndI:
    return POpc::AndI;
  case ir::Opcode::CmpLt:
    return POpc::CmpLt;
  case ir::Opcode::CmpLe:
    return POpc::CmpLe;
  case ir::Opcode::CmpEq:
    return POpc::CmpEq;
  case ir::Opcode::CmpNe:
    return POpc::CmpNe;
  case ir::Opcode::Work:
    return POpc::Work;
  case ir::Opcode::Load:
    return POpc::Load;
  case ir::Opcode::Store:
    return POpc::Store;
  case ir::Opcode::Alloc:
    return POpc::Alloc;
  case ir::Opcode::Free:
    return POpc::Free;
  case ir::Opcode::Call:
    return POpc::Call;
  case ir::Opcode::Br:
    return POpc::Br;
  case ir::Opcode::CondBr:
    return POpc::CondBr;
  case ir::Opcode::Ret:
    return POpc::Ret;
  }
  unreachable("unknown opcode");
}

POpc fusedCmpBr(POpc Cmp) {
  switch (Cmp) {
  case POpc::CmpLt:
    return POpc::FusedCmpLtBr;
  case POpc::CmpLe:
    return POpc::FusedCmpLeBr;
  case POpc::CmpEq:
    return POpc::FusedCmpEqBr;
  case POpc::CmpNe:
    return POpc::FusedCmpNeBr;
  default:
    return POpc::NumPOpcs;
  }
}

} // namespace

PredecodedProgram::PredecodedProgram(const ir::Program &Prog) : P(&Prog) {
  Funcs.reserve(Prog.getNumFunctions());
  for (const auto &FPtr : Prog.functions()) {
    const ir::Function &F = *FPtr;
    PFunc PF;
    PF.Id = F.Id;
    PF.NumRegs = F.NumRegs;
    PF.NumParams = F.NumParams;
    PF.Ops.resize(F.countInstructions());

    // Pass 1: flat start index of every block. Fusion keeps the flat
    // slot count unchanged (a fused op occupies the first slot and the
    // intact second half keeps its own), so targets are stable.
    std::unordered_map<uint32_t, uint32_t> BlockStart;
    uint32_t Flat = 0;
    for (const auto &BB : F.Blocks) {
      BlockStart[BB->Id] = Flat;
      Flat += static_cast<uint32_t>(BB->Instrs.size());
    }

    // Pass 2: decode every instruction into its flat slot.
    Flat = 0;
    for (const auto &BB : F.Blocks) {
      for (const ir::Instr &I : BB->Instrs) {
        POp &O = PF.Ops[Flat++];
        O.Op = basePOpc(I.Op);
        O.Size = I.Size;
        O.Dst = I.Dst;
        O.A = I.A;
        O.B = I.B;
        O.C = I.C;
        O.Scale = I.Scale;
        O.Imm = I.Imm;
        O.Disp = I.Disp;
        O.Ip = I.Ip;
        switch (I.Op) {
        case ir::Opcode::Load:
          if (I.B != ir::NoReg)
            O.Op = POpc::LoadX;
          break;
        case ir::Opcode::Store:
          if (I.B != ir::NoReg)
            O.Op = POpc::StoreX;
          break;
        case ir::Opcode::Alloc:
          O.Aux = static_cast<uint32_t>(Anchors.size());
          Anchors.push_back(&I);
          break;
        case ir::Opcode::Call:
          O.Target = I.Callee;
          O.Aux = static_cast<uint32_t>(ArgRegs.size());
          O.ArgsLen = static_cast<uint16_t>(I.Args.size());
          ArgRegs.insert(ArgRegs.end(), I.Args.begin(), I.Args.end());
          break;
        case ir::Opcode::Br:
          O.Target = BlockStart.at(BB->Succs[0]);
          break;
        case ir::Opcode::CondBr:
          O.Target = BlockStart.at(BB->Succs[0]);
          O.Target2 = BlockStart.at(BB->Succs[1]);
          break;
        default:
          break;
        }
      }
    }

    // Pass 3: fuse adjacent pairs within each block. Jump targets are
    // always block starts, so the second element of a pair is never
    // entered sideways; it stays intact in its slot for the
    // quantum-boundary defuse path.
    Flat = 0;
    for (const auto &BB : F.Blocks) {
      uint32_t Begin = Flat;
      uint32_t End = Begin + static_cast<uint32_t>(BB->Instrs.size());
      Flat = End;
      for (uint32_t Idx = Begin; Idx + 1 < End;) {
        POp &First = PF.Ops[Idx];
        const POp &Second = PF.Ops[Idx + 1];
        POpc Fused = POpc::NumPOpcs;
        if (First.Op == POpc::ConstI &&
            (Second.Op == POpc::Store || Second.Op == POpc::StoreX)) {
          POp O = Second;
          O.Op = POpc::FusedConstIStore;
          O.T = First.Dst;
          O.Imm = First.Imm;
          First = O;
          Fused = O.Op;
        } else if (Second.Op == POpc::CondBr &&
                   fusedCmpBr(First.Op) != POpc::NumPOpcs) {
          First.T = First.Dst;
          First.Op = fusedCmpBr(First.Op);
          First.C = Second.A;
          First.Target = Second.Target;
          First.Target2 = Second.Target2;
          Fused = First.Op;
        }
        if (Fused != POpc::NumPOpcs) {
          ++NumFused[static_cast<size_t>(Fused)];
          Idx += 2;
        } else {
          ++Idx;
        }
      }
    }

    // Pass 4: fuse loop latches. A block ending `AddI r,r,imm; Br H`
    // whose header H starts with a fused CmpLt+CondBr becomes one op
    // at the AddI slot carrying the header's fields. The AddI is never
    // part of a pair, and the Br and the header stay intact for the
    // defuse path. A Work just before the AddI gets the five-instruction
    // form; the AddI slot keeps the four-instruction one, which is where
    // a defused Work lands.
    Flat = 0;
    for (const auto &BB : F.Blocks) {
      uint32_t Begin = Flat;
      uint32_t End = Begin + static_cast<uint32_t>(BB->Instrs.size());
      Flat = End;
      if (End - Begin < 2)
        continue;
      POp &Inc = PF.Ops[End - 2];
      const POp &Back = PF.Ops[End - 1];
      if (Inc.Op != POpc::AddI || Inc.Dst != Inc.A || Back.Op != POpc::Br ||
          PF.Ops[Back.Target].Op != POpc::FusedCmpLtBr)
        continue;
      POp Latch = PF.Ops[Back.Target];
      Latch.Op = POpc::FusedLoopLatch;
      Latch.Dst = Inc.Dst;
      Latch.Imm = Inc.Imm;
      Inc = Latch;
      ++NumFused[static_cast<size_t>(POpc::FusedLoopLatch)];
      if (End - Begin >= 3 && PF.Ops[End - 3].Op == POpc::Work) {
        POp &W = PF.Ops[End - 3];
        Latch.Op = POpc::FusedWorkLatch;
        Latch.Disp = W.Imm;
        W = Latch;
        ++NumFused[static_cast<size_t>(POpc::FusedWorkLatch)];
      }
    }

    Funcs.push_back(std::move(PF));
  }
}
