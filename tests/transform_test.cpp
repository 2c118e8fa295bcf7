//===- tests/transform_test.cpp - FieldMap & StructSplitter ----*- C++ -*-===//

#include "ir/ProgramBuilder.h"
#include "ir/Verifier.h"
#include "runtime/Interpreter.h"
#include "transform/FieldMap.h"
#include "transform/StructSplitter.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

using namespace structslim;
using namespace structslim::transform;
using structslim::ir::NoReg;
using structslim::ir::Reg;

namespace {

ir::StructLayout abcd() {
  ir::StructLayout L("s");
  L.addField("a", 8);
  L.addField("b", 8);
  L.addField("c", 8);
  L.addField("d", 8);
  L.finalize();
  return L;
}

core::SplitPlan acBdPlan() {
  core::SplitPlan Plan;
  Plan.ObjectName = "s";
  Plan.OriginalSize = 32;
  Plan.ClusterOffsets = {{0, 16}, {8, 24}};
  return Plan;
}

} // namespace

// --- FieldMap ---------------------------------------------------------------

TEST(FieldMap, IdentityKeepsOriginalOffsets) {
  ir::StructLayout L = abcd();
  FieldMap Map(L);
  EXPECT_EQ(Map.getNumGroups(), 1u);
  EXPECT_EQ(Map.getGroupSize(0), 32u);
  FieldLoc C = Map.locate("c");
  EXPECT_EQ(C.Group, 0u);
  EXPECT_EQ(C.Offset, 16u);
  EXPECT_EQ(C.Size, 8u);
  EXPECT_EQ(Map.getBytesPerElement(), 32u);
}

TEST(FieldMap, SplitRepacksDensely) {
  ir::StructLayout L = abcd();
  FieldMap Map(L, acBdPlan());
  EXPECT_EQ(Map.getNumGroups(), 2u);
  EXPECT_EQ(Map.getGroupSize(0), 16u);
  EXPECT_EQ(Map.getGroupSize(1), 16u);
  FieldLoc A = Map.locate("a");
  FieldLoc C = Map.locate("c");
  FieldLoc B = Map.locate("b");
  EXPECT_EQ(A.Group, 0u);
  EXPECT_EQ(A.Offset, 0u);
  EXPECT_EQ(C.Group, 0u);
  EXPECT_EQ(C.Offset, 8u); // Re-packed: c moves from 16 to 8.
  EXPECT_EQ(B.Group, 1u);
  EXPECT_EQ(B.Offset, 0u);
  EXPECT_EQ(Map.groupSuffix(0), "");
  EXPECT_EQ(Map.groupSuffix(1), "_1");
}

TEST(FieldMap, GroupLayoutNamesFollowObject) {
  ir::StructLayout L = abcd();
  FieldMap Map(L, acBdPlan());
  EXPECT_EQ(Map.getGroupLayout(0).getName(), "s_0");
  EXPECT_EQ(Map.getGroupLayout(1).getName(), "s_1");
}

TEST(FieldMapDeath, UnknownFieldAborts) {
  ir::StructLayout L = abcd();
  FieldMap Map(L);
  EXPECT_DEATH(Map.locate("nope"), "unknown field");
}

TEST(FieldMapDeath, PlanDroppingFieldAborts) {
  ir::StructLayout L = abcd();
  core::SplitPlan Plan;
  Plan.ObjectName = "s";
  Plan.OriginalSize = 32;
  Plan.ClusterOffsets = {{0, 16}}; // b and d homeless.
  EXPECT_DEATH(FieldMap(L, Plan), "drops field");
}

// --- StructSplitter ------------------------------------------------------------

namespace {

/// The Fig. 1 program: init all fields, sum a+c in one loop, b+d in
/// another; returns the grand total. Token-annotated for the splitter.
struct TokenProgram {
  std::unique_ptr<ir::Program> P;
  uint32_t Token;
};

TokenProgram buildTokenProgram(int64_t N, bool FreeAtEnd = false) {
  TokenProgram T;
  T.P = std::make_unique<ir::Program>();
  T.Token = T.P->makeToken("s");
  ir::Function &F = T.P->addFunction("main", 0);
  ir::ProgramBuilder B(*T.P, F);
  Reg Bytes = B.constI(N * 32);
  Reg Base = B.alloc(Bytes, "s", T.Token);
  B.forLoopI(0, N, 1, [&](Reg I) {
    B.store(I, Base, I, 32, 0, 8, T.Token);
    Reg I2 = B.mulI(I, 2);
    B.store(I2, Base, I, 32, 8, 8, T.Token);
    Reg I3 = B.mulI(I, 3);
    B.store(I3, Base, I, 32, 16, 8, T.Token);
    Reg I4 = B.mulI(I, 4);
    B.store(I4, Base, I, 32, 24, 8, T.Token);
  });
  Reg Acc = B.constI(0);
  B.forLoopI(0, N, 1, [&](Reg I) {
    Reg A = B.load(Base, I, 32, 0, 8, T.Token);
    Reg C = B.load(Base, I, 32, 16, 8, T.Token);
    B.accumulate(Acc, B.add(A, C));
  });
  B.forLoopI(0, N, 1, [&](Reg I) {
    Reg Bv = B.load(Base, I, 32, 8, 8, T.Token);
    Reg D = B.load(Base, I, 32, 24, 8, T.Token);
    B.accumulate(Acc, B.add(Bv, D));
  });
  if (FreeAtEnd)
    B.free(Base);
  B.ret(Acc);
  return T;
}

uint64_t runProgram(const ir::Program &P) {
  EXPECT_EQ(ir::verify(P), "");
  runtime::Machine M;
  cache::MemoryHierarchy H(cache::HierarchyConfig{});
  runtime::Interpreter I(P, M, H, nullptr, 0);
  return I.run(P.getEntry(), {});
}

} // namespace

TEST(CloneProgram, PreservesEverything) {
  TokenProgram T = buildTokenProgram(10);
  auto Clone = cloneProgram(*T.P);
  EXPECT_EQ(Clone->toString(), T.P->toString());
  EXPECT_EQ(Clone->getIpEnd(), T.P->getIpEnd());
  EXPECT_EQ(runProgram(*Clone), runProgram(*T.P));
}

TEST(StructSplitter, PreservesSemantics) {
  TokenProgram T = buildTokenProgram(100);
  ir::StructLayout L = abcd();
  std::string Error;
  auto Split = splitArrayOfStructs(*T.P, T.Token, L, acBdPlan(), &Error);
  ASSERT_NE(Split, nullptr) << Error;
  EXPECT_EQ(ir::verify(*Split), "");
  EXPECT_EQ(runProgram(*Split), runProgram(*T.P));
}

TEST(StructSplitter, FissionsAllocation) {
  TokenProgram T = buildTokenProgram(50);
  ir::StructLayout L = abcd();
  std::string Error;
  auto Split = splitArrayOfStructs(*T.P, T.Token, L, acBdPlan(), &Error);
  ASSERT_NE(Split, nullptr) << Error;
  // Two allocations now exist: "s" and "s_1".
  runtime::Machine M;
  cache::MemoryHierarchy H(cache::HierarchyConfig{});
  runtime::Interpreter I(*Split, M, H, nullptr, 0);
  I.run(Split->getEntry(), {});
  bool SawBase = false, SawSecond = false;
  for (const mem::DataObject &O : M.Objects.all()) {
    SawBase |= O.Name == "s" && O.Size == 50 * 16;
    SawSecond |= O.Name == "s_1" && O.Size == 50 * 16;
  }
  EXPECT_TRUE(SawBase);
  EXPECT_TRUE(SawSecond);
}

TEST(StructSplitter, RewritesScaleAndDisp) {
  TokenProgram T = buildTokenProgram(10);
  ir::StructLayout L = abcd();
  std::string Error;
  auto Split = splitArrayOfStructs(*T.P, T.Token, L, acBdPlan(), &Error);
  ASSERT_NE(Split, nullptr) << Error;
  // Every annotated memory op now has scale 16 and disp in {0, 8}.
  for (const auto &F : Split->functions())
    for (const auto &BB : F->Blocks)
      for (const ir::Instr &I : BB->Instrs) {
        if (!ir::isMemoryOp(I.Op) || I.Token != T.Token)
          continue;
        EXPECT_EQ(I.Scale, 16u);
        EXPECT_TRUE(I.Disp == 0 || I.Disp == 8) << "disp " << I.Disp;
      }
}

TEST(StructSplitter, FreesEveryGroup) {
  TokenProgram T = buildTokenProgram(20, /*FreeAtEnd=*/true);
  ir::StructLayout L = abcd();
  std::string Error;
  auto Split = splitArrayOfStructs(*T.P, T.Token, L, acBdPlan(), &Error);
  ASSERT_NE(Split, nullptr) << Error;
  runtime::Machine M;
  cache::MemoryHierarchy H(cache::HierarchyConfig{});
  runtime::Interpreter I(*Split, M, H, nullptr, 0);
  I.run(Split->getEntry(), {});
  EXPECT_EQ(M.Allocator.getBytesLive(), 0u);
}

TEST(StructSplitter, ThreeWaySplitSemantics) {
  TokenProgram T = buildTokenProgram(64);
  ir::StructLayout L = abcd();
  core::SplitPlan Plan;
  Plan.ObjectName = "s";
  Plan.OriginalSize = 32;
  Plan.ClusterOffsets = {{0}, {8, 16}, {24}};
  std::string Error;
  auto Split = splitArrayOfStructs(*T.P, T.Token, L, Plan, &Error);
  ASSERT_NE(Split, nullptr) << Error;
  EXPECT_EQ(runProgram(*Split), runProgram(*T.P));
}

TEST(StructSplitter, RejectsNonSplitPlan) {
  TokenProgram T = buildTokenProgram(10);
  ir::StructLayout L = abcd();
  core::SplitPlan Plan;
  Plan.ObjectName = "s";
  Plan.OriginalSize = 32;
  Plan.ClusterOffsets = {{0, 8, 16, 24}};
  std::string Error;
  EXPECT_EQ(splitArrayOfStructs(*T.P, T.Token, L, Plan, &Error), nullptr);
  EXPECT_NE(Error.find("nothing to do"), std::string::npos);
}

TEST(StructSplitter, RejectsForeignBaseRegister) {
  // An annotated access whose base was loaded from memory (the worker
  // side of a published pointer): no annotated allocation defines it
  // in this function, so the rewriter has no group bases to retarget
  // the access to.
  ir::Program P;
  uint32_t Token = P.makeToken("s");
  ir::Function &F = P.addFunction("main", 0);
  ir::ProgramBuilder B(P, F);
  Reg Mailbox = B.constI(0x1000);
  Reg Base = B.load(Mailbox, NoReg, 1, 0, 8);
  Reg Zero = B.constI(0);
  B.load(Base, Zero, 32, 0, 8, Token);
  B.ret();
  std::string Before = P.toString();
  std::string Error;
  EXPECT_EQ(splitArrayOfStructs(P, Token, abcd(), acBdPlan(), &Error),
            nullptr);
  EXPECT_NE(Error.find("base register is not a token-annotated allocation"),
            std::string::npos)
      << Error;
  EXPECT_EQ(P.toString(), Before); // Input program untouched.
}

TEST(StructSplitter, RejectsCopiedBasePointer) {
  // Copying the allocation's base register defeats the rewriter: the
  // copy would still point at the old interleaved layout.
  ir::Program P;
  uint32_t Token = P.makeToken("s");
  ir::Function &F = P.addFunction("main", 0);
  ir::ProgramBuilder B(P, F);
  Reg Bytes = B.constI(320);
  Reg Base = B.alloc(Bytes, "s", Token);
  B.move(Base);
  B.ret();
  std::string Before = P.toString();
  std::string Error;
  EXPECT_EQ(splitArrayOfStructs(P, Token, abcd(), acBdPlan(), &Error),
            nullptr);
  EXPECT_NE(Error.find("escapes"), std::string::npos) << Error;
  EXPECT_EQ(P.toString(), Before);
}

namespace {

using MailboxHook =
    std::function<void(ir::ProgramBuilder &B, Reg Base, Reg Mailbox)>;

constexpr int64_t MailboxAddr = 0x1000;

/// The shape the parallel workloads share their array in: main fills
/// the Fig. 1 array, publishes its base to a constant-address mailbox
/// slot and calls a worker, which subscribes to the slot and returns
/// the sum of all four fields. \p MainHook runs after the publication,
/// \p WorkerHook after the subscription (the refusal cases).
TokenProgram buildMailboxProgram(int64_t N, const MailboxHook &MainHook = {},
                                 const MailboxHook &WorkerHook = {}) {
  TokenProgram T;
  T.P = std::make_unique<ir::Program>();
  T.Token = T.P->makeToken("s");
  ir::Function &Worker = T.P->addFunction("worker", 0);
  {
    ir::ProgramBuilder B(*T.P, Worker);
    Reg Mailbox = B.constI(MailboxAddr);
    Reg Base = B.load(Mailbox, NoReg, 1, 0, 8); // Subscribe.
    if (WorkerHook)
      WorkerHook(B, Base, Mailbox);
    Reg Acc = B.constI(0);
    B.forLoopI(0, N, 1, [&](Reg I) {
      for (int64_t Disp : {0, 8, 16, 24})
        B.accumulate(Acc, B.load(Base, I, 32, Disp, 8, T.Token));
    });
    B.ret(Acc);
  }
  ir::Function &Main = T.P->addFunction("main", 0);
  ir::ProgramBuilder B(*T.P, Main);
  Reg Base = B.alloc(B.constI(N * 32), "s", T.Token);
  B.forLoopI(0, N, 1, [&](Reg I) {
    for (int64_t Disp : {0, 8, 16, 24})
      B.store(B.mulI(I, Disp + 1), Base, I, 32, Disp, 8, T.Token);
  });
  Reg Mailbox = B.constI(MailboxAddr);
  B.store(Base, Mailbox, NoReg, 1, 0, 8); // Publish.
  if (MainHook)
    MainHook(B, Base, Mailbox);
  B.ret(B.call(Worker, {}));
  T.P->setEntry(Main.Id);
  return T;
}

/// Untokened 8-byte accesses of \p Op through a ConstI(MailboxAddr)
/// base in function \p Name, as (displacement, register) pairs: the
/// stored value for Store, the loaded register for Load.
std::vector<std::pair<int64_t, Reg>>
mailboxAccesses(ir::Program &P, const std::string &Name, ir::Opcode Op) {
  const ir::Function &F = *P.findFunction(Name);
  std::set<Reg> MailboxRegs;
  std::vector<std::pair<int64_t, Reg>> Out;
  for (const auto &BB : F.Blocks)
    for (const ir::Instr &I : BB->Instrs) {
      if (I.Op == ir::Opcode::ConstI && I.Imm == MailboxAddr)
        MailboxRegs.insert(I.Dst);
      if (I.Op == Op && I.Token == 0 && MailboxRegs.count(I.A))
        Out.emplace_back(I.Disp, Op == ir::Opcode::Store ? I.C : I.Dst);
    }
  return Out;
}

} // namespace

TEST(StructSplitter, SplitsMailboxPublishedBase) {
  // The parallel workloads' pattern: the base crosses functions through
  // a constant-address mailbox slot. Each group's base is published to
  // and subscribed from its own slot, consecutive from the original.
  TokenProgram T = buildMailboxProgram(40);
  ir::StructLayout L = abcd();
  core::SplitPlan ThreeWay = acBdPlan();
  ThreeWay.ClusterOffsets = {{0}, {8, 16}, {24}};
  for (const core::SplitPlan &Plan : {acBdPlan(), ThreeWay}) {
    size_t Groups = Plan.ClusterOffsets.size();
    SCOPED_TRACE(Groups);
    std::string Error;
    auto Split = splitArrayOfStructs(*T.P, T.Token, L, Plan, &Error);
    ASSERT_NE(Split, nullptr) << Error;
    EXPECT_EQ(runProgram(*Split), runProgram(*T.P));

    auto Stores = mailboxAccesses(*Split, "main", ir::Opcode::Store);
    auto Loads = mailboxAccesses(*Split, "worker", ir::Opcode::Load);
    ASSERT_EQ(Stores.size(), Groups);
    ASSERT_EQ(Loads.size(), Groups);
    std::vector<Reg> AllocRegs;
    for (const auto &BB : Split->findFunction("main")->Blocks)
      for (const ir::Instr &I : BB->Instrs)
        if (I.Op == ir::Opcode::Alloc)
          AllocRegs.push_back(I.Dst);
    ASSERT_EQ(AllocRegs.size(), Groups);
    std::set<Reg> Subscribed;
    for (size_t G = 0; G != Groups; ++G) {
      EXPECT_EQ(Stores[G].first, static_cast<int64_t>(8 * G));
      EXPECT_EQ(Stores[G].second, AllocRegs[G]); // Group G's base.
      EXPECT_EQ(Loads[G].first, static_cast<int64_t>(8 * G));
      Subscribed.insert(Loads[G].second);
    }
    EXPECT_EQ(Subscribed.size(), Groups);
  }
}

TEST(StructSplitter, RefusesUnsafeMailboxShapes) {
  struct Case {
    const char *Name;
    MailboxHook Main, Worker;
    const char *Diagnostic;
  } Cases[] = {
      {"base stored at a computed address",
       [](ir::ProgramBuilder &B, Reg Base, Reg Mailbox) {
         B.store(Base, B.addI(Mailbox, 64), NoReg, 1, 0, 8);
       },
       {}, "escapes (stored or used as a value)"},
      {"constant-address access overlapping slot + 8",
       [](ir::ProgramBuilder &B, Reg, Reg Mailbox) {
         B.store(B.constI(7), Mailbox, NoReg, 1, 8, 8);
       },
       {}, "overlaps the mailbox"},
      {"base published to two slots",
       [](ir::ProgramBuilder &B, Reg Base, Reg Mailbox) {
         B.store(Base, Mailbox, NoReg, 1, 32, 8);
       },
       {}, "published to a second mailbox slot"},
      {"indexed constant-address access",
       {},
       [](ir::ProgramBuilder &B, Reg, Reg Mailbox) {
         B.load(Mailbox, B.constI(1), 8, 0, 8);
       },
       "indexed constant-address access"},
      {"subscribed register copied with Move", {},
       [](ir::ProgramBuilder &B, Reg Base, Reg) { B.move(Base); },
       "escapes (stored or used as a value)"},
      {"subscribed register redefined", {},
       [](ir::ProgramBuilder &B, Reg Base, Reg) {
         B.moveInto(Base, B.constI(0));
       },
       "redefines a subscribed base pointer"},
      // An intra-array pointer (base + i * S) stored into a field is a
      // real pointer into the old layout, unlike Health's `forward`,
      // which is an index; the mailbox support must not admit it.
      {"intra-array pointer stored into a field",
       [](ir::ProgramBuilder &B, Reg Base, Reg) {
         uint32_t Token = B.getProgram().findToken("s");
         B.forLoopI(0, 4, 1, [&](Reg I) {
           Reg Ptr = B.add(Base, B.mulI(I, 32));
           B.store(Ptr, Base, I, 32, 24, 8, Token);
         });
       },
       {}, "escapes (stored or used as a value)"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    TokenProgram T = buildMailboxProgram(10, C.Main, C.Worker);
    std::string Before = T.P->toString();
    std::string Error;
    EXPECT_EQ(splitArrayOfStructs(*T.P, T.Token, abcd(), acBdPlan(), &Error),
              nullptr);
    EXPECT_NE(Error.find(C.Diagnostic), std::string::npos) << Error;
    EXPECT_EQ(T.P->toString(), Before);
  }
}

TEST(StructSplitter, RejectsBasePassedToCall) {
  ir::Program P;
  uint32_t Token = P.makeToken("s");
  ir::Function &Callee = P.addFunction("use", 1);
  {
    ir::ProgramBuilder CB(P, Callee);
    CB.ret();
  }
  ir::Function &F = P.addFunction("main", 0);
  ir::ProgramBuilder B(P, F);
  Reg Bytes = B.constI(320);
  Reg Base = B.alloc(Bytes, "s", Token);
  B.call(Callee, {Base});
  B.ret();
  P.setEntry(F.Id);
  std::string Before = P.toString();
  std::string Error;
  EXPECT_EQ(splitArrayOfStructs(P, Token, abcd(), acBdPlan(), &Error),
            nullptr);
  EXPECT_NE(Error.find("escapes into a call"), std::string::npos) << Error;
  EXPECT_EQ(P.toString(), Before);
}

TEST(StructSplitter, RejectsUnannotatedAccessThroughBase) {
  // A plain load through the annotated allocation's base would keep
  // the original 32-byte stride after fission and read garbage.
  ir::Program P;
  uint32_t Token = P.makeToken("s");
  ir::Function &F = P.addFunction("main", 0);
  ir::ProgramBuilder B(P, F);
  Reg Bytes = B.constI(320);
  Reg Base = B.alloc(Bytes, "s", Token);
  Reg Zero = B.constI(0);
  B.load(Base, Zero, 32, 0, 8); // No token.
  B.ret();
  std::string Before = P.toString();
  std::string Error;
  EXPECT_EQ(splitArrayOfStructs(P, Token, abcd(), acBdPlan(), &Error),
            nullptr);
  EXPECT_NE(Error.find("unannotated access"), std::string::npos) << Error;
  EXPECT_EQ(P.toString(), Before);
}

TEST(StructSplitter, RejectsOutOfBoundsDisplacement) {
  ir::Program P;
  uint32_t Token = P.makeToken("s");
  ir::Function &F = P.addFunction("main", 0);
  ir::ProgramBuilder B(P, F);
  Reg Bytes = B.constI(320);
  Reg Base = B.alloc(Bytes, "s", Token);
  Reg Zero = B.constI(0);
  B.load(Base, Zero, 32, 40, 8, Token); // 40 >= sizeof(s) == 32.
  B.ret();
  std::string Before = P.toString();
  std::string Error;
  EXPECT_EQ(splitArrayOfStructs(P, Token, abcd(), acBdPlan(), &Error),
            nullptr);
  EXPECT_NE(Error.find("displacement outside the structure"),
            std::string::npos)
      << Error;
  EXPECT_EQ(P.toString(), Before);
}

TEST(StructSplitter, RejectsZeroSizeLayout) {
  TokenProgram T = buildTokenProgram(10);
  ir::StructLayout Empty("s");
  Empty.finalize();
  std::string Before = T.P->toString();
  std::string Error;
  EXPECT_EQ(splitArrayOfStructs(*T.P, T.Token, Empty, acBdPlan(), &Error),
            nullptr);
  EXPECT_NE(Error.find("zero size"), std::string::npos) << Error;
  EXPECT_EQ(T.P->toString(), Before);
}

TEST(StructSplitter, RejectsMisalignedScale) {
  ir::Program P;
  uint32_t Token = P.makeToken("s");
  ir::Function &F = P.addFunction("main", 0);
  ir::ProgramBuilder B(P, F);
  Reg Bytes = B.constI(320);
  Reg Base = B.alloc(Bytes, "s", Token);
  Reg Zero = B.constI(0);
  B.load(Base, Zero, 24, 0, 8, Token); // 24 is not a multiple of 32.
  B.ret();
  std::string Error;
  EXPECT_EQ(splitArrayOfStructs(P, Token, abcd(), acBdPlan(), &Error),
            nullptr);
  EXPECT_NE(Error.find("multiple of the structure size"),
            std::string::npos);
}

TEST(StructSplitter, RejectsPaddingAccess) {
  ir::StructLayout L("s");
  L.addField("c", 1);
  L.addField("d", 8);
  L.finalize(); // Padding at 1..7.
  ir::Program P;
  uint32_t Token = P.makeToken("s");
  ir::Function &F = P.addFunction("main", 0);
  ir::ProgramBuilder B(P, F);
  Reg Bytes = B.constI(160);
  Reg Base = B.alloc(Bytes, "s", Token);
  Reg Zero = B.constI(0);
  B.load(Base, Zero, 16, 4, 1, Token); // Hits padding.
  B.ret();
  core::SplitPlan Plan;
  Plan.ObjectName = "s";
  Plan.OriginalSize = 16;
  Plan.ClusterOffsets = {{0}, {8}};
  std::string Error;
  EXPECT_EQ(splitArrayOfStructs(P, Token, L, Plan, &Error), nullptr);
  EXPECT_NE(Error.find("padding"), std::string::npos);
}

TEST(StructSplitter, UnannotatedCodeUntouched) {
  TokenProgram T = buildTokenProgram(10);
  // Add a second, unannotated array in the same function.
  ir::Function &F = *T.P->functions()[0];
  (void)F;
  ir::StructLayout L = abcd();
  std::string Error;
  auto Split = splitArrayOfStructs(*T.P, T.Token, L, acBdPlan(), &Error);
  ASSERT_NE(Split, nullptr) << Error;
  // Function and token tables intact.
  EXPECT_EQ(Split->getNumFunctions(), T.P->getNumFunctions());
  EXPECT_EQ(Split->getNumTokens(), T.P->getNumTokens());
}
