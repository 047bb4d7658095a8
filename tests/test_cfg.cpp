/**
 * @file
 * AST → three-address CFG lowering: block structure, terminators,
 * memory instructions and address computation.
 */
#include <gtest/gtest.h>

#include "cfg/lower.h"
#include "test_util.h"

using namespace cash;

namespace {

struct Lowered
{
    Program prog;
    MemoryLayout layout;
    std::unique_ptr<CfgProgram> cfg;
};

Lowered
lower(const std::string& src)
{
    Lowered l{parseProgram(src), {}, nullptr};
    analyzeProgram(l.prog);
    l.layout.build(l.prog);
    l.cfg = lowerProgram(l.prog, l.layout);
    return l;
}

int
countInstr(const CfgFunction& fn, InstrKind kind)
{
    int n = 0;
    for (const auto& b : fn.blocks)
        for (const Instr& i : b->instrs)
            if (i.kind == kind)
                n++;
    return n;
}

TEST(CfgLower, StraightLineSingleBlock)
{
    Lowered l = lower("int f(int a, int b) { return a * b + 1; }");
    CfgFunction* fn = l.cfg->find("f");
    ASSERT_NE(fn, nullptr);
    int real = 0;
    for (const auto& b : fn->blocks)
        if (!b->instrs.empty() ||
            b->term.kind != Terminator::Kind::None)
            real++;
    EXPECT_EQ(real, 1);
    EXPECT_EQ(fn->block(fn->entry)->term.kind,
              Terminator::Kind::Return);
}

TEST(CfgLower, IfElseDiamond)
{
    Lowered l = lower("int f(int x) { int r;"
                      " if (x) r = 1; else r = 2; return r; }");
    CfgFunction* fn = l.cfg->find("f");
    EXPECT_EQ(fn->block(fn->entry)->term.kind,
              Terminator::Kind::CondBranch);
}

TEST(CfgLower, WhileLoopHasBackEdge)
{
    Lowered l = lower("int f(int n) { int i = 0;"
                      " while (i < n) i++; return i; }");
    CfgFunction* fn = l.cfg->find("f");
    bool backEdge = false;
    for (const auto& b : fn->blocks)
        for (int s : b->succs)
            if (s <= b->id)
                backEdge = true;
    EXPECT_TRUE(backEdge);
}

TEST(CfgLower, GlobalLoadStore)
{
    Lowered l = lower("int g; void f(int v) { g = v + g; }");
    CfgFunction* fn = l.cfg->find("f");
    EXPECT_EQ(countInstr(*fn, InstrKind::Load), 1);
    EXPECT_EQ(countInstr(*fn, InstrKind::Store), 1);
}

TEST(CfgLower, RegisterLocalsAvoidMemory)
{
    Lowered l = lower("int f(void) { int a = 1; int b = a + 2;"
                      " return a + b; }");
    CfgFunction* fn = l.cfg->find("f");
    EXPECT_EQ(countInstr(*fn, InstrKind::Load), 0);
    EXPECT_EQ(countInstr(*fn, InstrKind::Store), 0);
}

TEST(CfgLower, CompoundAssignSharesAddress)
{
    // a[i] += 1 must compute the address once: the load and store use
    // the same address register (store-forwarding relies on this).
    Lowered l = lower("int a[8]; void f(int i) { a[i] += 1; }");
    CfgFunction* fn = l.cfg->find("f");
    Operand loadAddr, storeAddr;
    for (const auto& b : fn->blocks) {
        for (const Instr& ins : b->instrs) {
            if (ins.kind == InstrKind::Load)
                loadAddr = ins.addr;
            if (ins.kind == InstrKind::Store)
                storeAddr = ins.addr;
        }
    }
    ASSERT_TRUE(loadAddr.isReg());
    ASSERT_TRUE(storeAddr.isReg());
    EXPECT_EQ(loadAddr.reg, storeAddr.reg);
}

TEST(CfgLower, PointerArithScaledByElementSize)
{
    Lowered l = lower("int f(int* p, int i) { return *(p + i); }");
    CfgFunction* fn = l.cfg->find("f");
    // Expect a multiply by 4 somewhere in the address computation.
    bool mulBy4 = false;
    for (const auto& b : fn->blocks)
        for (const Instr& ins : b->instrs)
            if (ins.kind == InstrKind::Bin && ins.op == Op::Mul &&
                ins.b.isConst() && ins.b.cval == 4)
                mulBy4 = true;
    EXPECT_TRUE(mulBy4);
}

TEST(CfgLower, CharAccessesAreByteSized)
{
    Lowered l = lower("char c[4]; int f(int i) { c[i] = (char)i;"
                      " return c[i]; }");
    CfgFunction* fn = l.cfg->find("f");
    for (const auto& b : fn->blocks) {
        for (const Instr& ins : b->instrs) {
            if (ins.kind == InstrKind::Load) {
                EXPECT_EQ(ins.size, 1);
            }
            if (ins.kind == InstrKind::Store) {
                EXPECT_EQ(ins.size, 1);
            }
        }
    }
}

TEST(CfgLower, GlobalAddressesAreConstants)
{
    Lowered l = lower("int g; int f(void) { return g; }");
    CfgFunction* fn = l.cfg->find("f");
    for (const auto& b : fn->blocks) {
        for (const Instr& ins : b->instrs) {
            if (ins.kind == InstrKind::Load) {
                EXPECT_TRUE(ins.addr.isConst());
            }
        }
    }
}

TEST(CfgLower, FrameLocalsUseFrameBase)
{
    Lowered l = lower("int f(void) { int t[4]; t[1] = 5;"
                      " return t[1]; }");
    CfgFunction* fn = l.cfg->find("f");
    EXPECT_GE(fn->frameBaseReg, 0);
    EXPECT_FALSE(fn->addrSeeds.empty());
}

TEST(CfgLower, ShortCircuitCreatesBranches)
{
    Lowered l = lower("int g(void);"
                      "int g(void) { return 1; }"
                      "int f(int a) { return a && g(); }");
    CfgFunction* fn = l.cfg->find("f");
    int branches = 0;
    for (const auto& b : fn->blocks)
        if (b->term.kind == Terminator::Kind::CondBranch)
            branches++;
    EXPECT_GE(branches, 1);
}

TEST(CfgLower, MemIdsAreDense)
{
    Lowered l = lower("int a[4]; int f(int i)"
                      "{ a[i] = a[i + 1] + a[i + 2]; return a[0]; }");
    CfgFunction* fn = l.cfg->find("f");
    std::vector<bool> seen(fn->numMemOps, false);
    for (const auto& b : fn->blocks) {
        for (const Instr& ins : b->instrs) {
            if (ins.memId >= 0) {
                ASSERT_LT(ins.memId, fn->numMemOps);
                EXPECT_FALSE(seen[ins.memId]);
                seen[ins.memId] = true;
            }
        }
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(CfgLower, UnreachableCodeIsPruned)
{
    Lowered l = lower("int f(void) { return 1; return 2; }");
    CfgFunction* fn = l.cfg->find("f");
    int returns = 0;
    for (const auto& b : fn->blocks)
        if (b->term.kind == Terminator::Kind::Return)
            returns++;
    EXPECT_EQ(returns, 1);
}

TEST(CfgLower, EdgesAreConsistent)
{
    Lowered l = lower("int f(int n) { int s = 0; int i;"
                      " for (i = 0; i < n; i++)"
                      "   if (i & 1) s += i; else s -= i;"
                      " return s; }");
    CfgFunction* fn = l.cfg->find("f");
    for (const auto& b : fn->blocks) {
        for (int s : b->succs) {
            const BasicBlock* succ = fn->block(s);
            EXPECT_NE(std::find(succ->preds.begin(), succ->preds.end(),
                                b->id),
                      succ->preds.end());
        }
    }
}

} // namespace
