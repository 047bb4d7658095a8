/**
 * @file
 * Points-to analysis, read/write sets, alias oracle and memory
 * partitioning (§3.3, §7.1).
 */
#include <gtest/gtest.h>

#include "analysis/points_to.h"
#include "cfg/lower.h"
#include "test_util.h"

using namespace cash;

namespace {

struct Built
{
    Program prog;
    MemoryLayout layout;
    std::unique_ptr<CfgProgram> cfg;
};

Built
analyze(const std::string& src)
{
    Built b;
    b.prog = parseProgram(src);
    analyzeProgram(b.prog);
    b.layout.build(b.prog);
    b.cfg = lowerProgram(b.prog, b.layout);
    runPointsTo(*b.cfg, b.prog, b.layout);
    return b;
}

std::vector<const Instr*>
memOps(const CfgFunction& fn)
{
    std::vector<const Instr*> out;
    for (const auto& b : fn.blocks)
        for (const Instr& i : b->instrs)
            if (i.kind == InstrKind::Load || i.kind == InstrKind::Store)
                out.push_back(&i);
    return out;
}

TEST(PointsTo, DirectGlobalAccessGetsItsObject)
{
    Built b = analyze("int g; int f(void) { return g; }");
    auto ops = memOps(*b.cfg->find("f"));
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_FALSE(ops[0]->rwSet.isTop());
    EXPECT_TRUE(ops[0]->rwSet.contains(
        b.prog.globals[0]->objectId));
}

TEST(PointsTo, DistinctGlobalsDoNotOverlap)
{
    Built b = analyze("int a[4]; int c[4];"
                      "int f(int i) { a[i] = 1; return c[i]; }");
    auto ops = memOps(*b.cfg->find("f"));
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_FALSE(
        b.cfg->oracle.mayOverlap(ops[0]->rwSet, ops[1]->rwSet));
}

TEST(PointsTo, PointerParamsGetExternalLocations)
{
    Built b = analyze("int f(int* p) { return *p; }");
    auto ops = memOps(*b.cfg->find("f"));
    ASSERT_EQ(ops.size(), 1u);
    ASSERT_FALSE(ops[0]->rwSet.isTop());
    for (int loc : ops[0]->rwSet.locations())
        EXPECT_TRUE(b.cfg->oracle.isExternal(loc));
}

TEST(PointsTo, ExternalsAliasGlobals)
{
    Built b = analyze("int g[4];"
                      "int f(int* p, int i) { g[i] = 1; return *p; }");
    auto ops = memOps(*b.cfg->find("f"));
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_TRUE(
        b.cfg->oracle.mayOverlap(ops[0]->rwSet, ops[1]->rwSet));
}

TEST(PointsTo, TwoExternalsAliasWithoutPragma)
{
    Built b = analyze("void f(int* p, int* q) { *p = *q; }");
    auto ops = memOps(*b.cfg->find("f"));
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_TRUE(
        b.cfg->oracle.mayOverlap(ops[0]->rwSet, ops[1]->rwSet));
}

TEST(PointsTo, PragmaIndependentSeparatesExternals)
{
    Built b = analyze("void f(int* p, int* q) {\n"
                      "#pragma independent p q\n"
                      " *p = *q; }");
    auto ops = memOps(*b.cfg->find("f"));
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_FALSE(
        b.cfg->oracle.mayOverlap(ops[0]->rwSet, ops[1]->rwSet));
}

TEST(PointsTo, PragmaAgainstGlobalArray)
{
    Built b = analyze("int a[8];"
                      "void f(int* p, int i) {\n"
                      "#pragma independent p a\n"
                      " a[i] = *p; }");
    auto ops = memOps(*b.cfg->find("f"));
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_FALSE(
        b.cfg->oracle.mayOverlap(ops[0]->rwSet, ops[1]->rwSet));
}

TEST(PointsTo, PointerArithmeticKeepsProvenance)
{
    Built b = analyze("int a[8];"
                      "int f(int i) { int* p = a; p = p + i;"
                      " return *p; }");
    auto ops = memOps(*b.cfg->find("f"));
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_TRUE(ops[0]->rwSet.contains(
        b.prog.globals[0]->objectId));
}

TEST(PointsTo, LoadedPointerIsTop)
{
    Built b = analyze("int* table[4];"
                      "int f(int i) { int* p = table[i]; return *p; }");
    auto ops = memOps(*b.cfg->find("f"));
    ASSERT_EQ(ops.size(), 2u);
    // Second load dereferences a pointer read from memory.
    EXPECT_TRUE(ops[1]->rwSet.isTop());
}

TEST(PointsTo, FrameObjectsNotAliasedByExternalsUnlessEscaping)
{
    Built b = analyze("int f(int* p) { int t[4]; t[0] = *p;"
                      " return t[0]; }");
    auto ops = memOps(*b.cfg->find("f"));
    // ops: load *p, store t[0], load t[0].
    const Instr* pLoad = ops[0];
    const Instr* tStore = ops[1];
    EXPECT_FALSE(
        b.cfg->oracle.mayOverlap(pLoad->rwSet, tStore->rwSet));
}

TEST(Partitions, DisjointObjectsSeparatePartitions)
{
    Built b = analyze("int a[4]; int c[4];"
                      "void f(int i) { a[i] = 1; c[i] = 2; }");
    PartitionResult parts =
        computePartitions(*b.cfg->find("f"), b.cfg->oracle);
    EXPECT_EQ(parts.numPartitions, 2);
    EXPECT_NE(parts.memOpPartition[0], parts.memOpPartition[1]);
}

TEST(Partitions, AliasingCollapsesPartitions)
{
    Built b = analyze("int a[4];"
                      "void f(int* p, int i) { a[i] = 1; *p = 2; }");
    PartitionResult parts =
        computePartitions(*b.cfg->find("f"), b.cfg->oracle);
    EXPECT_EQ(parts.numPartitions, 1);
}

TEST(Partitions, CallCollapsesEverything)
{
    Built b = analyze("int a[4]; int c[4];"
                      "void g(void) {}"
                      "void f(int i) { a[i] = 1; g(); c[i] = 2; }");
    PartitionResult parts =
        computePartitions(*b.cfg->find("f"), b.cfg->oracle);
    EXPECT_EQ(parts.numPartitions, 1);
}

TEST(Partitions, PragmaKeepsStreamsApart)
{
    Built b = analyze("void f(int* x, int* y, int n) {\n"
                      "#pragma independent x y\n"
                      " int i; for (i = 0; i < n; i++) y[i] = x[i]; }");
    PartitionResult parts =
        computePartitions(*b.cfg->find("f"), b.cfg->oracle);
    EXPECT_EQ(parts.numPartitions, 2);
}

} // namespace
