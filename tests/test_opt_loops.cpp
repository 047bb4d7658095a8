/**
 * @file
 * Loop-pipelining transformations (§6): read-only splitting, address
 * monotonicity, loop decoupling with token generators.
 */
#include <gtest/gtest.h>

#include "benchsuite/kernels.h"
#include "test_util.h"

using namespace cash;

namespace {

CompileResult
full(const std::string& src)
{
    return compileSource(src, CompileOptions().opt(OptLevel::Full));
}

int
tokengens(const Graph& g)
{
    int n = 0;
    g.forEach([&](Node* node) {
        if (node->kind == NodeKind::TokenGen)
            n++;
    });
    return n;
}

TEST(ReadonlySplit, FiresOnPureReadLoop)
{
    const char* src = "int t[256];"
                      "int f(int n) { int s = 0; int i;"
                      " for (i = 0; i < n; i++) s += t[i];"
                      " return s; }";
    CompileResult r = full(src);
    EXPECT_GE(r.stats.get("opt.readonly_split.loops"), 1);
    testutil::crossCheck(src, "f", {100});
}

TEST(ReadonlySplit, SkipsLoopsWithWrites)
{
    const char* src = "int t[256];"
                      "int f(int n) { int i;"
                      " for (i = 0; i < n; i++) t[i] = t[i] + 1;"
                      " return t[0]; }";
    CompileResult r = full(src);
    EXPECT_EQ(r.stats.get("opt.readonly_split.loops"), 0);
}

TEST(Monotone, FiresOnStreamingStores)
{
    const char* src = "int t[256];"
                      "int f(int n) { int i;"
                      " for (i = 0; i < n; i++) t[i] = i * 2;"
                      " return t[n - 1]; }";
    CompileResult r = full(src);
    EXPECT_GE(r.stats.get("opt.monotone.loops"), 1);
    EXPECT_EQ(testutil::crossCheck(src, "f", {100}), 198u);
}

TEST(Monotone, SkipsDataDependentAddresses)
{
    // hist[data[i]]++ — addresses unknowable, no pipelining.
    const char* src =
        "int data[64]; int hist[16];"
        "int f(int n) { int i;"
        " for (i = 0; i < n; i++) hist[data[i] & 15] += 1;"
        " return hist[0]; }";
    CompileResult r = full(src);
    EXPECT_EQ(r.stats.get("opt.monotone.loops"), 0);
    EXPECT_EQ(r.stats.get("opt.loop_decoupling.loops"), 0);
    testutil::crossCheck(src, "f", {64});
}

TEST(Monotone, SkipsDistanceCarriedDependence)
{
    // b[i+1] written, b[i] read: distance 1 — monotone splitting alone
    // would be wrong; decoupling owns it.
    const char* src = "int b2[256];"
                      "int f(int n) { int i;"
                      " for (i = 0; i + 1 < n; i++)"
                      "   b2[i + 1] = b2[i] + 1;"
                      " return b2[n - 1]; }";
    CompileResult r = full(src);
    EXPECT_EQ(r.stats.get("opt.monotone.loops"), 0);
    EXPECT_GE(r.stats.get("opt.loop_decoupling.loops"), 1);
    EXPECT_EQ(testutil::crossCheck(src, "f", {32}), 31u);
}

TEST(Decoupling, InsertsTokenGeneratorWithDistance)
{
    CompileResult r = full(decouplingExampleSource());
    const Graph* g = r.graph("stencil");
    ASSERT_EQ(tokengens(*g), 1);
    g->forEach([&](Node* n) {
        if (n->kind == NodeKind::TokenGen) {
            EXPECT_EQ(n->tkCount, 3);
        }
    });
}

TEST(Decoupling, PreservesSemanticsAcrossSizes)
{
    for (uint32_t n : {5u, 7u, 16u, 100u, 511u})
        testutil::crossCheck(decouplingExampleSource(), "stencil_run",
                             {n});
}

TEST(Decoupling, SpeedsUpUnderRealisticMemory)
{
    SimResult medium = testutil::simulate(
        decouplingExampleSource(), "stencil_run", {2048},
        OptLevel::Medium, MemConfig::realistic(2));
    SimResult fullr = testutil::simulate(
        decouplingExampleSource(), "stencil_run", {2048},
        OptLevel::Full, MemConfig::realistic(2));
    EXPECT_EQ(medium.returnValue, fullr.returnValue);
    EXPECT_LT(fullr.cycles, medium.cycles);
}

TEST(Decoupling, NegativeDirectionDistance)
{
    // Reading ahead (a[i] = a[i+2]): the store trails the load by 2.
    const char* src = "int a[256];"
                      "int f(int n) { int i;"
                      " for (i = 0; i + 2 < n; i++)"
                      "   a[i] = a[i + 2] + 1;"
                      " return a[0]; }";
    CompileResult r = full(src);
    EXPECT_GE(r.stats.get("opt.ring_split.tokengens"), 1);
    testutil::crossCheck(src, "f", {64});
}

TEST(Figure12, PipelinesBothArrays)
{
    CompileResult r = full(figure12Source());
    // b carries a distance-1 dependence (decoupling), a is a monotone
    // write stream; both rings must split.
    EXPECT_GE(r.stats.get("opt.ring_split.rings"), 2);
    testutil::crossCheck(figure12Source(), "fig12_run", {128});
}

TEST(Pipelining, SaxpySpeedsUpWithMedium)
{
    const Kernel& k = kernelByName("saxpy");
    SimResult none = testutil::simulate(k.source, k.entry, k.args,
                                        OptLevel::None,
                                        MemConfig::realistic(2));
    SimResult medium = testutil::simulate(k.source, k.entry, k.args,
                                          OptLevel::Medium,
                                          MemConfig::realistic(2));
    EXPECT_EQ(none.returnValue, medium.returnValue);
    // Paper: induction-variable pipelining is a dominant win.
    EXPECT_LT(medium.cycles * 2, none.cycles);
}

TEST(Pipelining, RingSplitKeepsExitOrdering)
{
    // Work after the loop must still observe all the loop's stores.
    const char* src =
        "int t[512];"
        "int f(int n) { int i;"
        " for (i = 0; i < n; i++) t[i] = i + 1;"
        " int s = 0;"
        " for (i = 0; i < n; i++) s += t[i];"
        " return s; }";
    for (uint32_t n : {1u, 2u, 63u, 256u})
        testutil::crossCheck(src, "f", {n});
}

TEST(Pipelining, NestedLoopInnerSplits)
{
    // The inner read loop of fir-like code splits even under an outer
    // loop (the ring protocol must survive re-entry).
    const char* src =
        "int sig[128]; int out2[128];"
        "int f(int n) { int i; int j;"
        " for (i = 0; i < n; i++) sig[i] = i;"
        " for (i = 0; i + 4 <= n; i++) {"
        "   int acc = 0;"
        "   for (j = 0; j < 4; j++) acc += sig[i + j];"
        "   out2[i] = acc;"
        " }"
        " int s = 0; for (i = 0; i + 4 <= n; i++) s ^= out2[i];"
        " return s; }";
    CompileResult r = full(src);
    EXPECT_GE(r.stats.get("opt.readonly_split.loops"), 1);
    for (uint32_t n : {4u, 5u, 32u, 100u})
        testutil::crossCheck(src, "f", {n});
}

TEST(Pipelining, CharStrideRespectsAccessSize)
{
    // Byte accesses at stride 1: adjacent iterations touch adjacent
    // bytes; |step| >= size holds exactly, so splitting is legal.
    const char* src =
        "char buf[256];"
        "int f(int n) { int i;"
        " for (i = 0; i < n; i++) buf[i] = (char)i;"
        " int s = 0; for (i = 0; i < n; i++) s += buf[i];"
        " return s; }";
    for (uint32_t n : {16u, 200u})
        testutil::crossCheck(src, "f", {n});
}

} // namespace
