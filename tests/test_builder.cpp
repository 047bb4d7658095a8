/**
 * @file
 * Pegasus construction (§3): node/edge structure of built graphs —
 * predication, muxes, merge/eta rings, token wiring, transitive
 * reduction at construction, control merges and mu-deciders.
 */
#include <gtest/gtest.h>

#include "opt/opt_util.h"
#include "pegasus/verifier.h"
#include "test_util.h"

using namespace cash;

namespace {

CompileResult
buildOnly(const std::string& src, OptLevel level = OptLevel::None)
{
    return compileSource(src, CompileOptions().opt(level));
}

int
count(const Graph& g, NodeKind k)
{
    int n = 0;
    g.forEach([&](Node* node) {
        if (node->kind == k)
            n++;
    });
    return n;
}

TEST(Builder, GraphsVerifyAfterConstruction)
{
    CompileResult r = buildOnly(
        "int a[8];"
        "int f(int n) { int s = 0; int i;"
        " for (i = 0; i < n; i++) { if (i & 1) a[i] = i; s += i; }"
        " return s + a[0]; }");
    for (const auto& g : r.graphs)
        EXPECT_TRUE(verifyGraph(*g).empty());
}

TEST(Builder, ParamsAndInitialToken)
{
    CompileResult r = buildOnly("int f(int a, int b) { return a + b; }");
    const Graph* g = r.graph("f");
    EXPECT_EQ(g->numParams, 2);
    EXPECT_EQ(g->paramNodes.size(), 2u);
    ASSERT_NE(g->initialToken, nullptr);
    EXPECT_EQ(g->returnNodes.size(), 1u);
}

TEST(Builder, IfJoinMakesDecodedMux)
{
    CompileResult r = buildOnly(
        "int f(int x, int a, int b)"
        "{ int s; if (x) s = a * 2; else s = b * 3; return s; }");
    const Graph* g = r.graph("f");
    EXPECT_GE(count(*g, NodeKind::Mux), 1);
    // Decoded mux: even arity, pred/data pairs.
    g->forEach([&](Node* n) {
        if (n->kind == NodeKind::Mux) {
            EXPECT_EQ(n->numInputs() % 2, 0);
        }
    });
}

TEST(Builder, LoopMakesMergeEtaRing)
{
    CompileResult r = buildOnly(
        "int f(int n) { int i = 0; while (i < n) i++; return i; }");
    const Graph* g = r.graph("f");
    // At least: control merge, i merge, n merge, token ring merge.
    EXPECT_GE(count(*g, NodeKind::Merge), 3);
    EXPECT_GE(count(*g, NodeKind::Eta), 3);
    // Every back-edged merge carries a decider.
    g->forEach([&](Node* n) {
        if (n->kind != NodeKind::Merge)
            return;
        bool back = false;
        for (int i = 0; i < n->numInputs(); i++)
            if (i != n->deciderIndex && n->inputIsBackEdge(i))
                back = true;
        if (back) {
            EXPECT_GE(n->deciderIndex, 0) << n->str();
        }
    });
}

TEST(Builder, MemoryOpsHavePredTokenInputs)
{
    CompileResult r = buildOnly("int g; void f(int v) { g = v + g; }");
    r.graph("f")->forEach([&](Node* n) {
        if (n->kind == NodeKind::Load) {
            EXPECT_EQ(n->numInputs(), 3);
            EXPECT_EQ(n->input(1).node->outputType(n->input(1).port),
                      VT::Token);
        }
        if (n->kind == NodeKind::Store) {
            EXPECT_EQ(n->numInputs(), 4);
        }
    });
}

TEST(Builder, ProgramOrderChainAtCoarseLevel)
{
    // With points-to off, conflicting accesses chain in program order:
    // the store's token sources include the preceding load.
    CompileOptions co = CompileOptions().opt(OptLevel::None);
    CompileResult r = compileSource(
        "int a[4]; void f(int i) { int t = a[i]; a[i + 1] = t; }", co);
    const Graph* g = r.graph("f");
    const Node* load = nullptr;
    const Node* store = nullptr;
    g->forEach([&](Node* n) {
        if (n->kind == NodeKind::Load)
            load = n;
        if (n->kind == NodeKind::Store)
            store = n;
    });
    ASSERT_NE(load, nullptr);
    ASSERT_NE(store, nullptr);
    std::vector<PortRef> srcs =
        optutil::expandTokenSources(store->input(1));
    bool viaLoad = false;
    for (const PortRef& s : srcs)
        if (s.node == load)
            viaLoad = true;
    EXPECT_TRUE(viaLoad);
}

TEST(Builder, ReadsAreNotSequentialized)
{
    // Figure 4: two reads commute — neither takes the other's token.
    CompileResult r = buildOnly(
        "int b[4]; int f(int* p, int i) { return b[i] + *p; }");
    const Graph* g = r.graph("f");
    std::vector<const Node*> loads;
    g->forEach([&](Node* n) {
        if (n->kind == NodeKind::Load)
            loads.push_back(n);
    });
    ASSERT_EQ(loads.size(), 2u);
    for (const Node* a : loads) {
        for (const PortRef& s :
             optutil::expandTokenSources(a->input(1)))
            EXPECT_NE(s.node, a == loads[0] ? loads[1] : loads[0]);
    }
}

TEST(Builder, DisjointArraysSeparateRingsAtMedium)
{
    // Figure 6: with read/write sets, accesses to disjoint arrays need
    // no mutual token edges.
    CompileOptions co = CompileOptions().opt(OptLevel::Medium);
    CompileResult r = compileSource(
        "int a[4]; int b2[4];"
        "void f(int i) { a[i] = 1; b2[i] = 2; }",
        co);
    const Graph* g = r.graph("f");
    EXPECT_EQ(g->numPartitions, 2);
    std::vector<const Node*> stores;
    g->forEach([&](Node* n) {
        if (n->kind == NodeKind::Store)
            stores.push_back(n);
    });
    ASSERT_EQ(stores.size(), 2u);
    EXPECT_NE(stores[0]->partition, stores[1]->partition);
    for (const Node* s : stores)
        for (const PortRef& src :
             optutil::expandTokenSources(s->input(1)))
            EXPECT_NE(src.node, s == stores[0] ? stores[1] : stores[0]);
}

TEST(Builder, ReturnCollectsAllPartitions)
{
    CompileResult r = buildOnly(
        "int a[4]; int b2[4];"
        "int f(int i) { a[i] = 1; b2[i] = 2; return i; }",
        OptLevel::Medium);
    const Graph* g = r.graph("f");
    ASSERT_EQ(g->returnNodes.size(), 1u);
    const Node* ret = g->returnNodes[0];
    std::vector<PortRef> srcs =
        optutil::expandTokenSources(ret->input(1));
    // Both stores must be ordered before the return.
    int storeSrcs = 0;
    for (const PortRef& s : srcs)
        if (s.node->kind == NodeKind::Store)
            storeSrcs++;
    EXPECT_EQ(storeSrcs, 2);
}

TEST(Builder, TransitiveReductionAtConstruction)
{
    // st a[i]; ld a[i]; st a[i]: the second store's direct sources
    // must be the load only (the first store is implied).
    CompileResult r = buildOnly(
        "int a[4]; int f(int i)"
        "{ a[i] = 1; int t = a[i]; a[i] = t + 1; return t; }",
        OptLevel::Medium);
    const Graph* g = r.graph("f");
    std::vector<const Node*> stores;
    g->forEach([&](Node* n) {
        if (n->kind == NodeKind::Store)
            stores.push_back(n);
    });
    ASSERT_EQ(stores.size(), 2u);
    std::vector<PortRef> srcs =
        optutil::expandTokenSources(stores[1]->input(1));
    for (const PortRef& s : srcs)
        EXPECT_NE(s.node, stores[0]);
}

TEST(Builder, ControlMergesGiveConstOnlyBlocksATrigger)
{
    // The break block computes only constants; the control merge must
    // still deliver its value (regression for the strsearch deadlock).
    uint32_t v = testutil::crossCheck(
        "int f(int n) { int ok = 1; int i;"
        " for (i = 0; i < n; i++) {"
        "   if (i == 3) { ok = 0; break; } }"
        " return ok; }",
        "f", {10});
    EXPECT_EQ(v, 0u);
}

TEST(Builder, EtasFeedOnlyMerges)
{
    CompileResult r = buildOnly(
        "int a[16];"
        "int f(int n) { int s = 0; int i; int j;"
        " for (i = 0; i < n; i++)"
        "   for (j = 0; j < i; j++)"
        "     s += a[j & 15];"
        " return s; }",
        OptLevel::Full);
    r.graph("f")->forEach([&](Node* n) {
        if (n->kind != NodeKind::Eta)
            return;
        for (const Use& u : n->uses())
            EXPECT_EQ(u.user->kind, NodeKind::Merge) << n->str();
    });
}

TEST(Builder, HbInfosRecorded)
{
    CompileResult r = buildOnly(
        "int f(int n) { int i = 0; while (i < n) i++; return i; }");
    const Graph* g = r.graph("f");
    EXPECT_EQ(g->hyperblocks.size(), 3u);
    int loops = 0;
    for (const HbInfo& hb : g->hyperblocks)
        if (hb.isLoop)
            loops++;
    EXPECT_EQ(loops, 1);
}

} // namespace
