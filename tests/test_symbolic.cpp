/**
 * @file
 * Symbolic (affine) address analysis and induction variables
 * (§4.3 heuristics).
 */
#include <gtest/gtest.h>

#include "analysis/induction.h"
#include "analysis/symbolic.h"
#include "test_util.h"

using namespace cash;

namespace {

TEST(Affine, ConstantsAndSums)
{
    AffineExpr a = AffineExpr::constantOf(5);
    AffineExpr b = AffineExpr::constantOf(3);
    int64_t c;
    ASSERT_TRUE(a.plus(b).isConstant(&c));
    EXPECT_EQ(c, 8);
    ASSERT_TRUE(a.minus(b).isConstant(&c));
    EXPECT_EQ(c, 2);
    ASSERT_TRUE(a.times(-4).isConstant(&c));
    EXPECT_EQ(c, -20);
}

TEST(Affine, BaseTermsCancel)
{
    SymBase x{nullptr, 1, -1};
    AffineExpr a = AffineExpr::baseOf(x).plus(AffineExpr::constantOf(8));
    AffineExpr b = AffineExpr::baseOf(x);
    int64_t c;
    ASSERT_TRUE(a.minus(b).isConstant(&c));
    EXPECT_EQ(c, 8);
}

TEST(Affine, DisjointnessRespectsAccessSizes)
{
    SymBase x{nullptr, 1, -1};
    AffineExpr p = AffineExpr::baseOf(x);
    AffineExpr p4 = p.plus(AffineExpr::constantOf(4));
    AffineExpr p2 = p.plus(AffineExpr::constantOf(2));
    EXPECT_TRUE(SymbolicAddress::disjoint(p, 4, p4, 4));
    EXPECT_FALSE(SymbolicAddress::disjoint(p, 4, p2, 4));   // overlap
    EXPECT_TRUE(SymbolicAddress::disjoint(p, 1, p2, 1));
    EXPECT_FALSE(SymbolicAddress::disjoint(p, 4, p, 4));    // equal
}

TEST(Affine, UnknownDifferenceIsNotDisjoint)
{
    SymBase x{nullptr, 1, -1}, y{nullptr, 2, -1};
    AffineExpr a = AffineExpr::baseOf(x);
    AffineExpr b = AffineExpr::baseOf(y);
    EXPECT_FALSE(SymbolicAddress::disjoint(a, 4, b, 4));
}

// --- graph-level decomposition ---------------------------------------

struct BuiltGraph
{
    CompileResult r;
    const Graph* g = nullptr;
};

BuiltGraph
build(const std::string& src, const std::string& fn = "f")
{
    BuiltGraph b{compileSource(src, CompileOptions().opt(OptLevel::Medium)),
                 nullptr};
    b.g = b.r.graph(fn);
    return b;
}

std::vector<Node*>
memNodes(const Graph& g, NodeKind k)
{
    std::vector<Node*> out;
    g.forEach([&](Node* n) {
        if (n->kind == k)
            out.push_back(n);
    });
    return out;
}

TEST(Symbolic, ConstantOffsetsOnSameBase)
{
    BuiltGraph b =
        build("int f(int* p, int i)"
              "{ return p[i] + p[i + 1] + p[i + 2]; }");
    std::vector<Node*> loads = memNodes(*b.g, NodeKind::Load);
    ASSERT_EQ(loads.size(), 3u);
    SymbolicAddress sym;
    AffineExpr a0 = sym.expr(loads[0]->input(2));
    AffineExpr a1 = sym.expr(loads[1]->input(2));
    AffineExpr a2 = sym.expr(loads[2]->input(2));
    EXPECT_TRUE(SymbolicAddress::disjoint(a0, 4, a1, 4));
    EXPECT_TRUE(SymbolicAddress::disjoint(a0, 4, a2, 4));
    EXPECT_TRUE(SymbolicAddress::disjoint(a1, 4, a2, 4));
}

TEST(Symbolic, GlobalArrayConstantIndices)
{
    BuiltGraph b = build("int t[8]; int f(void)"
                         "{ return t[2] + t[5]; }");
    std::vector<Node*> loads = memNodes(*b.g, NodeKind::Load);
    ASSERT_EQ(loads.size(), 2u);
    SymbolicAddress sym;
    EXPECT_TRUE(SymbolicAddress::disjoint(
        sym.expr(loads[0]->input(2)), 4,
        sym.expr(loads[1]->input(2)), 4));
}

TEST(Induction, DetectsLoopCounter)
{
    BuiltGraph b = build("int a[64];"
                         "int f(int n) { int s = 0; int i;"
                         " for (i = 0; i < n; i++) s += a[i];"
                         " return s; }");
    InductionAnalysis ivs(*b.g);
    int found = 0;
    for (const auto& [merge, iv] : ivs.all()) {
        if (iv.step == 1)
            found++;
    }
    EXPECT_GE(found, 1);
}

TEST(Induction, DetectsNegativeStep)
{
    BuiltGraph b = build("int a[64];"
                         "int f(int n) { int s = 0; int i;"
                         " for (i = n; i > 0; i--) s += a[i];"
                         " return s; }");
    InductionAnalysis ivs(*b.g);
    bool neg = false;
    for (const auto& [merge, iv] : ivs.all())
        if (iv.step == -1)
            neg = true;
    EXPECT_TRUE(neg);
}

TEST(Induction, IterTermsGiveCrossAccessDistance)
{
    BuiltGraph b = build("int a[64];"
                         "void f(int n) { int i;"
                         " for (i = 0; i + 3 < n; i++)"
                         "   a[i + 3] = a[i]; }");
    InductionAnalysis ivs(*b.g);
    SymbolicAddress sym(&ivs);
    std::vector<Node*> loads = memNodes(*b.g, NodeKind::Load);
    std::vector<Node*> stores = memNodes(*b.g, NodeKind::Store);
    ASSERT_EQ(loads.size(), 1u);
    ASSERT_EQ(stores.size(), 1u);
    AffineExpr la = sym.expr(loads[0]->input(2));
    AffineExpr sa = sym.expr(stores[0]->input(2));
    int hb = loads[0]->hyperblock;
    EXPECT_EQ(la.iterCoeff(hb), 4);
    EXPECT_EQ(sa.iterCoeff(hb), 4);
    int64_t c;
    ASSERT_TRUE(sa.withoutIter(hb).minus(la.withoutIter(hb))
                    .isConstant(&c));
    EXPECT_EQ(c, 12);  // 3 elements * 4 bytes
    // Same iteration: disjoint.
    EXPECT_TRUE(SymbolicAddress::disjoint(la, 4, sa, 4));
}

TEST(Induction, NonInductiveMergeIsOpaque)
{
    BuiltGraph b = build("int a[64];"
                         "int f(int n) { int x = 1; int i;"
                         " for (i = 0; i < n; i++) x = x * 3 + a[i];"
                         " return x; }");
    InductionAnalysis ivs(*b.g);
    // x's merge must not be classified as an induction variable.
    for (const auto& [merge, iv] : ivs.all())
        EXPECT_EQ(std::abs(iv.step), 1) << "unexpected IV step "
                                        << iv.step;
}

TEST(Symbolic, DifferentIterationVariablesStayOpaque)
{
    // Addresses indexed by different loops' counters cannot be
    // compared: the difference is not constant.
    BuiltGraph b = build(
        "int a[64];"
        "int f(int n) { int s = 0; int i; int j;"
        " for (i = 0; i < n; i++) s += a[i];"
        " for (j = 0; j < n; j++) s += a[j + 1];"
        " return s; }");
    InductionAnalysis ivs(*b.g);
    SymbolicAddress sym(&ivs);
    std::vector<Node*> loads = memNodes(*b.g, NodeKind::Load);
    ASSERT_EQ(loads.size(), 2u);
    AffineExpr a0 = sym.expr(loads[0]->input(2));
    AffineExpr a1 = sym.expr(loads[1]->input(2));
    EXPECT_FALSE(SymbolicAddress::disjoint(a0, 4, a1, 4));
}

} // namespace
