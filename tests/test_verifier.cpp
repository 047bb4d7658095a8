/**
 * @file
 * Graph verifier: structural invariants are enforced and violations
 * detected.
 */
#include <gtest/gtest.h>

#include "pegasus/reachability.h"
#include "pegasus/verifier.h"
#include "test_util.h"

using namespace cash;

namespace {

TEST(Verifier, AcceptsBuiltGraphs)
{
    CompileResult r = compileSource(
        "int a[4]; int f(int n) { int s = 0; int i;"
        " for (i = 0; i < n; i++) s += a[i & 3];"
        " return s; }");
    for (const auto& g : r.graphs)
        EXPECT_TRUE(verifyGraph(*g).empty());
}

TEST(Verifier, DetectsMissingInputs)
{
    Graph g;
    g.name = "t";
    Node* ld = g.newNode(NodeKind::Load, VT::Word, 0);
    // Load with no inputs at all.
    std::vector<std::string> problems = verifyGraph(g);
    EXPECT_FALSE(problems.empty());
    (void)ld;
}

TEST(Verifier, DetectsTokenTypeMismatch)
{
    Graph g;
    g.name = "t";
    Node* c = g.newConst(1, VT::Pred, 0);
    Node* w = g.newConst(7, VT::Word, 0);
    Node* ld = g.newNode(NodeKind::Load, VT::Word, 0);
    g.addInput(ld, {c, 0});
    g.addInput(ld, {w, 0});  // token slot wired to a Word
    g.addInput(ld, {w, 0});
    std::vector<std::string> problems = verifyGraph(g);
    EXPECT_FALSE(problems.empty());
}

TEST(Verifier, DetectsOddMux)
{
    Graph g;
    g.name = "t";
    Node* p = g.newConst(1, VT::Pred, 0);
    Node* mux = g.newNode(NodeKind::Mux, VT::Word, 0);
    g.addInput(mux, {p, 0});  // odd arity
    EXPECT_FALSE(verifyGraph(g).empty());
}

TEST(Verifier, DetectsForwardCycle)
{
    Graph g;
    g.name = "t";
    Node* a = g.newArith1(Op::Neg, {g.newConst(1, VT::Word, 0), 0}, 0);
    Node* b = g.newArith1(Op::Neg, {a, 0}, 0);
    g.setInput(a, 0, {b, 0});  // a ← b ← a, no back-edge flags
    EXPECT_FALSE(verifyGraph(g).empty());
}

TEST(Verifier, BackEdgeFlagLegalizesLoops)
{
    Graph g;
    g.name = "t";
    Node* init = g.newConst(0, VT::Word, 0);
    Node* pred = g.newConst(1, VT::Pred, 0);
    Node* merge = g.newNode(NodeKind::Merge, VT::Word, 0);
    Node* eta = g.newNode(NodeKind::Eta, VT::Word, 0);
    g.addInput(merge, {init, 0});
    g.addInput(eta, {merge, 0});
    g.addInput(eta, {pred, 0});
    g.addInput(merge, {eta, 0}, /*backEdge=*/true);
    merge->deciderIndex = merge->numInputs();
    g.addInput(merge, {pred, 0}, /*backEdge=*/true);
    EXPECT_TRUE(verifyGraph(g).empty());
}

TEST(Verifier, BackEdgeMergeWithoutDeciderFlagged)
{
    Graph g;
    g.name = "t";
    Node* init = g.newConst(0, VT::Word, 0);
    Node* pred = g.newConst(1, VT::Pred, 0);
    Node* merge = g.newNode(NodeKind::Merge, VT::Word, 0);
    Node* eta = g.newNode(NodeKind::Eta, VT::Word, 0);
    g.addInput(merge, {init, 0});
    g.addInput(eta, {merge, 0});
    g.addInput(eta, {pred, 0});
    g.addInput(merge, {eta, 0}, /*backEdge=*/true);
    EXPECT_FALSE(verifyGraph(g).empty());
}

TEST(Reachability, ForwardOnly)
{
    Graph g;
    g.name = "t";
    Node* c = g.newConst(3, VT::Word, 0);
    Node* a = g.newArith1(Op::Neg, {c, 0}, 0);
    Node* b = g.newArith1(Op::BitNot, {a, 0}, 0);
    Reachability reach(g);
    EXPECT_TRUE(reach.reaches(c, b));
    EXPECT_TRUE(reach.reaches(a, b));
    EXPECT_FALSE(reach.reaches(b, a));
    EXPECT_TRUE(reach.reaches(b, b));
}

TEST(Reachability, StopsAtBackEdges)
{
    Graph g;
    g.name = "t";
    Node* init = g.newConst(0, VT::Word, 0);
    Node* pred = g.newConst(1, VT::Pred, 0);
    Node* merge = g.newNode(NodeKind::Merge, VT::Word, 0);
    Node* inc = g.newArith(
        Op::Add, {merge, 0}, {g.newConst(1, VT::Word, 0), 0}, 0);
    Node* eta = g.newNode(NodeKind::Eta, VT::Word, 0);
    g.addInput(merge, {init, 0});
    g.addInput(eta, {inc, 0});
    g.addInput(eta, {pred, 0});
    g.addInput(merge, {eta, 0}, /*backEdge=*/true);
    merge->deciderIndex = merge->numInputs();
    g.addInput(merge, {pred, 0}, /*backEdge=*/true);

    Reachability reach(g);
    EXPECT_TRUE(reach.reaches(merge, eta));
    // ...but not around the loop: the merge's eta input is flagged as
    // a back edge, so the cycle is invisible to forward reachability.
    EXPECT_FALSE(reach.reaches(eta, merge));
    EXPECT_FALSE(reach.reaches(eta, inc));
}

TEST(GraphApi, RemoveInputShiftsUses)
{
    Graph g;
    g.name = "t";
    Node* a = g.newConst(1, VT::Token, 0);
    Node* b = g.newConst(2, VT::Token, 0);
    Node* c = g.newConst(3, VT::Token, 0);
    Node* comb = g.newNode(NodeKind::Combine, VT::Token, 0);
    g.addInput(comb, {a, 0});
    g.addInput(comb, {b, 0});
    g.addInput(comb, {c, 0});
    g.removeInput(comb, 1);
    ASSERT_EQ(comb->numInputs(), 2);
    EXPECT_EQ(comb->input(0).node, a);
    EXPECT_EQ(comb->input(1).node, c);
    EXPECT_TRUE(verifyGraph(g).empty());
}

TEST(GraphApi, ReplaceAllUsesRewires)
{
    Graph g;
    g.name = "t";
    Node* a = g.newConst(1, VT::Word, 0);
    Node* b = g.newConst(2, VT::Word, 0);
    Node* u1 = g.newArith1(Op::Neg, {a, 0}, 0);
    Node* u2 = g.newArith(Op::Add, {a, 0}, {a, 0}, 0);
    g.replaceAllUses({a, 0}, {b, 0});
    EXPECT_EQ(u1->input(0).node, b);
    EXPECT_EQ(u2->input(0).node, b);
    EXPECT_EQ(u2->input(1).node, b);
    EXPECT_TRUE(a->uses().empty());
}

TEST(GraphApi, EraseDetachesInputs)
{
    Graph g;
    g.name = "t";
    Node* a = g.newConst(1, VT::Word, 0);
    Node* u = g.newArith1(Op::Neg, {a, 0}, 0);
    g.erase(u);
    EXPECT_TRUE(a->uses().empty());
    EXPECT_TRUE(u->dead);
    EXPECT_EQ(g.numLive(), 1);
}

} // namespace
