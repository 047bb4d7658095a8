// Inline small-buffer lists: SmallVector itself, the operand and use
// lists of Pegasus nodes once they outgrow their inline room (the
// order every mutator leaves them in, node copies and moves, journal
// rollback), and the flat LocationSet against a std::set<int> model.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/memloc.h"
#include "pegasus/graph.h"
#include "support/small_vector.h"

using namespace cash;

namespace {

template <typename T, uint32_t N>
std::vector<T>
items(const SmallVector<T, N>& v)
{
    return std::vector<T>(v.begin(), v.end());
}

TEST(SmallVector, SpillsPastInlineRoomAndKeepsOrder)
{
    SmallVector<int, 3> v;
    std::vector<int> model;
    for (int i = 0; i < 3; i++) {
        v.push_back(i);
        model.push_back(i);
    }
    EXPECT_FALSE(v.spilled());
    for (int i = 3; i < 20; i++) {
        v.push_back(i);
        model.push_back(i);
    }
    EXPECT_TRUE(v.spilled());
    EXPECT_EQ(items(v), model);

    // Order-preserving insert at the front, middle and end, and pop.
    v.pop_back();
    model.pop_back();
    v.insert(v.begin(), 100);
    model.insert(model.begin(), 100);
    v.insert(v.begin() + 5, 101);
    model.insert(model.begin() + 5, 101);
    v.insert(v.end(), 102);
    model.push_back(102);
    EXPECT_EQ(items(v), model);

    // Pushing an element of the list itself while it regrows.
    SmallVector<int, 2> w;
    w.push_back(7);
    w.push_back(8);
    w.push_back(w[0]);
    w.push_back(w[1]);
    w.push_back(w[2]);
    EXPECT_EQ(items(w), (std::vector<int>{7, 8, 7, 8, 7}));
}

TEST(SmallVector, CopyAndMoveOfSpilledLists)
{
    SmallVector<int, 2> a;
    for (int i = 0; i < 9; i++)
        a.push_back(i * i);
    ASSERT_TRUE(a.spilled());

    SmallVector<int, 2> copy(a);
    EXPECT_EQ(copy, a);
    EXPECT_NE(copy.data(), a.data());
    copy[0] = -1;
    EXPECT_EQ(a[0], 0);

    // A copy into a list that has room reuses its buffer.
    SmallVector<int, 2> roomy;
    roomy.reserve(16);
    const int* buffer = roomy.data();
    roomy = a;
    EXPECT_EQ(roomy.data(), buffer);
    EXPECT_EQ(roomy, a);

    // A move takes the heap buffer and leaves the source empty.
    const int* heap = a.data();
    SmallVector<int, 2> moved(std::move(a));
    EXPECT_EQ(moved.data(), heap);
    EXPECT_TRUE(a.empty());
    EXPECT_FALSE(a.spilled());

    // Moving an inline list over a spilled one gives the buffer back.
    SmallVector<int, 2> small;
    small.push_back(5);
    moved = std::move(small);
    EXPECT_FALSE(moved.spilled());
    EXPECT_EQ(items(moved), std::vector<int>{5});
}

/** (user id, input index) of every use of @p n, in use-list order. */
std::vector<std::pair<int, int>>
useList(const Node* n)
{
    std::vector<std::pair<int, int>> out;
    for (const Use& u : n->uses())
        out.emplace_back(u.user->id, u.index);
    return out;
}

/** Ids of @p n's inputs, in order. */
std::vector<int>
inputIds(const Node* n)
{
    std::vector<int> out;
    for (const PortRef& in : n->inputs())
        out.push_back(in.node->id);
    return out;
}

/** Every use record matches the input it names, and vice versa. */
void
expectConsistent(const Graph& g)
{
    g.forEach([&](Node* n) {
        for (const Use& u : n->uses())
            EXPECT_EQ(u.user->input(u.index).node, n);
        for (int i = 0; i < n->numInputs(); i++) {
            int seen = 0;
            for (const Use& u : n->input(i).node->uses())
                if (u.user == n && u.index == i)
                    seen++;
            EXPECT_EQ(seen, 1) << n->str() << " input " << i;
        }
    });
}

TEST(InlineLists, RemoveAndReplaceOnSpilledInputLists)
{
    Graph g;
    std::vector<Node*> src;
    for (int i = 0; i < 9; i++)
        src.push_back(g.newNode(NodeKind::InitialToken, VT::Token, 0));
    Node* c = g.newNode(NodeKind::Combine, VT::Token, 0);
    for (Node* s : src)
        g.addInput(c, {s, 0});
    ASSERT_GT(c->numInputs(), 3);
    std::vector<int> want;
    for (Node* s : src)
        want.push_back(s->id);
    EXPECT_EQ(inputIds(c), want);

    // removeInput() shifts the later inputs down in order and renames
    // their use records.
    g.removeInput(c, 2);
    want.erase(want.begin() + 2);
    g.removeInput(c, 0);
    want.erase(want.begin());
    EXPECT_EQ(inputIds(c), want);
    for (int i = 0; i < c->numInputs(); i++)
        EXPECT_EQ(useList(c->input(i).node),
                  (std::vector<std::pair<int, int>>{{c->id, i}}));

    // setInput() replaces in place.
    Node* fresh = g.newNode(NodeKind::InitialToken, VT::Token, 0);
    g.setInput(c, 4, {fresh, 0});
    want[4] = fresh->id;
    EXPECT_EQ(inputIds(c), want);
    expectConsistent(g);
}

TEST(InlineLists, UseListOrderMatchesVectorSemantics)
{
    // One producer read by ten users: its use list spills.  unuse()
    // fills the hole with the last use, as the std::vector version
    // did; replaceAllUses() appends to the new producer in old order.
    Graph g;
    Node* k = g.newConst(1, VT::Word, 0);
    Node* other = g.newConst(2, VT::Word, 0);
    std::vector<Node*> users;
    for (int i = 0; i < 10; i++)
        users.push_back(g.newArith1(Op::Neg, {k, 0}, 0));
    std::vector<std::pair<int, int>> want;
    for (Node* u : users)
        want.emplace_back(u->id, 0);
    EXPECT_EQ(useList(k), want);

    g.setInput(users[3], 0, {other, 0});
    want[3] = want.back();
    want.pop_back();
    EXPECT_EQ(useList(k), want);
    EXPECT_EQ(useList(other),
              (std::vector<std::pair<int, int>>{{users[3]->id, 0}}));

    std::vector<std::pair<int, int>> moved = useList(other);
    for (const auto& u : want)
        moved.push_back(u);
    g.replaceAllUses({k, 0}, {other, 0});
    EXPECT_TRUE(k->uses().empty());
    EXPECT_EQ(useList(other), moved);
    expectConsistent(g);
}

TEST(InlineLists, NodeCopiesAndMovesKeepSpilledLists)
{
    Graph g;
    Node* k = g.newConst(3, VT::Word, 0);
    Node* m = g.newNode(NodeKind::Merge, VT::Word, 0);
    for (int i = 0; i < 6; i++)
        g.addInput(m, {k, 0}, /*backEdge=*/i % 2 == 1);
    for (int i = 0; i < 7; i++)
        g.newArith1(Op::Neg, {m, 0}, 0);
    m->rwSet.insert(4);
    m->rwSet.insert(1);
    m->rwSet.insert(9);

    Node copy = *m;
    EXPECT_EQ(copy.str(), m->str());
    EXPECT_EQ(useList(&copy), useList(m));
    for (int i = 0; i < 6; i++)
        EXPECT_EQ(copy.inputIsBackEdge(i), i % 2 == 1);
    EXPECT_TRUE(copy.rwSet == m->rwSet);

    Node moved = std::move(copy);
    EXPECT_EQ(moved.str(), m->str());
    EXPECT_EQ(useList(&moved), useList(m));
    EXPECT_TRUE(moved.rwSet == m->rwSet);
    EXPECT_EQ(copy.numInputs(), 0);
    EXPECT_TRUE(copy.uses().empty());
}

TEST(InlineLists, RollbackRestoresASpilledUseListInOrder)
{
    Graph g;
    Node* k = g.newConst(1, VT::Word, 0);
    Node* other = g.newConst(2, VT::Word, 0);
    std::vector<Node*> users;
    for (int i = 0; i < 9; i++)
        users.push_back(g.newArith1(Op::Neg, {k, 0}, 0));
    const std::vector<std::pair<int, int>> before = useList(k);
    const std::string kBefore = k->str(), otherBefore = other->str();

    g.beginJournal();
    g.setInput(users[0], 0, {other, 0});
    g.setInput(users[5], 0, {other, 0});
    g.addInput(users[2], {k, 0});
    Node* extra = g.newArith(Op::Add, {k, 0}, {other, 0}, 0);
    (void)extra;
    EXPECT_NE(useList(k), before);
    g.rollbackJournal();

    EXPECT_EQ(useList(k), before);
    EXPECT_TRUE(other->uses().empty());
    EXPECT_EQ(k->str(), kBefore);
    EXPECT_EQ(other->str(), otherBefore);
    EXPECT_EQ(users[2]->numInputs(), 1);
    expectConsistent(g);
}

/** The std::set<int> a LocationSet should equal (Top aside). */
std::vector<int>
listed(const LocationSet& s)
{
    return std::vector<int>(s.locations().begin(), s.locations().end());
}

std::string
modelStr(const std::set<int>& m)
{
    std::string out = "{";
    for (int l : m) {
        if (out.size() > 1)
            out += ",";
        out += std::to_string(l);
    }
    return out + "}";
}

TEST(InlineLists, LocationSetMatchesAStdSetModel)
{
    std::mt19937 rng(20041018);
    std::uniform_int_distribution<int> loc(0, 40);
    for (int round = 0; round < 400; round++) {
        LocationSet a, b;
        std::set<int> ma, mb;
        bool topA = false;
        const int na = static_cast<int>(rng() % 7);
        const int nb = static_cast<int>(rng() % 7);
        for (int i = 0; i < na; i++) {
            int l = loc(rng);
            a.insert(l);
            ma.insert(l);
        }
        for (int i = 0; i < nb; i++) {
            int l = loc(rng);
            b.insert(l);
            mb.insert(l);
        }
        ASSERT_EQ(listed(a), std::vector<int>(ma.begin(), ma.end()));
        EXPECT_EQ(a.str(), modelStr(ma));
        for (int l = 0; l <= 40; l++)
            EXPECT_EQ(a.contains(l), ma.count(l) != 0);
        EXPECT_EQ(a == b, ma == mb);

        if (rng() % 8 == 0) {
            b = LocationSet::top();
            mb.clear();
            topA = true;
        }
        a.unionWith(b);
        ma.insert(mb.begin(), mb.end());
        if (topA) {
            EXPECT_TRUE(a.isTop());
            EXPECT_FALSE(a.empty());
            EXPECT_TRUE(a.locations().empty());
            EXPECT_EQ(a.str(), "{top}");
            a.insert(3);  // Top absorbs inserts
            EXPECT_TRUE(a.locations().empty());
            EXPECT_TRUE(a == LocationSet::top());
        } else {
            EXPECT_EQ(listed(a), std::vector<int>(ma.begin(), ma.end()));
            EXPECT_EQ(a.empty(), ma.empty());
            LocationSet self = a;
            self.unionWith(self);
            EXPECT_TRUE(self == a);
        }
    }
}

} // namespace
