#include "pegasus/graph.h"

#include <algorithm>
#include <set>

namespace cash {

Node*
Graph::newNode(NodeKind kind, VT type, int hyperblock)
{
    auto n = std::make_unique<Node>();
    n->id = nextId_++;
    n->kind = kind;
    n->type = type;
    n->hyperblock = hyperblock;
    // New under the open journal: rollback drops it, never restores it.
    n->journalEpoch_ = epoch_;
    nodes_.push_back(std::move(n));
    return nodes_.back().get();
}

Node*
Graph::newConst(int64_t value, VT type, int hyperblock)
{
    Node* n = newNode(NodeKind::Const, type, hyperblock);
    n->constValue = value;
    return n;
}

Node*
Graph::newArith(Op op, PortRef a, PortRef b, int hyperblock, VT type)
{
    Node* n = newNode(NodeKind::Arith, type, hyperblock);
    n->op = op;
    addInput(n, a);
    addInput(n, b);
    return n;
}

Node*
Graph::newArith1(Op op, PortRef a, int hyperblock, VT type)
{
    Node* n = newNode(NodeKind::Arith, type, hyperblock);
    n->op = op;
    addInput(n, a);
    return n;
}

Node*
Graph::truePred(int hyperblock)
{
    return newConst(1, VT::Pred, hyperblock);
}

Node*
Graph::falsePred(int hyperblock)
{
    return newConst(0, VT::Pred, hyperblock);
}

void
Graph::addInput(Node* n, PortRef v, bool backEdge)
{
    CASH_ASSERT(v.valid(), "adding invalid input");
    save(n);
    save(v.node);
    n->inputs_.push_back(v);
    n->backEdge_.push_back(backEdge);
    v.node->uses_.push_back({n, static_cast<int>(n->inputs_.size()) - 1});
}

void
Graph::unuse(Node* producer, Node* user, int index)
{
    save(producer);
    auto& uses = producer->uses_;
    for (size_t i = 0; i < uses.size(); i++) {
        if (uses[i].user == user && uses[i].index == index) {
            uses[i] = uses.back();
            uses.pop_back();
            return;
        }
    }
    panic("use-list inconsistency");
}

void
Graph::setInput(Node* n, int index, PortRef v)
{
    CASH_ASSERT(index >= 0 && index < n->numInputs(), "bad input index");
    PortRef old = n->inputs_[index];
    if (old == v)
        return;
    save(n);
    if (old.valid())
        unuse(old.node, n, index);
    n->inputs_[index] = v;
    if (v.valid()) {
        save(v.node);
        v.node->uses_.push_back({n, index});
    }
}

void
Graph::removeInput(Node* n, int index)
{
    CASH_ASSERT(index >= 0 && index < n->numInputs(), "bad input index");
    CASH_ASSERT(index != n->deciderIndex,
                "removing a merge decider input directly");
    save(n);
    if (n->deciderIndex > index)
        n->deciderIndex--;
    PortRef old = n->inputs_[index];
    if (old.valid())
        unuse(old.node, n, index);
    // Shift the remaining inputs down, fixing the producers' use
    // indices.
    for (int i = index + 1; i < n->numInputs(); i++) {
        PortRef in = n->inputs_[i];
        if (in.valid()) {
            save(in.node);
            for (Use& u : in.node->uses_) {
                if (u.user == n && u.index == i)
                    u.index = i - 1;
            }
        }
        n->inputs_[i - 1] = in;
        n->backEdge_[i - 1] = n->backEdge_[i];
    }
    n->inputs_.pop_back();
    n->backEdge_.pop_back();
}

void
Graph::removeDecider(Node* merge)
{
    CASH_ASSERT(merge->deciderIndex >= 0, "no decider to remove");
    int idx = merge->deciderIndex;
    save(merge);
    merge->deciderIndex = -1;
    removeInput(merge, idx);
}

void
Graph::replaceAllUses(PortRef from, PortRef to)
{
    CASH_ASSERT(from.valid() && to.valid(), "invalid RAUW");
    // Copy the uses touching this port; setInput mutates the list.
    std::vector<Use> uses;
    for (const Use& u : from.node->uses_)
        if (u.user->inputs_[u.index] == from)
            uses.push_back(u);
    for (const Use& u : uses)
        setInput(u.user, u.index, to);
}

void
Graph::erase(Node* n)
{
    CASH_ASSERT(n->uses_.empty(), "erasing node with uses: " + n->str());
    save(n);
    for (int i = 0; i < n->numInputs(); i++) {
        PortRef in = n->inputs_[i];
        if (in.valid())
            unuse(in.node, n, i);
    }
    n->inputs_.clear();
    n->backEdge_.clear();
    n->dead = true;
}

void
Graph::compact()
{
    CASH_ASSERT(!journalOpen_, "compacting under an open journal");
    // Keep ids stable for live nodes but drop dead storage.
    std::vector<std::unique_ptr<Node>> keep;
    keep.reserve(nodes_.size());
    for (auto& n : nodes_)
        if (!n->dead)
            keep.push_back(std::move(n));
    nodes_ = std::move(keep);
    // The pass manager is done with this graph: free the journal's
    // buffer, sized for the largest pass run, rather than keep it for
    // the graph's lifetime.
    std::vector<SavedNode>().swap(saved_);
}

void
Graph::beginJournal()
{
    CASH_ASSERT(!journalOpen_, "nested graph journal");
    journalOpen_ = true;
    epoch_++;
    watermark_ = nodes_.size();
    idWatermark_ = nextId_;
    saved_.clear();
}

void
Graph::commitJournal()
{
    CASH_ASSERT(journalOpen_, "committing without a journal");
    journalOpen_ = false;
    saved_.clear();
}

void
Graph::rollbackJournal()
{
    CASH_ASSERT(journalOpen_, "rolling back without a journal");
    // Each node was saved once, before its first change, so the saved
    // copies are the pre-journal state whatever order they return in.
    for (SavedNode& s : saved_)
        *s.slot = std::move(s.before);
    nodes_.resize(watermark_);
    nextId_ = idWatermark_;
    journalOpen_ = false;
    saved_.clear();
}

std::vector<Node*>
Graph::liveNodes() const
{
    std::vector<Node*> out;
    out.reserve(nodes_.size());
    for (const auto& n : nodes_)
        if (!n->dead)
            out.push_back(n.get());
    return out;
}

int
Graph::numLive() const
{
    int c = 0;
    for (const auto& n : nodes_)
        if (!n->dead)
            c++;
    return c;
}

std::vector<PortRef>
Graph::tokenSources(const Node* n) const
{
    std::vector<PortRef> out;
    int ti = n->tokenInIndex();
    if (ti < 0 || ti >= n->numInputs())
        return out;
    std::vector<PortRef> work{n->input(ti)};
    std::set<const Node*> seen;
    while (!work.empty()) {
        PortRef cur = work.back();
        work.pop_back();
        if (!cur.valid() || seen.count(cur.node))
            continue;
        seen.insert(cur.node);
        if (cur.node->kind == NodeKind::Combine) {
            for (const PortRef& in : cur.node->inputs())
                work.push_back(in);
        } else {
            out.push_back(cur);
        }
    }
    return out;
}

void
Graph::bypassToken(Node* victim, PortRef replacement)
{
    int port = victim->tokenOutPort();
    CASH_ASSERT(port >= 0, "bypassing node without token output");
    replaceAllUses({victim, port}, replacement);
}

} // namespace cash
