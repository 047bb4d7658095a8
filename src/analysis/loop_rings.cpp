#include "analysis/loop_rings.h"

#include <algorithm>
#include <set>

#include "opt/opt_util.h"

namespace cash {

const std::vector<Node*>&
HyperblockNodes::of(int hb)
{
    if (!built_) {
        byHb_.assign(g_.hyperblocks.size(), {});
        g_.forEach([&](Node* n) {
            if (n->hyperblock >= 0 &&
                static_cast<size_t>(n->hyperblock) < byHb_.size())
                byHb_[n->hyperblock].push_back(n);
        });
        built_ = true;
    }
    return byHb_.at(static_cast<size_t>(hb));
}

std::optional<TokenRing>
findTokenRing(Graph& g, HyperblockNodes& nodes, int hb, int partition)
{
    if (hb < 0 || hb >= static_cast<int>(g.hyperblocks.size()))
        return std::nullopt;
    if (!g.hyperblocks[hb].isLoop)
        return std::nullopt;

    auto it = g.ringMerge.find({hb, partition});
    if (it == g.ringMerge.end())
        return std::nullopt;
    Node* merge = it->second;
    if (!merge || merge->dead || merge->kind != NodeKind::Merge ||
        merge->hyperblock != hb)
        return std::nullopt;

    TokenRing ring;
    ring.hyperblock = hb;
    ring.partition = partition;
    ring.merge = merge;

    // Exactly one back input; it must be an eta living in this
    // hyperblock (single-hyperblock loop body).
    for (int i = 0; i < merge->numInputs(); i++) {
        if (i == merge->deciderIndex)
            continue;
        if (merge->inputIsBackEdge(i)) {
            if (ring.backEta)
                return std::nullopt;
            Node* eta = merge->input(i).node;
            if (eta->kind != NodeKind::Eta || eta->hyperblock != hb)
                return std::nullopt;
            ring.backEta = eta;
        } else {
            ring.initialInputs.push_back(merge->input(i));
        }
    }
    if (!ring.backEta || ring.initialInputs.empty())
        return std::nullopt;
    ring.backPred = ring.backEta->input(1);

    // Collect the partition's operations inside the hyperblock; bail
    // on calls/returns (they touch every partition).
    const std::vector<Node*>& body = nodes.of(hb);
    std::set<const Node*> opSet;
    bool bad = false;
    for (Node* n : body) {
        if (n->dead || n->hyperblock != hb)
            continue;
        if (n->kind == NodeKind::Call || n->kind == NodeKind::Return)
            bad = true;
        if (n->isMemoryAccess() && n->partition == partition) {
            // Immutable loads detached from the token network (§4.2)
            // take a constant token and participate in no ring.
            if (n->input(n->tokenInIndex()).node->kind ==
                NodeKind::Const)
                continue;
            ring.ops.push_back(n);
            opSet.insert(n);
        }
    }
    if (bad)
        return std::nullopt;

    // Every op's token sources must stay within the ring.
    for (Node* op : ring.ops) {
        for (const PortRef& s :
             optutil::expandTokenSources(op->input(op->tokenInIndex()))) {
            if (s.node == merge)
                continue;
            if (opSet.count(s.node))
                continue;
            return std::nullopt;
        }
    }

    // Dangling ops: token output not consumed by another ring op.
    for (Node* op : ring.ops) {
        std::vector<Node*> consumers = optutil::directTokenConsumers(op);
        bool consumedInside = false;
        for (Node* c : consumers)
            if (opSet.count(c))
                consumedInside = true;
        if (!consumedInside)
            ring.danglingOps.push_back(op);
    }

    // Exit etas: token etas in this hyperblock whose source set is the
    // ring state (merge and/or dangling ops), excluding the back eta.
    for (Node* n : body) {
        if (n->dead || n->hyperblock != hb || n == ring.backEta)
            continue;
        if (n->kind != NodeKind::Eta || n->type != VT::Token)
            continue;
        std::vector<PortRef> srcs =
            optutil::expandTokenSources(n->input(0));
        bool ours = !srcs.empty();
        for (const PortRef& s : srcs) {
            if (s.node != merge && !opSet.count(s.node))
                ours = false;
        }
        if (ours)
            ring.exitEtas.push_back(n);
    }

    // The back eta itself must carry ring state.
    for (const PortRef& s :
         optutil::expandTokenSources(ring.backEta->input(0))) {
        if (s.node != merge && !opSet.count(s.node))
            return std::nullopt;
    }
    // A back eta recirculating the merge directly marks a ring the
    // generator/collector transformation already rewrote.
    ring.alreadySplit =
        ring.backEta->input(0) == PortRef{merge, 0};

    return ring;
}

} // namespace cash
