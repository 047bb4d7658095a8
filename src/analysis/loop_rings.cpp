#include "analysis/loop_rings.h"

#include <algorithm>
#include <stdexcept>

#include "opt/opt_util.h"

namespace cash {

std::span<Node* const>
HyperblockNodes::of(int hb)
{
    if (!built_) {
        // Counting sort by hyperblock: node order within a bucket.
        const size_t hbs = g_->hyperblocks.size();
        start_.assign(hbs + 2, 0);
        auto inRange = [&](const Node* n) {
            return n->hyperblock >= 0 &&
                   static_cast<size_t>(n->hyperblock) < hbs;
        };
        g_->forEach([&](Node* n) {
            if (inRange(n))
                start_[static_cast<size_t>(n->hyperblock) + 2]++;
        });
        for (size_t h = 2; h < start_.size(); h++)
            start_[h] += start_[h - 1];
        byHb_.resize(start_.back());
        g_->forEach([&](Node* n) {
            if (inRange(n))
                byHb_[start_[static_cast<size_t>(n->hyperblock) + 1]++] = n;
        });
        built_ = true;
    }
    const size_t h = static_cast<size_t>(hb);
    if (h + 2 >= start_.size())
        throw std::out_of_range("HyperblockNodes::of");
    return {byHb_.data() + start_[h], byHb_.data() + start_[h + 1]};
}

bool
findTokenRing(Graph& g, HyperblockNodes& nodes, int hb, int partition,
              TokenRing& ring)
{
    if (hb < 0 || hb >= static_cast<int>(g.hyperblocks.size()))
        return false;
    if (!g.hyperblocks[hb].isLoop)
        return false;

    auto it = g.ringMerge.find({hb, partition});
    if (it == g.ringMerge.end())
        return false;
    Node* merge = it->second;
    if (!merge || merge->dead || merge->kind != NodeKind::Merge ||
        merge->hyperblock != hb)
        return false;

    ring.hyperblock = hb;
    ring.partition = partition;
    ring.merge = merge;
    ring.backEta = nullptr;
    ring.backPred = PortRef{};
    ring.initialInputs.clear();
    ring.ops.clear();
    ring.exitEtas.clear();
    ring.danglingOps.clear();
    ring.alreadySplit = false;

    // Exactly one back input; it must be an eta living in this
    // hyperblock (single-hyperblock loop body).
    for (int i = 0; i < merge->numInputs(); i++) {
        if (i == merge->deciderIndex)
            continue;
        if (merge->inputIsBackEdge(i)) {
            if (ring.backEta)
                return false;
            Node* eta = merge->input(i).node;
            if (eta->kind != NodeKind::Eta || eta->hyperblock != hb)
                return false;
            ring.backEta = eta;
        } else {
            ring.initialInputs.push_back(merge->input(i));
        }
    }
    if (!ring.backEta || ring.initialInputs.empty())
        return false;
    ring.backPred = ring.backEta->input(1);

    // Collect the partition's operations inside the hyperblock; bail
    // on calls/returns (they touch every partition).  The buckets are
    // in node order, so ring.ops comes out sorted by id.
    const std::span<Node* const> body = nodes.of(hb);
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
        }
    }
    if (bad)
        return false;
    auto isOp = [&](const Node* n) {
        return std::binary_search(
            ring.ops.begin(), ring.ops.end(), n,
            [](const Node* a, const Node* b) { return a->id < b->id; });
    };
    std::vector<PortRef>& srcs = nodes.sources_;

    // Every op's token sources must stay within the ring.
    for (Node* op : ring.ops) {
        optutil::expandTokenSources(op->input(op->tokenInIndex()), srcs);
        for (const PortRef& s : srcs) {
            if (s.node == merge)
                continue;
            if (isOp(s.node))
                continue;
            return false;
        }
    }

    // Dangling ops: token output not consumed by another ring op.
    for (Node* op : ring.ops) {
        optutil::directTokenConsumers(op, nodes.consumers_);
        bool consumedInside = false;
        for (Node* c : nodes.consumers_)
            if (isOp(c))
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
        optutil::expandTokenSources(n->input(0), srcs);
        bool ours = !srcs.empty();
        for (const PortRef& s : srcs) {
            if (s.node != merge && !isOp(s.node))
                ours = false;
        }
        if (ours)
            ring.exitEtas.push_back(n);
    }

    // The back eta itself must carry ring state.
    optutil::expandTokenSources(ring.backEta->input(0), srcs);
    for (const PortRef& s : srcs) {
        if (s.node != merge && !isOp(s.node))
            return false;
    }
    // A back eta recirculating the merge directly marks a ring the
    // generator/collector transformation already rewrote.
    ring.alreadySplit =
        ring.backEta->input(0) == PortRef{merge, 0};

    return true;
}

} // namespace cash
