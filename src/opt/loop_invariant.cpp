/**
 * @file
 * Loop-invariant load motion (paper §5.4).
 *
 * A load inside a loop hyperblock whose address is loop-invariant,
 * whose predicate is the hyperblock constant-true, and whose memory
 * partition is never written inside the loop (its token comes straight
 * from the partition's ring merge) is lifted into the loop's
 * predecessor hyperblock, gated by the loop-entry predicate — the
 * paper's "loop-header hyperblock".  The loaded value re-enters the
 * loop through a fresh merge-eta ring (a value that "circulates around
 * the loop unchanged").
 *
 * Loop-invariant *stores* are never detected by this scheme: their
 * token input is a fresh token each iteration (§5.4's closing remark).
 */
#include <optional>

#include "analysis/boolean.h"
#include "analysis/loop_rings.h"
#include "opt/opt_util.h"
#include "opt/pass.h"

namespace cash {

namespace {

class LoopInvariantPass : public Pass
{
  public:
    const char* name() const override { return "loop_invariant"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        bool changed = false;
        std::vector<Node*> loads;
        g.forEach([&](Node* n) {
            if (n->kind == NodeKind::Load && !n->hoisted)
                loads.push_back(n);
        });
        HyperblockNodes nodes(g);
        for (Node* load : loads) {
            // A hoist creates nodes in the loop: rescan after one.
            if (!load->dead && hoist(g, nodes, load, ctx)) {
                nodes.invalidate();
                changed = true;
            }
        }
        return changed;
    }

  private:
    /**
     * Preheader equivalent of an in-loop value: constants and params
     * pass through; an invariant ring merge yields the value its
     * initial eta carries; invariant arithmetic is recursively valid
     * since its operands resolve outside the loop.
     */
    std::optional<PortRef>
    hoistValue(Graph& g, PortRef v, int hb, int depth)
    {
        if (depth > 16)
            return std::nullopt;
        Node* n = v.node;
        if (n->kind == NodeKind::Const || n->kind == NodeKind::Param ||
            n->hyperblock != hb)
            return v;
        if (n->kind == NodeKind::Merge) {
            // Invariant iff the back input recirculates the merge.
            PortRef init{};
            for (int i = 0; i < n->numInputs(); i++) {
                if (i == n->deciderIndex)
                    continue;
                PortRef in = n->input(i);
                if (n->inputIsBackEdge(i)) {
                    if (in.node->kind != NodeKind::Eta ||
                        !(in.node->input(0) == PortRef{n, 0}))
                        return std::nullopt;
                } else {
                    if (init.valid())
                        return std::nullopt;  // several entries
                    // Through an entry eta, or wired directly from
                    // the predecessor hyperblock.
                    init = in.node->kind == NodeKind::Eta
                               ? in.node->input(0)
                               : in;
                }
            }
            if (!init.valid())
                return std::nullopt;
            return init;  // value in the predecessor hyperblock
        }
        if (n->kind == NodeKind::Arith) {
            std::vector<PortRef> ins;
            for (int i = 0; i < n->numInputs(); i++) {
                auto h = hoistValue(g, n->input(i), hb, depth + 1);
                if (!h)
                    return std::nullopt;
                ins.push_back(*h);
            }
            // Rebuild outside the loop (hyperblock of the first
            // non-const operand, else the load's predecessor's).
            int outHb = ins[0].node->hyperblock;
            for (const PortRef& in : ins)
                if (in.node->kind != NodeKind::Const &&
                    in.node->kind != NodeKind::Param)
                    outHb = in.node->hyperblock;
            Node* clone;
            if (ins.size() == 1)
                clone = g.newArith1(n->op, ins[0], outHb, n->type);
            else
                clone = g.newArith(n->op, ins[0], ins[1], outHb,
                                   n->type);
            return PortRef{clone, 0};
        }
        return std::nullopt;
    }

    bool
    hoist(Graph& g, HyperblockNodes& nodes, Node* load, OptContext& ctx)
    {
        int hb = load->hyperblock;
        if (hb < 0 || hb >= static_cast<int>(g.hyperblocks.size()) ||
            !g.hyperblocks[hb].isLoop)
            return false;
        // "Unconditional inside the body": the load runs on every
        // iteration — its predicate is the activation pulse (while
        // loops) or the loop-continuation predicate (for loops, whose
        // body is guarded by the header condition).
        const Node* pred = load->input(0).node;
        bool everyIteration =
            isTruePred(load->input(0)) ||
            (pred->kind == NodeKind::Merge && pred->type == VT::Pred &&
             pred->hyperblock == hb);
        // (checked against the ring's back predicate below, once the
        // ring has been identified)

        // The token must come straight from the partition ring merge,
        // and the ring must be the canonical rewriteable shape.
        auto ringOpt = findTokenRing(g, nodes, hb, load->partition);
        if (!ringOpt)
            return false;
        TokenRing& ring = *ringOpt;
        if (!everyIteration && !(load->input(0) == ring.backPred))
            return false;
        // Partition read-only inside the loop.
        for (Node* op : ring.ops)
            if (op->kind != NodeKind::Load)
                return false;
        std::vector<PortRef> srcs =
            optutil::expandTokenSources(load->input(1));
        if (srcs.size() != 1 || srcs[0].node != ring.merge)
            return false;
        if (ring.initialInputs.size() != 1)
            return false;
        PortRef initIn = ring.initialInputs[0];
        // The loop-entry edge either delivers through an eta, or (for
        // an unconditional edge out of the entry hyperblock) wires the
        // incoming token straight into the ring merge.
        Node* entryEta = nullptr;
        PortRef entryPred, entryToken;
        int preHb;
        if (initIn.node->kind == NodeKind::Eta) {
            entryEta = initIn.node;
            entryPred = entryEta->input(1);
            entryToken = entryEta->input(0);
            preHb = entryEta->hyperblock;
        } else {
            entryToken = initIn;
            preHb = initIn.node->hyperblock;
            entryPred = {g.newConst(1, VT::Pred, preHb), 0};
        }

        // Hoist the address computation.
        auto addr = hoistValue(g, load->input(2), hb, 0);
        if (!addr)
            return false;

        // The hoisted load, gated by loop entry.
        Node* hoistedLoad = g.newNode(NodeKind::Load, VT::Word, preHb);
        hoistedLoad->size = load->size;
        hoistedLoad->signExtend = load->signExtend;
        hoistedLoad->rwSet = load->rwSet;
        hoistedLoad->partition = load->partition;
        hoistedLoad->memId = load->memId;
        hoistedLoad->loc = load->loc;
        hoistedLoad->hoisted = true;
        g.addInput(hoistedLoad, entryPred);
        g.addInput(hoistedLoad, entryToken);
        g.addInput(hoistedLoad, *addr);

        // The partition state entering the loop now follows the
        // hoisted load.
        if (entryEta) {
            g.setInput(entryEta, 0, {hoistedLoad, 1});
        } else {
            for (int i = 0; i < ring.merge->numInputs(); i++) {
                if (ring.merge->input(i) == initIn &&
                    !ring.merge->inputIsBackEdge(i) &&
                    i != ring.merge->deciderIndex) {
                    g.setInput(ring.merge, i, {hoistedLoad, 1});
                    break;
                }
            }
        }

        // Circulate the loaded value around the loop.
        Node* valEta = g.newNode(NodeKind::Eta, VT::Word, preHb);
        g.addInput(valEta, {hoistedLoad, 0});
        g.addInput(valEta, entryPred);
        Node* valMerge = g.newNode(NodeKind::Merge, VT::Word, hb);
        g.addInput(valMerge, {valEta, 0});
        Node* backEta = g.newNode(NodeKind::Eta, VT::Word, hb);
        g.addInput(backEta, {valMerge, 0});
        g.addInput(backEta, ring.backPred);
        g.addInput(valMerge, {backEta, 0}, /*backEdge=*/true);
        valMerge->deciderIndex = valMerge->numInputs();
        g.addInput(valMerge, ring.backPred, /*backEdge=*/true);

        g.replaceAllUses({load, 0}, {valMerge, 0});
        g.bypassToken(load, load->input(1));
        g.erase(load);
        ctx.count("opt.loop_invariant.hoisted");
        return true;
    }
};

} // namespace

void
registerLoopInvariantPass(PassRegistry& r)
{
    r.registerPass("loop_invariant", [] {
        return std::make_unique<LoopInvariantPass>();
    });
}

} // namespace cash
