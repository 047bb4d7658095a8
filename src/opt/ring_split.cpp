#include "opt/ring_split.h"

#include <cstdlib>

#include "analysis/induction.h"
#include "analysis/symbolic.h"
#include "opt/opt_util.h"

namespace cash {
namespace ringsplit {

std::optional<std::vector<Gate>>
analyzeRingDependences(Graph& g, TokenRing& ring)
{
    InductionAnalysis ivs(g);
    SymbolicAddress sym(&ivs);
    int hb = ring.hyperblock;

    struct OpExpr
    {
        Node* op;
        AffineExpr base;  ///< Address with the ITER term removed.
        int64_t step;
    };
    std::vector<OpExpr> exprs;
    for (Node* op : ring.ops) {
        AffineExpr e = sym.expr(op->input(2));
        if (!e.valid)
            return std::nullopt;
        int64_t s = e.iterCoeff(hb);
        if (s == 0)
            return std::nullopt;  // address not strictly monotone
        if (std::abs(s) < op->size)
            return std::nullopt;  // consecutive iterations overlap
        exprs.push_back({op, e.withoutIter(hb), s});
    }

    std::vector<Gate> gates;
    for (size_t i = 0; i < exprs.size(); i++) {
        for (size_t j = i + 1; j < exprs.size(); j++) {
            Node* x = exprs[i].op;
            Node* y = exprs[j].op;
            if (x->kind == NodeKind::Load && y->kind == NodeKind::Load)
                continue;  // reads commute
            if (exprs[i].step != exprs[j].step)
                return std::nullopt;
            int64_t s = exprs[i].step;
            AffineExpr diff = exprs[i].base.minus(exprs[j].base);
            int64_t c;
            if (!diff.isConstant(&c))
                return std::nullopt;
            // addrX(k) == addrY(m)  ⇔  c == s·(m−k); byte overlap can
            // only happen near that alignment because |s| ≥ both sizes.
            int64_t S = std::abs(s);
            if (c % S != 0) {
                // Never the same address at any iteration pair; check
                // residual byte overlap of the wider access.
                int64_t r = ((c % S) + S) % S;
                int64_t z = std::max(x->size, y->size);
                if (r < z || S - r < z)
                    return std::nullopt;
                continue;
            }
            int64_t d = c / s;
            if (d == 0) {
                // Same address each iteration: the intra-iteration
                // token edge must already order the pair.
                bool ordered =
                    optutil::orderedAfter(x, y) ||
                    optutil::orderedAfter(y, x);
                if (!ordered)
                    return std::nullopt;
                continue;
            }
            // X@k conflicts with Y@(k+d): for d>0 Y trails X; the
            // trailing op may slip at most |d| iterations ahead.
            if (d > 0)
                gates.push_back({y, x, d});
            else
                gates.push_back({x, y, -d});
        }
    }
    return gates;
}

void
splitRing(Graph& g, TokenRing& ring, const std::vector<Gate>& gates,
          OptContext& ctx)
{
    CASH_ASSERT(!ring.alreadySplit, "splitting a split ring");
    int hb = ring.hyperblock;
    Node* merge = ring.merge;

    // 1. Generator: the merge's back input recirculates the merge
    //    itself, gated by the loop-continuation predicate.
    Node* genEta = g.newNode(NodeKind::Eta, VT::Token, hb);
    g.addInput(genEta, {merge, 0});
    g.addInput(genEta, ring.backPred);
    for (int i = 0; i < merge->numInputs(); i++) {
        if (i != merge->deciderIndex && merge->inputIsBackEdge(i)) {
            g.setInput(merge, i, {genEta, 0});
            break;
        }
    }

    // 2. Collector ring (a mu-merge: decider = the loop predicate).
    Node* collector = g.newNode(NodeKind::Merge, VT::Token, hb);
    for (const PortRef& init : ring.initialInputs)
        g.addInput(collector, init);
    Node* state = g.newNode(NodeKind::Combine, VT::Token, hb);
    g.addInput(state, {collector, 0});
    for (Node* op : ring.danglingOps)
        g.addInput(state, {op, op->tokenOutPort()});
    Node* colEta = g.newNode(NodeKind::Eta, VT::Token, hb);
    g.addInput(colEta, {state, 0});
    g.addInput(colEta, ring.backPred);
    g.addInput(collector, {colEta, 0}, /*backEdge=*/true);
    collector->deciderIndex = collector->numInputs();
    g.addInput(collector, ring.backPred, /*backEdge=*/true);

    // 3. Exit etas deliver the collected state.
    for (Node* eta : ring.exitEtas)
        g.setInput(eta, 0, {state, 0});

    // 4. The old back eta is obsolete.
    CASH_ASSERT(ring.backEta->uses().empty(),
                "old back eta still in use");
    g.erase(ring.backEta);

    // 5. Slip-bounding token generators (§6.3).
    std::vector<PortRef> sources;
    for (const Gate& gate : gates) {
        Node* tk = g.newNode(NodeKind::TokenGen, VT::Token, hb);
        tk->tkCount = static_cast<int>(gate.distance);
        g.addInput(tk, ring.backPred);
        // Loop-carried: the generator's initial credits are what break
        // the static cycle follower → leader → tk → follower.
        g.addInput(tk, {gate.leader, gate.leader->tokenOutPort()},
                   /*backEdge=*/true);
        optutil::addTokenSource(g, gate.follower, {tk, 0}, sources);
        ctx.count("opt.ring_split.tokengens");
    }
    ctx.count("opt.ring_split.rings");
}

} // namespace ringsplit
} // namespace cash
