/**
 * @file
 * Token-edge removal by address disambiguation (paper §4.3).
 *
 * For each pair of directly synchronized memory operations, try to
 * prove they can never touch the same address:
 *  (1) symbolic comparison of the affine address expressions,
 *  (2) induction-variable analysis (two IVs with the same step and
 *      provably different starts cancel inside the affine machinery),
 *  (3) disjoint read/write sets from the pointer analysis (this pays
 *      off on coarsely-built graphs).
 * When the proof succeeds the edge is removed and replacement edges
 * preserve the transitive closure (Figure 5): the consumer inherits
 * the producer's sources, and the consumer's own token consumers gain
 * a direct edge from the producer.
 */
#include "analysis/induction.h"
#include "analysis/symbolic.h"
#include "opt/opt_util.h"
#include "opt/pass.h"

namespace cash {

namespace {

class TokenRemovalPass : public Pass
{
  public:
    const char* name() const override { return "token_removal"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        InductionAnalysis ivs(g);
        SymbolicAddress sym(&ivs);
        bool changed = false;

        for (Node* n : g.liveNodes()) {
            if (n->dead || !n->isMemoryAccess())
                continue;
            changed |= tryRemoveIncoming(g, n, sym, ctx);
        }
        return changed;
    }

  private:
    bool
    disambiguate(const Node* a, const Node* b, SymbolicAddress& sym,
                 OptContext& ctx) const
    {
        // Pointer analysis: disjoint read/write sets.
        if (ctx.oracle && !ctx.oracle->mayOverlap(a->rwSet, b->rwSet))
            return true;
        // Symbolic / induction-variable address comparison.
        AffineExpr ea = sym.expr(a->input(2));
        AffineExpr eb = sym.expr(b->input(2));
        return SymbolicAddress::disjoint(ea, a->size, eb, b->size);
    }

    bool
    tryRemoveIncoming(Graph& g, Node* n, SymbolicAddress& sym,
                      OptContext& ctx)
    {
        int ti = n->tokenInIndex();
        optutil::expandTokenSources(n->input(ti), tokens_.sources);

        for (const PortRef& s : tokens_.sources) {
            Node* j = s.node;
            if (!j->isMemoryAccess())
                continue;  // ring merges / calls stay
            if (!disambiguate(n, j, sym, ctx))
                continue;

            // Remove edge j → n, preserving the transitive closure.
            optutil::removeTokenEdge(g, n, ti, s, tokens_);
            ctx.count("opt.token_removal.removed");
            return true;
        }
        return false;
    }

    optutil::TokenScratch tokens_;
};

} // namespace

void
registerTokenRemovalPass(PassRegistry& r)
{
    r.registerPass("token_removal", [] {
        return std::make_unique<TokenRemovalPass>();
    });
}

} // namespace cash
