/**
 * @file
 * Cross-call token-edge pruning from whole-program MOD/REF summaries.
 *
 * The builder threads every call through every token ring: without
 * interprocedural knowledge a call must be assumed to read and write
 * anything, so all memory traffic serializes at call boundaries.  The
 * MOD/REF analysis (analysis/modref.h) stamps each call node with the
 * locations the callee — transitively — may actually touch, resolved
 * through the caller's points-to bindings for the arguments.  This
 * pass removes every direct token edge between two side effects, at
 * least one of them a call, whose resolved effect sets are pairwise
 * disjoint under the alias oracle: no write–read, read–write or
 * write–write overlap means no ordering requirement.
 *
 * Edge removal preserves the transitive closure (same splice as
 * token_removal, Figure 5): the consumer inherits the producer's token
 * sources, and the consumer's own token consumers gain a direct edge
 * from the producer, so third parties ordered through the removed
 * edge stay ordered.  The later transitive_reduction rounds clean up
 * any redundancy the splice introduces.
 *
 * Every decision this pass makes is re-proved by the independent
 * interprocedural checker (analysis/interproc.h) under
 * `cashc --analyze` / --verify-each-pass.
 */
#include "opt/opt_util.h"
#include "opt/pass.h"

namespace cash {

namespace {

class InterprocTokenPruningPass : public Pass
{
  public:
    const char* name() const override
    {
        return "interproc_token_pruning";
    }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        if (!ctx.oracle)
            return false;
        bool changed = false;
        for (Node* n : g.liveNodes()) {
            if (n->dead || !sideEffectWithKnownEffects(n))
                continue;
            changed |= tryPruneIncoming(g, n, ctx);
        }
        return changed;
    }

  private:
    /** Load/Store/Call with bounded effect sets (never Return). */
    static bool
    sideEffectWithKnownEffects(const Node* n)
    {
        switch (n->kind) {
          case NodeKind::Load:
          case NodeKind::Store:
            return !n->rwSet.isTop();
          case NodeKind::Call:
            return n->callEffectsValid && !n->callReads.isTop() &&
                   !n->callWrites.isTop();
          default:
            return false;
        }
    }

    static void
    effects(const Node* n, LocationSet* reads, LocationSet* writes)
    {
        switch (n->kind) {
          case NodeKind::Load:
            *reads = n->rwSet;
            break;
          case NodeKind::Store:
            *writes = n->rwSet;
            break;
          case NodeKind::Call:
            *reads = n->callReads;
            *writes = n->callWrites;
            break;
          default:
            break;
        }
    }

    bool
    disjoint(const Node* a, const Node* b, OptContext& ctx) const
    {
        LocationSet ra, wa, rb, wb;
        effects(a, &ra, &wa);
        effects(b, &rb, &wb);
        return !ctx.oracle->mayOverlap(wa, rb) &&
               !ctx.oracle->mayOverlap(wb, ra) &&
               !ctx.oracle->mayOverlap(wa, wb);
    }

    bool
    tryPruneIncoming(Graph& g, Node* n, OptContext& ctx)
    {
        int ti = n->tokenInIndex();
        if (ti < 0 || ti >= n->numInputs() || !n->input(ti).valid())
            return false;
        optutil::expandTokenSources(n->input(ti), tokens_.sources);

        for (const PortRef& s : tokens_.sources) {
            Node* j = s.node;
            // Intraprocedural pairs belong to token_removal; this
            // pass only touches edges with a call endpoint.
            if (n->kind != NodeKind::Call && j->kind != NodeKind::Call)
                continue;
            if (!sideEffectWithKnownEffects(j))
                continue;
            if (!disjoint(n, j, ctx))
                continue;

            // Remove edge j → n, preserving the transitive closure:
            // n inherits j's sources and n's token consumers stay
            // ordered after j.
            optutil::removeTokenEdge(g, n, ti, s, tokens_);
            ctx.count("opt.interproc_token_pruning.pruned_edges");
            return true;
        }
        return false;
    }

    optutil::TokenScratch tokens_;
};

} // namespace

void
registerInterprocTokenPruningPass(PassRegistry& r)
{
    r.registerPass("interproc_token_pruning", [] {
        return std::make_unique<InterprocTokenPruningPass>();
    });
}

} // namespace cash
