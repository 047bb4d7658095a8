/**
 * @file
 * Transitive reduction of the token graph (paper §3.4).
 *
 * Keeps the invariant every other memory optimization relies on: a
 * token edge between two operations means they may conflict AND no
 * intervening operation affects the location.  Implemented by pruning
 * combine fan-ins: a source is redundant when it is already ordered
 * (through unconditional intra-hyperblock token flow) before another
 * source of the same consumer.
 */
#include "opt/opt_util.h"
#include "opt/pass.h"

namespace cash {

namespace {

class TransitiveReductionPass : public Pass
{
  public:
    const char* name() const override { return "transitive_reduction"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        bool changed = false;
        for (Node* n : g.liveNodes()) {
            if (n->dead)
                continue;
            int ti = tokenInputIndex(n);
            if (ti < 0 || ti >= n->numInputs())
                continue;
            changed |= reduceInput(g, n, ti, ctx);
        }
        return changed;
    }

  private:
    /** Token-carrying input of consumers we reduce. */
    int
    tokenInputIndex(const Node* n) const
    {
        switch (n->kind) {
          case NodeKind::Load:
          case NodeKind::Store:
          case NodeKind::Call:
          case NodeKind::Return:
          case NodeKind::TokenGen:
            return n->tokenInIndex();
          case NodeKind::Eta:
            return n->type == VT::Token ? 0 : -1;
          default:
            return -1;
        }
    }

    bool
    reduceInput(Graph& g, Node* n, int ti, OptContext& ctx)
    {
        PortRef in = n->input(ti);
        if (!in.valid())
            return false;
        std::vector<PortRef>& sources = sources_;
        optutil::expandTokenSources(in, sources);
        if (sources.size() < 2) {
            // Still collapse combine chains of one effective source.
            if (in.node->kind == NodeKind::Combine &&
                sources.size() == 1) {
                g.setInput(n, ti, sources[0]);
                return true;
            }
            return false;
        }

        std::vector<PortRef>& kept = kept_;
        kept.clear();
        int dropped = 0;
        for (size_t i = 0; i < sources.size(); i++) {
            bool redundant = false;
            for (size_t j = 0; j < sources.size() && !redundant; j++) {
                if (i == j)
                    continue;
                // sources[i] already ordered before sources[j]?
                if (optutil::orderedAfter(sources[i].node,
                                          sources[j].node))
                    redundant = true;
            }
            if (redundant)
                dropped++;
            else
                kept.push_back(sources[i]);
        }

        bool flattened = in.node->kind == NodeKind::Combine &&
                         (dropped > 0 ||
                          static_cast<int>(kept.size()) !=
                              in.node->numInputs());
        if (dropped == 0 && !flattened)
            return false;

        optutil::setTokenInput(g, n, ti, kept);
        ctx.count("opt.transitive_reduction.dropped", dropped);
        return true;
    }

    /** reduceInput()'s lists, kept across calls. */
    std::vector<PortRef> sources_, kept_;
};

} // namespace

void
registerTransitiveReductionPass(PassRegistry& r)
{
    r.registerPass("transitive_reduction", [] {
        return std::make_unique<TransitiveReductionPass>();
    });
}

} // namespace cash
