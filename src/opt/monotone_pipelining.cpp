/**
 * @file
 * Address-monotonicity loop pipelining (paper §6.2, Figures 13-14).
 *
 * When every access to a partition inside a loop walks a strictly
 * monotone address sequence (induction-variable analysis, after
 * Wolfe) and no two accesses can conflict across iterations, the
 * partition's token ring splits exactly like the read-only case:
 * iterations issue in pipelined fashion.
 */
#include "analysis/loop_rings.h"
#include "opt/pass.h"
#include "opt/ring_split.h"

namespace cash {

namespace {

class MonotonePipeliningPass : public Pass
{
  public:
    const char* name() const override { return "monotone_pipelining"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        bool changed = false;
        HyperblockNodes nodes(g);
        for (const HbInfo& hb : g.hyperblocks) {
            if (!hb.isLoop)
                continue;
            for (int p = 0; p < g.numPartitions; p++) {
                auto ring = findTokenRing(g, nodes, hb.id, p);
                if (!ring || ring->alreadySplit || ring->ops.empty())
                    continue;
                bool anyWrite = false;
                for (Node* op : ring->ops)
                    if (op->kind == NodeKind::Store)
                        anyWrite = true;
                if (!anyWrite)
                    continue;  // §6.1 owns the read-only case
                auto gates = ringsplit::analyzeRingDependences(g, *ring);
                // Monotone splitting requires *no* cross-iteration
                // dependence; distances are §6.3's domain.
                if (!gates || !gates->empty())
                    continue;
                ringsplit::splitRing(g, *ring, {}, ctx);
                nodes.invalidate();
                ctx.count("opt.monotone.loops");
                changed = true;
            }
        }
        return changed;
    }
};

} // namespace

void
registerMonotonePipeliningPass(PassRegistry& r)
{
    r.registerPass("monotone_pipelining", [] {
        return std::make_unique<MonotonePipeliningPass>();
    });
}

} // namespace cash
