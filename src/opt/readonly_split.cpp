/**
 * @file
 * Read-only loop splitting (paper §6.1, Figures 12-13).
 *
 * When every access to a memory partition inside a loop is a read, the
 * per-iteration serialization through the token ring is unnecessary:
 * the ring becomes a generator (enabling all iterations' reads to
 * issue) plus a collector (so the loop only terminates when every read
 * has occurred).
 */
#include "analysis/loop_rings.h"
#include "opt/pass.h"
#include "opt/ring_split.h"

namespace cash {

namespace {

class ReadonlySplitPass : public Pass
{
  public:
    const char* name() const override { return "readonly_split"; }

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
                bool allReads = true;
                for (Node* op : ring->ops)
                    if (op->kind != NodeKind::Load)
                        allReads = false;
                if (!allReads)
                    continue;
                ringsplit::splitRing(g, *ring, {}, ctx);
                nodes.invalidate();
                ctx.count("opt.readonly_split.loops");
                changed = true;
            }
        }
        return changed;
    }
};

} // namespace

void
registerReadonlySplitPass(PassRegistry& r)
{
    r.registerPass("readonly_split", [] {
        return std::make_unique<ReadonlySplitPass>();
    });
}

} // namespace cash
