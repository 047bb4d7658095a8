/**
 * @file
 * Loop decoupling (paper §6.3, Figures 15-17).
 *
 * When the accesses to a partition carry loop-borne dependences at
 * *constant* distances, the loop is vertically sliced: every access
 * issues from the generator (monotone-style pipelining), and each
 * dependent access is additionally gated by a token generator tk(d)
 * fed by the access it depends on.  The trailing access may slip at
 * most d iterations ahead; the leading one may run arbitrarily far
 * ahead (the generator stores surplus tokens in its counter).
 */
#include "analysis/loop_rings.h"
#include "opt/pass.h"
#include "opt/ring_split.h"

namespace cash {

namespace {

class LoopDecouplingPass : public Pass
{
  public:
    const char* name() const override { return "loop_decoupling"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        bool changed = false;
        nodes_.reset(g);
        for (const HbInfo& hb : g.hyperblocks) {
            if (!hb.isLoop)
                continue;
            for (int p = 0; p < g.numPartitions; p++) {
                if (!findTokenRing(g, nodes_, hb.id, p, ring_) ||
                    ring_.alreadySplit || ring_.ops.empty())
                    continue;
                auto gates = ringsplit::analyzeRingDependences(g, ring_);
                // This pass exists for the distance-gated case; the
                // empty-gate cases belong to §6.1/§6.2.
                if (!gates || gates->empty())
                    continue;
                ringsplit::splitRing(g, ring_, *gates, ctx);
                nodes_.invalidate();
                ctx.count("opt.loop_decoupling.loops");
                changed = true;
            }
        }
        return changed;
    }

  private:
    /** Ring discovery scratch and the ring found, kept across runs. */
    HyperblockNodes nodes_;
    TokenRing ring_;
};

} // namespace

void
registerLoopDecouplingPass(PassRegistry& r)
{
    r.registerPass("loop_decoupling", [] {
        return std::make_unique<LoopDecouplingPass>();
    });
}

} // namespace cash
