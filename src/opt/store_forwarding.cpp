/**
 * @file
 * Load-after-store removal (paper §5.3, Figure 9; step B→C of the §2
 * example).
 *
 * A load whose token sources include stores to the same address
 * bypasses them: a decoded mux selects the stored value when the
 * corresponding store executed, and the load itself runs only when no
 * forwarding store did.  When the stores collectively dominate the
 * load (Gupta), the residual load predicate folds to false and dead
 * code elimination removes the load entirely.
 */
#include "analysis/boolean.h"
#include "opt/opt_util.h"
#include "opt/pass.h"
#include "pegasus/reachability.h"

namespace cash {

namespace {

class StoreForwardingPass : public Pass
{
  public:
    const char* name() const override { return "store_forwarding"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        bool changed = false;
        std::vector<Node*> loads;
        g.forEach([&](Node* n) {
            if (n->kind == NodeKind::Load && !n->storeForwarded)
                loads.push_back(n);
        });
        Reachability reach(g);
        for (Node* load : loads) {
            if (!load->dead)
                changed |= forward(g, reach, load, ctx);
        }
        return changed;
    }

  private:
    bool
    forward(Graph& g, Reachability& reach, Node* load, OptContext& ctx)
    {
        std::vector<PortRef> sources =
            optutil::expandTokenSources(load->input(1));
        std::vector<Node*> stores;
        for (const PortRef& s : sources) {
            if (s.node->kind == NodeKind::Store &&
                s.node->input(2) == load->input(2) &&
                s.node->size == load->size)
                stores.push_back(s.node);
        }
        if (stores.empty())
            return false;

        // Cycle guard: the stores' predicates and data must not derive
        // from this load's output.
        for (Node* s : stores) {
            if (reach.reaches(load, s->input(0).node) ||
                reach.reaches(load, s->input(3).node))
                return false;
        }

        // The mux below decodes on store predicates, so they must be
        // one-hot.  Figure 9's stores are branch-exclusive; stores
        // *sequential* in the token graph (s0 |= ..; s0 &= ..) can
        // both fire, and then the one nearest the load defines memory.
        // Record, per store, every store ordered after it — its mux
        // arm must exclude those — and bail when two stores are
        // ordered in neither direction yet not predicate-disjoint
        // (no static priority exists).
        const size_t ns = stores.size();
        std::vector<std::vector<size_t>> later(ns);
        for (size_t i = 0; i < ns; i++) {
            for (size_t j = i + 1; j < ns; j++) {
                bool ij = optutil::orderedAfter(stores[i], stores[j]);
                bool ji = optutil::orderedAfter(stores[j], stores[i]);
                if (ij && ji)
                    return false;  // token ring: no static priority
                if (ij)
                    later[i].push_back(j);
                else if (ji)
                    later[j].push_back(i);
                else if (!predDisjoint(stores[i]->input(0),
                                       stores[j]->input(0)))
                    return false;
            }
        }

        PortRef pl = load->input(0);
        int hb = load->hyperblock;

        // anyStore = pS1 ∨ pS2 ∨ ...
        PortRef anyStore = stores[0]->input(0);
        for (size_t i = 1; i < stores.size(); i++)
            anyStore = {g.newArith(Op::Or, anyStore,
                                   stores[i]->input(0), hb, VT::Pred),
                        0};

        // Residual load predicate: pl ∧ ¬anyStore.
        PortRef residual;
        bool dominated = predImplies(pl, anyStore);
        if (dominated) {
            residual = {g.newConst(0, VT::Pred, hb), 0};
        } else {
            Node* notAny = g.newArith1(Op::NotBool, anyStore, hb,
                                       VT::Pred);
            residual = {g.newArith(Op::And, pl, {notAny, 0}, hb,
                                   VT::Pred),
                        0};
        }

        // Mux: stored values, then the residual load.  A store's arm
        // fires only when no store nearer the load does.
        Node* mux = g.newNode(NodeKind::Mux, VT::Word, hb);
        g.replaceAllUses({load, 0}, {mux, 0});
        for (size_t i = 0; i < ns; i++) {
            PortRef arm = stores[i]->input(0);
            for (size_t j : later[i]) {
                Node* notJ = g.newArith1(Op::NotBool,
                                         stores[j]->input(0), hb,
                                         VT::Pred);
                arm = {g.newArith(Op::And, arm, {notJ, 0}, hb,
                                  VT::Pred),
                       0};
            }
            g.addInput(mux, arm);
            g.addInput(mux, stores[i]->input(3));
        }
        g.addInput(mux, residual);
        g.addInput(mux, {load, 0});

        g.setInput(load, 0, residual);
        g.touch(load);
        load->storeForwarded = true;
        ctx.count(dominated ? "opt.store_forwarding.removed"
                            : "opt.store_forwarding.bypassed");
        return true;
    }
};

} // namespace

void
registerStoreForwardingPass(PassRegistry& r)
{
    r.registerPass("store_forwarding", [] {
        return std::make_unique<StoreForwardingPass>();
    });
}

} // namespace cash
