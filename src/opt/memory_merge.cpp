/**
 * @file
 * Merging equivalent memory operations (paper §5.1, Figure 7).
 *
 * Two accesses of the same address and width whose token inputs come
 * from the same sources (i.e. they directly follow the same memory
 * state, with nothing in between) are combined into one access whose
 * predicate is the disjunction of the originals.  This generalizes
 * global CSE, partial redundancy elimination and code hoisting for
 * memory operations.  Stores additionally mux their data by the
 * original predicates.
 */
#include <algorithm>

#include "opt/opt_util.h"
#include "opt/pass.h"
#include "pegasus/reachability.h"

namespace cash {

namespace {

/** Token source sets equal as sets? */
bool
sameSources(const std::vector<PortRef>& a, const std::vector<PortRef>& b)
{
    if (a.size() != b.size())
        return false;
    for (const PortRef& x : a) {
        bool found = false;
        for (const PortRef& y : b)
            if (x == y)
                found = true;
        if (!found)
            return false;
    }
    return true;
}

class MemoryMergePass : public Pass
{
  public:
    const char* name() const override { return "memory_merge"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        bool changed = false;
        // Collect memory ops grouped by (hyperblock, kind, addr, size).
        std::vector<Node*> ops;
        g.forEach([&](Node* n) {
            if (n->isMemoryAccess())
                ops.push_back(n);
        });

        Reachability reach(g);
        for (size_t i = 0; i < ops.size(); i++) {
            if (ops[i]->dead)
                continue;
            for (size_t j = i + 1; j < ops.size(); j++) {
                if (ops[i]->dead)
                    break;
                if (ops[j]->dead)
                    continue;
                if (tryMerge(g, reach, ops[i], ops[j], ctx))
                    changed = true;
            }
        }
        return changed;
    }

  private:
    bool
    compatible(const Node* a, const Node* b) const
    {
        return a->kind == b->kind && a->hyperblock == b->hyperblock &&
               a->size == b->size && a->signExtend == b->signExtend &&
               a->input(2) == b->input(2);  // same address node
    }

    bool
    tryMerge(Graph& g, Reachability& reach, Node* a, Node* b,
             OptContext& ctx)
    {
        if (!compatible(a, b))
            return false;
        std::vector<PortRef> sa =
            optutil::expandTokenSources(a->input(a->tokenInIndex()));
        std::vector<PortRef> sb =
            optutil::expandTokenSources(b->input(b->tokenInIndex()));
        if (!sameSources(sa, sb))
            return false;

        PortRef pa = a->input(0), pb = b->input(0);
        // Cycle guard: the surviving access must not (transitively)
        // feed the other's predicate or stored value.
        if (reach.reaches(b, pa.node) || reach.reaches(a, pb.node))
            return false;
        if (a->kind == NodeKind::Store &&
            (reach.reaches(b, a->input(3).node) ||
             reach.reaches(a, b->input(3).node)))
            return false;

        // Keep `a`; widen its predicate to pa ∨ pb.
        Node* orPred =
            g.newArith(Op::Or, pa, pb, a->hyperblock, VT::Pred);

        if (a->kind == NodeKind::Store) {
            // Mux the stored data by the original predicates.
            PortRef va = a->input(3), vb = b->input(3);
            if (!(va == vb)) {
                Node* mux =
                    g.newNode(NodeKind::Mux, VT::Word, a->hyperblock);
                g.addInput(mux, pa);
                g.addInput(mux, va);
                g.addInput(mux, pb);
                g.addInput(mux, vb);
                g.setInput(a, 3, {mux, 0});
            }
            ctx.count("opt.memory_merge.stores");
        } else {
            // Loads: forward a's data everywhere.
            g.replaceAllUses({b, 0}, {a, 0});
            ctx.count("opt.memory_merge.loads");
        }
        g.setInput(a, 0, {orPred, 0});

        // b's token consumers now follow a.
        g.replaceAllUses({b, b->tokenOutPort()},
                         {a, a->tokenOutPort()});
        g.erase(b);
        return true;
    }
};

} // namespace

void
registerMemoryMergePass(PassRegistry& r)
{
    r.registerPass("memory_merge", [] {
        return std::make_unique<MemoryMergePass>();
    });
}

} // namespace cash
