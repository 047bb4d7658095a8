/**
 * @file
 * Store-before-store removal (paper §5.2, Figure 8; step C→D of the
 * §2 example).
 *
 * When store s1's token flows directly to store s2 at the same
 * address, s1's result is overwritten: s1 needs to execute only when
 * s2 does not, so its predicate becomes p1 ∧ ¬p2.  If the boolean
 * machinery proves p1 ⇒ p2 (post-dominance), the predicate is
 * constant false and dead-code elimination removes s1 entirely.
 */
#include "analysis/boolean.h"
#include "opt/opt_util.h"
#include "opt/pass.h"
#include "pegasus/reachability.h"

namespace cash {

namespace {

class DeadStorePass : public Pass
{
  public:
    const char* name() const override { return "dead_store"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        bool changed = false;
        std::vector<Node*> stores;
        g.forEach([&](Node* n) {
            if (n->kind == NodeKind::Store)
                stores.push_back(n);
        });
        Reachability reach(g);
        for (Node* s1 : stores) {
            if (!s1->dead)
                changed |= weaken(g, reach, s1, ctx);
        }
        return changed;
    }

  private:
    bool
    weaken(Graph& g, Reachability& reach, Node* s1, OptContext& ctx)
    {
        if (isFalsePred(s1->input(0)))
            return false;  // already dead; §4.1 cleans it up
        optutil::directTokenConsumers(s1, consumers_);
        for (Node* s2 : consumers_) {
            if (s2->kind != NodeKind::Store)
                continue;
            if (!(s2->input(2) == s1->input(2)) || s2->size != s1->size)
                continue;

            PortRef p1 = s1->input(0);
            PortRef p2 = s2->input(0);
            // Idempotence: p1 already conjoins ¬p2.
            if (alreadyWeakened(p1, p2))
                continue;

            // Cycle guard: p2 must not derive from s1's token.
            if (reach.reaches(s1, p2.node))
                continue;

            if (predImplies(p1, p2)) {
                // s2 post-dominates s1: s1 is dead (Figure 1 C→D).
                g.setInput(s1, 0,
                           {g.newConst(0, VT::Pred, s1->hyperblock), 0});
                ctx.count("opt.dead_store.removed");
            } else {
                Node* notP2 = g.newArith1(Op::NotBool, p2,
                                          s1->hyperblock, VT::Pred);
                Node* andP = g.newArith(Op::And, p1, {notP2, 0},
                                        s1->hyperblock, VT::Pred);
                g.setInput(s1, 0, {andP, 0});
                ctx.count("opt.dead_store.weakened");
            }
            return true;
        }
        return false;
    }

    /** Is p1 of the shape ... ∧ ¬p2 already? */
    bool
    alreadyWeakened(PortRef p1, PortRef p2) const
    {
        if (p1.node->kind != NodeKind::Arith || p1.node->op != Op::And)
            return false;
        for (int i = 0; i < 2; i++) {
            PortRef in = p1.node->input(i);
            if (in.node->kind == NodeKind::Arith &&
                in.node->op == Op::NotBool && in.node->input(0) == p2)
                return true;
        }
        return false;
    }

    /** weaken()'s token consumers of s1. */
    std::vector<Node*> consumers_;
};

} // namespace

void
registerDeadStorePass(PassRegistry& r)
{
    r.registerPass("dead_store", [] {
        return std::make_unique<DeadStorePass>();
    });
}

} // namespace cash
