/**
 * @file
 * Dead-code elimination, including predicated-false memory operations
 * (paper §4.1) and structural simplification of muxes, merges, etas
 * and combines.
 *
 * A run sweeps the nodes in ascending id order until a sweep changes
 * nothing (at most 64 sweeps).  Only the first sweep visits every
 * node; later ones visit the nodes whose decision may have changed
 * since their last visit (optutil::SweepWorklist), so a run makes
 * exactly the rewrites of full sweeps, in the same order.  A decision
 * reads the node's own inputs and use list (and the immutable kind and
 * value of its inputs), so every mutation marks the nodes whose input
 * or use list it changes, and a created constant is marked for the
 * next sweep, which is the first that would have seen it.
 */
#include <vector>

#include "opt/opt_util.h"
#include "opt/pass.h"
#include "support/diagnostics.h"

namespace cash {

namespace {

bool
isConstVal(const PortRef& p, int64_t v)
{
    return p.node->kind == NodeKind::Const && p.node->constValue == v;
}

bool
isConstFalse(const PortRef& p)
{
    return isConstVal(p, 0);
}

bool
isConstTrue(const PortRef& p)
{
    return p.node->kind == NodeKind::Const && p.node->constValue != 0;
}

/** The pass's own counters (opt.dead_code.*), tallied per run. */
enum TallyKey
{
    kPure, kFalseLoad, kUnusedLoad, kFalseStore, kFalseCall, kMuxArm,
    kMuxConst, kMuxSingle, kMuxUniform, kCombineDup, kCombineSingle,
    kMerge, kDecider, kMergeSingle, kMergeEmpty, kEta, kEtaFalse,
    kEtaTrue, kNumTallyKeys
};
const char* const kTallyKeys[kNumTallyKeys] = {
    "opt.dead_code.pure",          "opt.dead_code.falseLoad",
    "opt.dead_code.unusedLoad",    "opt.dead_code.falseStore",
    "opt.dead_code.falseCall",     "opt.dead_code.muxArm",
    "opt.dead_code.muxConst",      "opt.dead_code.muxSingle",
    "opt.dead_code.muxUniform",    "opt.dead_code.combineDup",
    "opt.dead_code.combineSingle", "opt.dead_code.merge",
    "opt.dead_code.decider",       "opt.dead_code.mergeSingle",
    "opt.dead_code.mergeEmpty",    "opt.dead_code.eta",
    "opt.dead_code.etaFalse",      "opt.dead_code.etaTrue"};
using Tally = optutil::RunTally<kNumTallyKeys>;

class DeadCodePass : public Pass
{
  public:
    const char* name() const override { return "dead_code"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        Tally tally(ctx, kTallyKeys);
        work_.reset(g);
        bool anyChange = false;
        bool changed = true;
        int guard = 0;
        while (changed && guard++ < 64) {
            changed = false;
            work_.beginSweep(g);
            while (Node* n = work_.next()) {
                if (n->dead)
                    continue;
                changed |= simplify(g, n, tally);
            }
            anyChange |= changed;
        }
        return anyChange;
    }

  private:
    /** Nodes the next sweeps visit. */
    optutil::SweepWorklist work_;
    /** simplifyEta()'s copy of a use list. */
    std::vector<Use> uses_;

    // The graph mutators, each marking the nodes whose input or use
    // list it changes.

    void
    markInputs(const Node* n)
    {
        for (const PortRef& in : n->inputs())
            if (in.valid())
                work_.mark(in.node);
    }

    void
    erase(Graph& g, Node* n)
    {
        markInputs(n);
        g.erase(n);
    }

    void
    markRewire(PortRef from, PortRef to)
    {
        for (const Use& u : from.node->uses())
            work_.mark(u.user);
        work_.mark(from.node);
        work_.mark(to.node);
    }

    void
    replaceAllUses(Graph& g, PortRef from, PortRef to)
    {
        markRewire(from, to);
        g.replaceAllUses(from, to);
    }

    void
    bypassToken(Graph& g, Node* victim, PortRef replacement)
    {
        markRewire({victim, victim->tokenOutPort()}, replacement);
        g.bypassToken(victim, replacement);
    }

    void
    removeInput(Graph& g, Node* n, int index)
    {
        work_.mark(n);
        markInputs(n);
        g.removeInput(n, index);
    }

    void
    removeDecider(Graph& g, Node* n)
    {
        work_.mark(n);
        markInputs(n);
        g.removeDecider(n);
    }

    Node*
    newZero(Graph& g, VT type, int hyperblock)
    {
        Node* c = g.newConst(0, type, hyperblock);
        work_.mark(c);
        return c;
    }

    bool
    simplify(Graph& g, Node* n, Tally& tally)
    {
        switch (n->kind) {
          case NodeKind::Arith:
          case NodeKind::Mux:
            if (n->uses().empty()) {
                erase(g, n);
                tally.bump(kPure);
                return true;
            }
            if (n->kind == NodeKind::Mux)
                return simplifyMux(g, n, tally);
            return false;

          case NodeKind::Const:
            if (n->uses().empty()) {
                erase(g, n);
                return true;
            }
            return false;

          case NodeKind::Combine:
            return simplifyCombine(g, n, tally);

          case NodeKind::Merge:
            return simplifyMerge(g, n, tally);

          case NodeKind::Eta:
            return simplifyEta(g, n, tally);

          case NodeKind::Load:
            // §4.1: false predicate → the op never runs; its token
            // flows straight through.  A load whose value is unused is
            // equally dead.
            if (isConstFalse(n->input(0)) || dataUnused(n)) {
                bool predFalse = isConstFalse(n->input(0));
                Node* zero = newZero(g, VT::Word, n->hyperblock);
                replaceAllUses(g, {n, 0}, {zero, 0});
                bypassToken(g, n, n->input(1));
                erase(g, n);
                if (zero->uses().empty())
                    erase(g, zero);
                tally.bump(predFalse ? kFalseLoad : kUnusedLoad);
                return true;
            }
            return false;

          case NodeKind::Store:
            if (isConstFalse(n->input(0))) {
                bypassToken(g, n, n->input(1));
                erase(g, n);
                tally.bump(kFalseStore);
                return true;
            }
            return false;

          case NodeKind::Call:
            if (isConstFalse(n->input(0))) {
                Node* zero = newZero(g, VT::Word, n->hyperblock);
                replaceAllUses(g, {n, 0}, {zero, 0});
                bypassToken(g, n, n->input(1));
                erase(g, n);
                if (zero->uses().empty())
                    erase(g, zero);
                tally.bump(kFalseCall);
                return true;
            }
            return false;

          default:
            return false;
        }
    }

    bool
    dataUnused(const Node* n) const
    {
        for (const Use& u : n->uses())
            if (u.user->input(u.index) == PortRef{const_cast<Node*>(n), 0})
                return false;
        return true;
    }

    bool
    simplifyMux(Graph& g, Node* n, Tally& tally)
    {
        // Drop arms with constant-false predicates.
        for (int i = 0; i < n->numInputs(); i += 2) {
            if (isConstFalse(n->input(i))) {
                removeInput(g, n, i + 1);
                removeInput(g, n, i);
                tally.bump(kMuxArm);
                return true;
            }
        }
        // A constant-true arm dominates (predicates are one-hot).
        for (int i = 0; i < n->numInputs(); i += 2) {
            if (isConstTrue(n->input(i))) {
                PortRef v = n->input(i + 1);
                replaceAllUses(g, {n, 0}, v);
                erase(g, n);
                tally.bump(kMuxConst);
                return true;
            }
        }
        if (n->numInputs() == 2) {
            PortRef v = n->input(1);
            replaceAllUses(g, {n, 0}, v);
            erase(g, n);
            tally.bump(kMuxSingle);
            return true;
        }
        // All arms carry the same value.
        bool allSame = n->numInputs() >= 2;
        for (int i = 3; i < n->numInputs(); i += 2)
            if (n->input(i) != n->input(1))
                allSame = false;
        if (allSame && n->numInputs() > 2) {
            PortRef v = n->input(1);
            replaceAllUses(g, {n, 0}, v);
            erase(g, n);
            tally.bump(kMuxUniform);
            return true;
        }
        return false;
    }

    bool
    simplifyCombine(Graph& g, Node* n, Tally& tally)
    {
        if (n->uses().empty()) {
            erase(g, n);
            return true;
        }
        // Dedupe inputs.
        for (int i = 0; i < n->numInputs(); i++) {
            for (int j = i + 1; j < n->numInputs(); j++) {
                if (n->input(i) == n->input(j)) {
                    removeInput(g, n, j);
                    tally.bump(kCombineDup);
                    return true;
                }
            }
        }
        if (n->numInputs() == 1) {
            replaceAllUses(g, {n, 0}, n->input(0));
            erase(g, n);
            tally.bump(kCombineSingle);
            return true;
        }
        return false;
    }

    bool
    simplifyMerge(Graph& g, Node* n, Tally& tally)
    {
        if (n->uses().empty()) {
            erase(g, n);
            tally.bump(kMerge);
            return true;
        }
        // A mu-merge whose back inputs all vanished degenerates to a
        // plain merge; drop the now-meaningless decider.
        if (n->deciderIndex >= 0) {
            bool hasBack = false;
            for (int i = 0; i < n->numInputs(); i++)
                if (i != n->deciderIndex && n->inputIsBackEdge(i))
                    hasBack = true;
            if (!hasBack) {
                removeDecider(g, n);
                tally.bump(kDecider);
                return true;
            }
        }
        if (n->numInputs() == 1 && !n->inputIsBackEdge(0) &&
            n->input(0).node->kind != NodeKind::Eta) {
            // Eta-fed merges stay: they filter the end-of-stream
            // markers etas emit on not-taken activations.
            replaceAllUses(g, {n, 0}, n->input(0));
            erase(g, n);
            tally.bump(kMergeSingle);
            return true;
        }
        if (n->numInputs() == 0) {
            // The hyperblock is unreachable; constants let downstream
            // predicates fold to false.
            Node* zero = newZero(g, n->type, n->hyperblock);
            replaceAllUses(g, {n, 0}, {zero, 0});
            erase(g, n);
            tally.bump(kMergeEmpty);
            return true;
        }
        return false;
    }

    bool
    simplifyEta(Graph& g, Node* n, Tally& tally)
    {
        if (n->uses().empty()) {
            erase(g, n);
            tally.bump(kEta);
            return true;
        }
        if (isConstFalse(n->input(1))) {
            // Never fires: remove the merge input slots it feeds.
            uses_.assign(n->uses().begin(), n->uses().end());
            for (const Use& u : uses_) {
                CASH_ASSERT(u.user->kind == NodeKind::Merge,
                            "token/value eta feeding non-merge");
                removeInput(g, u.user, u.index);
            }
            erase(g, n);
            tally.bump(kEtaFalse);
            return true;
        }
        if (isConstTrue(n->input(1))) {
            replaceAllUses(g, {n, 0}, n->input(0));
            erase(g, n);
            tally.bump(kEtaTrue);
            return true;
        }
        return false;
    }
};

} // namespace

void
registerDeadCodePass(PassRegistry& r)
{
    r.registerPass("dead_code", [] {
        return std::make_unique<DeadCodePass>();
    });
}

} // namespace cash
