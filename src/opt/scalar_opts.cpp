/**
 * @file
 * Scalar optimizations on the Pegasus graph: constant folding,
 * algebraic simplification and common-subexpression elimination
 * (within a hyperblock; merging across hyperblocks would break the
 * per-activation dataflow discipline).
 *
 * A run alternates a fold sweep and a CSE sweep, each in ascending
 * node-id order, until a pair changes nothing (at most 32 pairs).
 * Only the first pair visits every node; later sweeps visit the nodes
 * whose rewrite decision may have changed since their last visit
 * (optutil::SweepWorklist), so a run makes exactly the rewrites of
 * full sweeps, in the same order:
 *   - a fold decision reads the input lists of the node, of its arith
 *     inputs and of their arith inputs (isNegationOf() and the
 *     (a∧b)∨(a∧¬b) rule look two levels up), so rewiring an arith
 *     node marks it, its arith users and their arith users;
 *   - a CSE key reads only the node's own input list, so rewiring
 *     marks the node, and a node that takes a key over from a
 *     higher-id node marks the node it displaced.
 */
#include <cstdint>
#include <utility>
#include <vector>

#include "opt/opt_util.h"
#include "opt/pass.h"
#include "sim/value.h"
#include "support/diagnostics.h"

namespace cash {

namespace {

bool
constOf(const PortRef& p, int64_t* v)
{
    if (p.node->kind == NodeKind::Const) {
        *v = p.node->constValue;
        return true;
    }
    return false;
}

/** Is one operand the boolean negation of the other? */
bool
isNegationOf(const PortRef& x, const PortRef& y)
{
    if (x.node->kind == NodeKind::Arith && x.node->op == Op::NotBool &&
        x.node->input(0) == y)
        return true;
    if (y.node->kind == NodeKind::Arith && y.node->op == Op::NotBool &&
        y.node->input(0) == x)
        return true;
    return false;
}

/** The pass's own counters (opt.scalar.*), tallied per run. */
enum TallyKey { kFold, kNotNot, kAlgebra, kCse, kNumTallyKeys };
const char* const kTallyKeys[kNumTallyKeys] = {
    "opt.scalar.fold", "opt.scalar.notnot", "opt.scalar.algebra",
    "opt.scalar.cse"};
using Tally = optutil::RunTally<kNumTallyKeys>;

/** What CSE matches: op, type, hyperblock and operands, the operands
 *  of a commutative operator in canonical order. */
struct CseKey
{
    const Node* x = nullptr;
    const Node* y = nullptr;
    int xPort = 0;
    int yPort = 0;
    int hyperblock = -1;
    Op op = Op::Copy;
    VT type = VT::Word;

    bool operator==(const CseKey&) const = default;

    uint64_t
    hash() const
    {
        uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(x->id)) |
                     static_cast<uint64_t>(y ? static_cast<uint32_t>(y->id)
                                             : 0xffffffffu)
                         << 32;
        h ^= (static_cast<uint64_t>(static_cast<uint32_t>(hyperblock)) |
              static_cast<uint64_t>(op) << 32 |
              static_cast<uint64_t>(type) << 40 |
              static_cast<uint64_t>(xPort & 0xff) << 48 |
              static_cast<uint64_t>(yPort & 0xff) << 56) *
             0x9e3779b97f4a7c15ull;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        return h;
    }
};

CseKey
cseKey(const Node* n)
{
    PortRef x = n->input(0);
    PortRef y = n->numInputs() > 1 ? n->input(1) : PortRef{};
    // Canonical operand order for commutative operators.
    switch (n->op) {
      case Op::Add: case Op::Mul: case Op::And: case Op::Or:
      case Op::Xor: case Op::Eq: case Op::Ne:
        if (y.valid() &&
            (x.node->id > y.node->id ||
             (x.node == y.node && x.port > y.port)))
            std::swap(x, y);
        break;
      default:
        break;
    }
    return {x.node, y.node, x.port, y.port, n->hyperblock, n->op, n->type};
}

/**
 * The CSE value table: open addressing over CseKey, with no deletes.
 * An entry holds its key for the node that last claimed it, and is
 * live while that node is live and has claimed no other key since
 * (each claim stamps the node with a fresh generation).  Entries
 * claimed before the current run read as empty, so a run starts with
 * an empty table without clearing it.
 */
class CseTable
{
  public:
    struct Entry
    {
        CseKey key;
        Node* node = nullptr;
        uint32_t gen = 0;  ///< Claim generation; 0 = never claimed.
    };

    /** Start a run over @p g with an empty table. */
    void
    reset(const Graph& g)
    {
        // Arith nodes are under half of a graph: a table of one slot
        // per node starts at most half full.
        size_t cap = slots_.empty() ? 64 : slots_.size();
        while (cap < g.size())
            cap *= 2;
        if (cap != slots_.size() || gen_ > (uint32_t{1} << 31)) {
            slots_.assign(cap, Entry{});
            gen_ = 0;
        }
        runStart_ = gen_;
        used_ = 0;
        if (nodeGen_.size() < static_cast<size_t>(g.idLimit()))
            nodeGen_.resize(static_cast<size_t>(g.idLimit()), 0);
    }

    /** The slot of @p key: its entry of this run, live or stale, or a
     *  slot empty for this run. */
    Entry&
    find(const CseKey& key)
    {
        if (2 * (used_ + 1) > slots_.size())
            rehash();
        const size_t mask = slots_.size() - 1;
        for (size_t i = key.hash() & mask;; i = (i + 1) & mask) {
            Entry& e = slots_[i];
            if (!claimedThisRun(e) || e.key == key)
                return e;
        }
    }

    bool
    live(const Entry& e) const
    {
        return claimedThisRun(e) && !e.node->dead &&
               nodeGen_[static_cast<size_t>(e.node->id)] == e.gen;
    }

    /** Give @p e (found for @p key) to @p n. */
    void
    claim(Entry& e, const CseKey& key, Node* n)
    {
        if (!claimedThisRun(e))
            used_++;
        e.key = key;
        e.node = n;
        e.gen = ++gen_;
        nodeGen_[static_cast<size_t>(n->id)] = e.gen;
    }

  private:
    std::vector<Entry> slots_;
    /** Slots claimed this run. */
    size_t used_ = 0;
    uint32_t gen_ = 0;
    /** The last generation of an earlier run. */
    uint32_t runStart_ = 0;
    /** Per node id: the generation of its latest claim. */
    std::vector<uint32_t> nodeGen_;

    bool claimedThisRun(const Entry& e) const { return e.gen > runStart_; }

    /** Drop the stale entries, doubling the slots if still crowded. */
    void
    rehash()
    {
        std::vector<Entry> old;
        old.swap(slots_);
        size_t liveCount = 0;
        for (const Entry& e : old)
            liveCount += live(e) ? 1 : 0;
        size_t cap = old.size();
        while (4 * (liveCount + 1) > cap)
            cap *= 2;
        slots_.assign(cap, Entry{});
        used_ = 0;
        const size_t mask = cap - 1;
        for (const Entry& e : old) {
            if (!live(e))
                continue;
            size_t i = e.key.hash() & mask;
            while (claimedThisRun(slots_[i]))
                i = (i + 1) & mask;
            slots_[i] = e;
            used_++;
        }
    }
};

class ScalarOptsPass : public Pass
{
  public:
    const char* name() const override { return "scalar_opts"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        Tally tally(ctx, kTallyKeys);
        fold_.reset(g);
        cse_.reset(g);
        table_.reset(g);
        bool anyChange = false;
        bool changed = true;
        int guard = 0;
        while (changed && guard++ < 32) {
            changed = false;
            fold_.beginSweep(g);
            while (Node* n = fold_.next()) {
                if (n->dead || n->kind != NodeKind::Arith)
                    continue;
                changed |= foldOrSimplify(g, n, tally);
            }
            changed |= cse(g, tally);
            anyChange |= changed;
        }
        return anyChange;
    }

  private:
    /** Nodes the next fold / CSE sweeps visit. */
    optutil::SweepWorklist fold_, cse_;
    CseTable table_;
    /** rewire()'s scratch list. */
    std::vector<Node*> rewired_;

    /**
     * g.replaceAllUses(from, to), marking the nodes whose decisions
     * may change: each rewired arith user for CSE and fold, and its
     * arith users and theirs for fold.
     */
    void
    rewire(Graph& g, PortRef from, PortRef to)
    {
        rewired_.clear();
        for (const Use& u : from.node->uses())
            if (u.user->kind == NodeKind::Arith)
                rewired_.push_back(u.user);
        g.replaceAllUses(from, to);
        for (Node* u : rewired_) {
            cse_.mark(u);
            fold_.mark(u);
            for (const Use& v : u->uses()) {
                if (v.user->kind != NodeKind::Arith)
                    continue;
                fold_.mark(v.user);
                for (const Use& w : v.user->uses())
                    if (w.user->kind == NodeKind::Arith)
                        fold_.mark(w.user);
            }
        }
    }

    void
    replaceWithConst(Graph& g, Node* n, uint32_t value)
    {
        Node* c = g.newConst(
            n->type == VT::Pred ? (value ? 1 : 0)
                                : static_cast<int64_t>(value),
            n->type, n->hyperblock);
        rewire(g, {n, 0}, {c, 0});
        g.erase(n);
    }

    bool
    foldOrSimplify(Graph& g, Node* n, Tally& tally)
    {
        if (n->op == Op::Copy || opIsUnary(n->op)) {
            int64_t a;
            if (constOf(n->input(0), &a)) {
                replaceWithConst(
                    g, n, evalUnary(n->op, static_cast<uint32_t>(a)));
                tally.bump(kFold);
                return true;
            }
            if (n->op == Op::Copy) {
                rewire(g, {n, 0}, n->input(0));
                g.erase(n);
                return true;
            }
            // !!x on the 0/1 predicate domain.
            if (n->op == Op::NotBool) {
                Node* in = n->input(0).node;
                if (in->kind == NodeKind::Arith &&
                    in->op == Op::NotBool &&
                    (in->outputType(0) == VT::Pred ||
                     in->input(0).node->outputType(
                         in->input(0).port) == VT::Pred)) {
                    rewire(g, {n, 0}, in->input(0));
                    g.erase(n);
                    tally.bump(kNotNot);
                    return true;
                }
            }
            return false;
        }

        int64_t a = 0, b = 0;
        bool ca = constOf(n->input(0), &a);
        bool cb = constOf(n->input(1), &b);
        if (ca && cb) {
            replaceWithConst(g, n,
                             evalBinary(n->op, static_cast<uint32_t>(a),
                                        static_cast<uint32_t>(b)));
            tally.bump(kFold);
            return true;
        }

        // Algebraic identities.
        PortRef x = n->input(0), y = n->input(1);
        auto wire = [&](PortRef v) {
            rewire(g, {n, 0}, v);
            g.erase(n);
            tally.bump(kAlgebra);
            return true;
        };
        auto toConst = [&](uint32_t v) {
            replaceWithConst(g, n, v);
            tally.bump(kAlgebra);
            return true;
        };

        switch (n->op) {
          case Op::Add:
            if (cb && b == 0)
                return wire(x);
            if (ca && a == 0)
                return wire(y);
            break;
          case Op::Sub:
            if (cb && b == 0)
                return wire(x);
            if (x == y)
                return toConst(0);
            break;
          case Op::Mul:
            if (cb && b == 1)
                return wire(x);
            if (ca && a == 1)
                return wire(y);
            if ((cb && b == 0) || (ca && a == 0))
                return toConst(0);
            break;
          case Op::And:
            if (n->type == VT::Pred) {
                if (cb)
                    return b ? wire(x) : toConst(0);
                if (ca)
                    return a ? wire(y) : toConst(0);
                if (isNegationOf(x, y))
                    return toConst(0);  // x ∧ ¬x
            } else {
                if ((cb && b == 0) || (ca && a == 0))
                    return toConst(0);
                if (cb && static_cast<uint32_t>(b) == 0xffffffffu)
                    return wire(x);
            }
            if (x == y)
                return wire(x);
            break;
          case Op::Or:
            if (n->type == VT::Pred) {
                if (cb)
                    return b ? toConst(1) : wire(x);
                if (ca)
                    return a ? toConst(1) : wire(y);
                if (isNegationOf(x, y))
                    return toConst(1);  // x ∨ ¬x
                // (a∧b) ∨ (a∧¬b) = a — the shape complementary
                // path predicates take (§5.3's collective domination).
                if (x.node->kind == NodeKind::Arith &&
                    x.node->op == Op::And &&
                    y.node->kind == NodeKind::Arith &&
                    y.node->op == Op::And) {
                    for (int i = 0; i < 2; i++) {
                        for (int j = 0; j < 2; j++) {
                            if (x.node->input(i) == y.node->input(j) &&
                                isNegationOf(x.node->input(1 - i),
                                             y.node->input(1 - j)))
                                return wire(x.node->input(i));
                        }
                    }
                }
            } else {
                if (cb && b == 0)
                    return wire(x);
                if (ca && a == 0)
                    return wire(y);
            }
            if (x == y)
                return wire(x);
            break;
          case Op::Xor:
            if (cb && b == 0)
                return wire(x);
            if (ca && a == 0)
                return wire(y);
            if (x == y)
                return toConst(0);
            break;
          case Op::Shl:
          case Op::ShrS:
          case Op::ShrU:
            if (cb && b == 0)
                return wire(x);
            break;
          case Op::Eq:
            if (x == y)
                return toConst(1);
            break;
          case Op::Ne:
            if (x == y)
                return toConst(0);
            break;
          default:
            break;
        }
        return false;
    }

    /**
     * One CSE sweep: a node whose key a lower-id node already holds
     * this sweep is replaced by that node, so the first in id order
     * wins.
     */
    bool
    cse(Graph& g, Tally& tally)
    {
        bool changed = false;
        cse_.beginSweep(g);
        while (Node* n = cse_.next()) {
            if (n->dead || n->kind != NodeKind::Arith)
                continue;
            const CseKey key = cseKey(n);
            CseTable::Entry& e = table_.find(key);
            const bool held = table_.live(e);
            if (held && e.node->id < n->id) {
                rewire(g, {n, 0}, {e.node, 0});
                g.erase(n);
                tally.bump(kCse);
                changed = true;
                continue;
            }
            // A higher-id holder has not been visited yet this sweep;
            // it must be, to meet its lower-id twin.
            if (held && e.node != n)
                cse_.mark(e.node);
            table_.claim(e, key, n);
        }
        return changed;
    }
};

} // namespace

void
registerScalarOptsPass(PassRegistry& r)
{
    r.registerPass("scalar_opts", [] {
        return std::make_unique<ScalarOptsPass>();
    });
}

} // namespace cash
