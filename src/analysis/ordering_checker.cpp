#include "analysis/ordering_checker.h"

#include <algorithm>

#include "analysis/boolean.h"
#include "analysis/induction.h"
#include "analysis/interproc.h"
#include "analysis/symbolic.h"

namespace cash {

namespace {

/** Does @p n produce a token on any output port? */
bool
producesToken(const Node* n)
{
    for (int p = 0; p < n->numOutputs(); p++)
        if (n->outputType(p) == VT::Token)
            return true;
    return false;
}

/** Does @p n consume a token-typed value on any input? */
bool
consumesToken(const Node* n)
{
    for (int i = 0; i < n->numInputs(); i++) {
        const PortRef& in = n->input(i);
        if (in.valid() && in.node->outputType(in.port) == VT::Token)
            return true;
    }
    return false;
}

std::string
nodeDesc(const Node* n)
{
    return std::string(nodeKindName(n->kind)) + " n" +
           std::to_string(n->id);
}

} // namespace

OrderingChecker::OrderingChecker(const Graph& g,
                                 const AliasOracle* oracle,
                                 const MemoryLayout* layout,
                                 const InterprocModel* interproc)
    : g_(g), oracle_(oracle), layout_(layout), interproc_(interproc)
{
    buildTokenGraph();
    ClosureScratch scratch;
    buildClosure(succAll_, reachAll_, scratch);
    buildClosure(succFwd_, reachFwd_, scratch);
    buildHbReach();
    buildProductive();
    buildGates();
}

OrderingChecker::~OrderingChecker() = default;

int
OrderingChecker::tokenIndex(const Node* n) const
{
    // The pointer comparison rejects another graph's node whose id
    // happens to collide with one of ours.
    size_t id = static_cast<size_t>(n->id);
    if (id >= index_.size() || index_[id] < 0 ||
        tokenNodes_[static_cast<size_t>(index_[id])] != n)
        return -1;
    return index_[id];
}

void
OrderingChecker::buildTokenGraph()
{
    // Token-graph vertices: every live node that produces or consumes
    // a token value.  forEach() visits in node-id order, so the dense
    // indices (and with them every finding sequence) are deterministic.
    index_.assign(static_cast<size_t>(g_.idLimit()), -1);
    g_.forEach([&](const Node* n) {
        if (producesToken(n) || consumesToken(n)) {
            index_[n->id] = static_cast<int>(tokenNodes_.size());
            tokenNodes_.push_back(n);
        }
        if (n->isSideEffect())
            sideEffects_.push_back(n);
    });
    stats_.tokenNodes = static_cast<int64_t>(tokenNodes_.size());
    stats_.sideEffects = static_cast<int64_t>(sideEffects_.size());

    const int n = static_cast<int>(tokenNodes_.size());
    words_ = (n + 63) / 64;
    sideEffectBits_.assign(static_cast<size_t>(words_), 0);
    for (const Node* se : sideEffects_) {
        int si = tokenIndex(se);
        if (si >= 0)
            sideEffectBits_[si / 64] |= uint64_t(1) << (si % 64);
    }
    // Count each row's edges, then fill the rows in the same order:
    // row u's count lands at start[u + 2], so after the prefix sums
    // filling at start[u + 1]++ leaves start[u + 1] at row u's end.
    auto forEachEdge = [&](auto&& fn) {
        for (int vi = 0; vi < n; vi++) {
            const Node* v = tokenNodes_[vi];
            for (int i = 0; i < v->numInputs(); i++) {
                const PortRef& in = v->input(i);
                if (!in.valid() || in.node->dead ||
                    in.node->outputType(in.port) != VT::Token)
                    continue;
                int ui = tokenIndex(in.node);
                if (ui < 0)
                    continue;
                fn(ui, vi, !v->inputIsBackEdge(i));
            }
        }
    };
    const size_t rows = static_cast<size_t>(n) + 2;
    succAll_.start.assign(rows, 0);
    succFwd_.start.assign(rows, 0);
    forEachEdge([&](int u, int, bool fwd) {
        succAll_.start[static_cast<size_t>(u) + 2]++;
        if (fwd)
            succFwd_.start[static_cast<size_t>(u) + 2]++;
        stats_.tokenEdges++;
    });
    for (size_t k = 2; k < rows; k++) {
        succAll_.start[k] += succAll_.start[k - 1];
        succFwd_.start[k] += succFwd_.start[k - 1];
    }
    succAll_.succ.resize(succAll_.start.back());
    succFwd_.succ.resize(succFwd_.start.back());
    forEachEdge([&](int u, int v, bool fwd) {
        const size_t row = static_cast<size_t>(u) + 1;
        succAll_.succ[succAll_.start[row]++] = v;
        if (fwd)
            succFwd_.succ[succFwd_.start[row]++] = v;
    });
}

/**
 * Reachability closure over the token graph: condense SCCs with an
 * iterative Tarjan walk, then OR successor bitsets in the reverse
 * topological order Tarjan emits SCCs in.  Every member of an SCC
 * shares the SCC's row (token rings are cycles: all mutually ordered).
 */
void
OrderingChecker::buildClosure(const EdgeRows& edges,
                              std::vector<uint64_t>& matrix,
                              ClosureScratch& sc)
{
    const int n = static_cast<int>(tokenNodes_.size());
    matrix.assign(static_cast<size_t>(n) * words_, 0);
    if (n == 0)
        return;

    // Iterative Tarjan SCC.
    const size_t nn = static_cast<size_t>(n);
    sc.low.assign(nn, -1);
    sc.num.assign(nn, -1);
    sc.sccOf.assign(nn, -1);
    sc.onStack.assign(nn, 0);
    sc.stack.clear();
    sc.frames.clear();
    sc.members.clear();
    sc.sccStart.assign(1, 0);
    std::vector<int>& low = sc.low;
    std::vector<int>& num = sc.num;
    std::vector<int>& sccOf = sc.sccOf;
    int counter = 0;
    int sccs = 0;
    for (int root = 0; root < n; root++) {
        if (num[root] != -1)
            continue;
        sc.frames.push_back({root, 0});
        num[root] = low[root] = counter++;
        sc.stack.push_back(root);
        sc.onStack[root] = 1;
        while (!sc.frames.empty()) {
            ClosureScratch::Frame& f = sc.frames.back();
            const std::span<const int> succ = edges.of(f.v);
            if (f.next < succ.size()) {
                int w = succ[f.next++];
                if (num[w] == -1) {
                    num[w] = low[w] = counter++;
                    sc.stack.push_back(w);
                    sc.onStack[w] = 1;
                    sc.frames.push_back({w, 0});
                } else if (sc.onStack[w]) {
                    low[f.v] = std::min(low[f.v], num[w]);
                }
            } else {
                if (low[f.v] == num[f.v]) {
                    int w;
                    do {
                        w = sc.stack.back();
                        sc.stack.pop_back();
                        sc.onStack[w] = 0;
                        sccOf[w] = sccs;
                        sc.members.push_back(w);
                    } while (w != f.v);
                    sc.sccStart.push_back(
                        static_cast<uint32_t>(sc.members.size()));
                    sccs++;
                }
                int v = f.v;
                sc.frames.pop_back();
                if (!sc.frames.empty())
                    low[sc.frames.back().v] =
                        std::min(low[sc.frames.back().v], low[v]);
            }
        }
    }
    auto sccSize = [&](int s) {
        return sc.sccStart[static_cast<size_t>(s) + 1] -
               sc.sccStart[static_cast<size_t>(s)];
    };

    // Tarjan emits an SCC only after every SCC it can reach, so the
    // emission order is already reverse-topological: propagate rows in
    // that order.  row(S) = member bits of S ∪ rows of successor SCCs.
    const size_t w = static_cast<size_t>(words_);
    sc.sccRow.assign(static_cast<size_t>(sccs) * w, 0);
    for (int s = 0; s < sccs; s++) {
        uint64_t* row = sc.sccRow.data() + static_cast<size_t>(s) * w;
        for (uint32_t m = sc.sccStart[s]; m < sc.sccStart[s + 1]; m++) {
            const int v = sc.members[m];
            row[v / 64] |= uint64_t(1) << (v % 64);
            for (int x : edges.of(v)) {
                if (sccOf[x] == s)
                    continue;
                const uint64_t* other =
                    sc.sccRow.data() + static_cast<size_t>(sccOf[x]) * w;
                for (size_t k = 0; k < w; k++)
                    row[k] |= other[k];
            }
        }
    }
    for (int v = 0; v < n; v++)
        std::copy_n(sc.sccRow.data() + static_cast<size_t>(sccOf[v]) * w,
                    w, matrix.begin() + static_cast<size_t>(v) * w);

    // Singleton SCC without a self-loop: drop the reflexive bit so the
    // relation is "reachable via at least one edge" plus ring mutuals.
    for (int v = 0; v < n; v++) {
        if (sccSize(sccOf[v]) > 1)
            continue;
        bool selfLoop = false;
        for (int x : edges.of(v))
            if (x == v)
                selfLoop = true;
        if (!selfLoop)
            matrix[static_cast<size_t>(v) * words_ + v / 64] &=
                ~(uint64_t(1) << (v % 64));
    }
}

void
OrderingChecker::buildHbReach()
{
    // Control may transfer a → b (transitively, self included): only
    // such hyperblock pairs can dynamically coexist in one call.
    size_t maxId = g_.hyperblocks.size();
    for (const HbInfo& hb : g_.hyperblocks)
        maxId = std::max(maxId, static_cast<size_t>(hb.id) + 1);
    hbCount_ = maxId;
    hbReach_.assign(maxId * maxId, false);
    // Successor rows by hyperblock id (several HbInfo may share one):
    // id h's successors are succ[start[h], start[h + 1]), in HbInfo
    // order.
    std::vector<uint32_t> start(maxId + 2, 0);
    for (const HbInfo& hb : g_.hyperblocks)
        if (hb.id >= 0)
            start[static_cast<size_t>(hb.id) + 2] +=
                static_cast<uint32_t>(hb.successors.size());
    for (size_t k = 2; k < start.size(); k++)
        start[k] += start[k - 1];
    std::vector<int> succ(start.back());
    for (const HbInfo& hb : g_.hyperblocks)
        if (hb.id >= 0)
            for (int s : hb.successors)
                succ[start[static_cast<size_t>(hb.id) + 1]++] = s;
    std::vector<int> work;
    for (const HbInfo& hb : g_.hyperblocks) {
        if (hb.id < 0 || static_cast<size_t>(hb.id) >= maxId)
            continue;
        std::vector<bool>::iterator row =
            hbReach_.begin() + static_cast<ptrdiff_t>(hb.id * maxId);
        work.assign(1, hb.id);
        row[hb.id] = true;
        while (!work.empty()) {
            int cur = work.back();
            work.pop_back();
            for (uint32_t k = start[static_cast<size_t>(cur)];
                 k < start[static_cast<size_t>(cur) + 1]; k++) {
                const int s = succ[k];
                if (s < 0 || static_cast<size_t>(s) >= maxId || row[s])
                    continue;
                row[s] = true;
                work.push_back(s);
            }
        }
    }
}

bool
OrderingChecker::hbReaches(int from, int to) const
{
    return hbReach_[static_cast<size_t>(from) * hbCount_ +
                    static_cast<size_t>(to)];
}

bool
OrderingChecker::hbCoexist(const Node* a, const Node* b) const
{
    int ha = a->hyperblock, hb = b->hyperblock;
    if (ha == hb)
        return true;
    // Unknown hyperblocks (hand-built graphs): assume the worst.
    if (ha < 0 || hb < 0 ||
        static_cast<size_t>(ha) >= hbCount_ ||
        static_cast<size_t>(hb) >= hbCount_)
        return true;
    return hbReaches(ha, hb) || hbReaches(hb, ha);
}

void
OrderingChecker::buildProductive()
{
    // Least fixpoint of "can this token-graph node ever fire?".  A
    // constant-folded branch leaves its loop subgraph in the graph
    // with ring merges that have only back-edge inputs: no forward
    // seed ever arrives, so the ring — and every side effect inside
    // it — is permanently starved.  Such nodes cannot participate in
    // a dynamic hazard.  Merges fire when ANY token input delivers;
    // every other consumer is a strict join and needs ALL of them.
    // Nodes with no token-graph inputs (init-token, token producers
    // fed purely by data) seed the fixpoint as productive.
    const size_t n = tokenNodes_.size();
    productive_.assign(n, false);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t vi = 0; vi < n; vi++) {
            if (productive_[vi])
                continue;
            const Node* v = tokenNodes_[vi];
            bool any = false, all = true, have = false;
            for (int i = 0; i < v->numInputs(); i++) {
                const PortRef& in = v->input(i);
                if (!in.valid() || in.node->dead ||
                    in.node->outputType(in.port) != VT::Token)
                    continue;
                int ui = tokenIndex(in.node);
                if (ui < 0)
                    continue;
                have = true;
                if (productive_[ui])
                    any = true;
                else
                    all = false;
            }
            if (!have || (v->kind == NodeKind::Merge ? any : all)) {
                productive_[vi] = true;
                changed = true;
            }
        }
    }
}

bool
OrderingChecker::productive(const Node* n) const
{
    int i = tokenIndex(n);
    return i < 0 || productive_[i];
}

void
OrderingChecker::buildGates()
{
    // gate(v) = etas lying on EVERY forward token path from a source
    // to v: ∩ over forward predecessors u of (gate(u) ∪ {u if eta}),
    // ∅ at sources.  Kahn order over the forward DAG; anything left
    // unprocessed (a forward cycle would be a graph bug, but stay
    // safe) keeps an empty set, which only weakens the exclusion.
    const int n = static_cast<int>(tokenNodes_.size());
    gateEta_.assign(static_cast<size_t>(n) * words_, 0);
    if (n == 0)
        return;
    // Forward predecessors in rows, the transpose of succFwd_: v's
    // are pred[start[v], start[v + 1]), ascending.
    std::vector<uint32_t> start(static_cast<size_t>(n) + 2, 0);
    for (int x : succFwd_.succ)
        start[static_cast<size_t>(x) + 2]++;
    for (size_t k = 2; k < start.size(); k++)
        start[k] += start[k - 1];
    std::vector<int> pred(succFwd_.succ.size());
    for (int u = 0; u < n; u++)
        for (int v : succFwd_.of(u))
            pred[start[static_cast<size_t>(v) + 1]++] = u;
    std::vector<int> indeg(n, 0);
    for (int v = 0; v < n; v++)
        indeg[v] = static_cast<int>(start[static_cast<size_t>(v) + 1] -
                                    start[static_cast<size_t>(v)]);
    std::vector<int> work;
    for (int v = 0; v < n; v++)
        if (indeg[v] == 0)
            work.push_back(v);
    std::vector<bool> done(n, false);
    while (!work.empty()) {
        int v = work.back();
        work.pop_back();
        uint64_t* row = gateEta_.data() +
                        static_cast<size_t>(v) * words_;
        bool first = true;
        for (uint32_t k = start[static_cast<size_t>(v)];
             k < start[static_cast<size_t>(v) + 1]; k++) {
            const int u = pred[k];
            const uint64_t* urow =
                gateEta_.data() + static_cast<size_t>(u) * words_;
            for (int w = 0; w < words_; w++) {
                uint64_t via = urow[w];
                if (tokenNodes_[u]->kind == NodeKind::Eta &&
                    u / 64 == w)
                    via |= uint64_t(1) << (u % 64);
                if (first)
                    row[w] = via;
                else
                    row[w] &= via;
            }
            first = false;
        }
        done[v] = true;
        for (int s : succFwd_.of(v))
            if (--indeg[s] == 0)
                work.push_back(s);
    }
    // Unprocessed nodes (unexpected forward cycle): clear their rows.
    for (int v = 0; v < n; v++)
        if (!done[v])
            std::fill(gateEta_.begin() + static_cast<size_t>(v) * words_,
                      gateEta_.begin() +
                          static_cast<size_t>(v + 1) * words_,
                      0);
}

bool
OrderingChecker::returnExcludesDir(const Node* x, const Node* y) const
{
    // A predicated return terminates the invocation: when it fires,
    // the hyperblock's complementary exit etas never pass the token
    // on, so strictly-downstream hyperblocks starve.  Node @p x in
    // hb_x therefore never coexists with @p y in hb_y when control
    // can only flow x → y (no back path) and x fires only in
    // invocations where some return of hb_x fires — either because x
    // *is* that return, or because x's predicate implies the
    // return's.  Conversely, once the exit eta has fired the return
    // predicate was false, so x never fired.  Mutual hb reachability
    // (both inside a loop) stays conservative.
    int hx = x->hyperblock, hy = y->hyperblock;
    if (hx == hy || hx < 0 || hy < 0 ||
        static_cast<size_t>(hx) >= hbCount_ ||
        static_cast<size_t>(hy) >= hbCount_)
        return false;
    if (!hbReaches(hx, hy) || hbReaches(hy, hx))
        return false;
    if (x->kind == NodeKind::Return)
        return true;
    int px = x->predInIndex();
    if (px < 0 || px >= x->numInputs() || !x->input(px).valid())
        return false;
    for (const Node* r : sideEffects_) {
        if (r->kind != NodeKind::Return || r->hyperblock != hx)
            continue;
        int pr = r->predInIndex();
        if (pr < 0 || pr >= r->numInputs() || !r->input(pr).valid())
            continue;
        if (predImplies(x->input(px), r->input(pr)))
            return true;
    }
    return false;
}

bool
OrderingChecker::returnExcludes(const Node* a, const Node* b) const
{
    return returnExcludesDir(a, b) || returnExcludesDir(b, a);
}

bool
OrderingChecker::reachBit(const std::vector<uint64_t>& matrix,
                          const Node* a, const Node* b) const
{
    int ai = tokenIndex(a);
    int bi = tokenIndex(b);
    if (ai < 0 || bi < 0)
        return false;
    return (matrix[static_cast<size_t>(ai) * words_ + bi / 64] >>
            (bi % 64)) &
           1;
}

bool
OrderingChecker::tokenReaches(const Node* a, const Node* b) const
{
    return reachBit(reachAll_, a, b);
}

bool
OrderingChecker::tokenReachesForward(const Node* a, const Node* b) const
{
    return reachBit(reachFwd_, a, b);
}

bool
OrderingChecker::tokenReachesSideEffect(const Node* n) const
{
    int i = tokenIndex(n);
    if (i < 0)
        return false;
    const uint64_t* row =
        reachAll_.data() + static_cast<size_t>(i) * words_;
    for (int w = 0; w < words_; w++)
        if (row[w] & sideEffectBits_[w])
            return true;
    return false;
}

/**
 * Recompute @p n's access set from first principles: a constant
 * address is resolved against the MemoryLayout's global objects
 * (checking containment byte-for-byte), everything else keeps the
 * set recorded at construction.  This is the independence from the
 * opt/ helpers the checker exists for: a pass that corrupts rwSet
 * metadata on a statically addressed access is caught here.
 */
LocationSet
OrderingChecker::refinedSet(const Node* n) const
{
    if (!n->isMemoryAccess())
        return n->rwSet;
    if (layout_ && n->numInputs() > 2) {
        const PortRef& addr = n->input(2);
        if (addr.valid() && addr.node->kind == NodeKind::Const) {
            uint32_t a = static_cast<uint32_t>(addr.node->constValue);
            for (const MemObject& obj : layout_->objects()) {
                if (!obj.isGlobal)
                    continue;
                if (a >= obj.address &&
                    a + static_cast<uint32_t>(n->size) <=
                        obj.address + obj.size)
                    return LocationSet::single(obj.id);
            }
        }
    }
    return n->rwSet;
}

LocationSet
OrderingChecker::effectiveReadSet(const Node* n) const
{
    switch (n->kind) {
      case NodeKind::Load: {
        // Reads of const objects can never conflict: no (legal) write
        // targets them.  §4.2 relies on this when it detaches
        // immutable loads from the token graph entirely.
        LocationSet s = refinedSet(n);
        if (s.isTop() || !layout_)
            return s;
        LocationSet filtered;
        for (int loc : s.locations()) {
            if (loc >= 0 &&
                static_cast<size_t>(loc) < layout_->objects().size() &&
                layout_->object(loc).isConst)
                continue;
            filtered.insert(loc);
        }
        return filtered;
      }
      case NodeKind::Call:
        // Without an interprocedural model a call may read anything;
        // with one, resolve the call site against the current graph.
        if (interproc_)
            return interproc_->callReadSet(g_, n);
        return LocationSet::top();
      case NodeKind::Return:
        // A return must observe every store (the procedure's memory
        // effects complete before it does).
        return LocationSet::top();
      default:
        return LocationSet();
    }
}

LocationSet
OrderingChecker::effectiveWriteSet(const Node* n) const
{
    switch (n->kind) {
      case NodeKind::Store:
        return refinedSet(n);
      case NodeKind::Call:
        if (interproc_)
            return interproc_->callWriteSet(g_, n);
        return LocationSet::top();
      default:
        return LocationSet();
    }
}

bool
OrderingChecker::mayConflict(size_t i, size_t j)
{
    // Might side effects i and j dynamically coexist and touch a
    // common address with at least one write?  (Recomputed sets +
    // oracle + hyperblock reachability; no symbolic reasoning.)
    if (!oracle_)
        return false;
    const Node* a = sideEffects_[i];
    const Node* b = sideEffects_[j];
    const Effects& ea = effects_[i];
    const Effects& eb = effects_[j];
    bool overlap = oracle_->mayOverlap(ea.writes, eb.reads) ||
                   oracle_->mayOverlap(eb.writes, ea.reads) ||
                   oracle_->mayOverlap(ea.writes, eb.writes);
    if (!overlap || !hbCoexist(a, b))
        return false;
    // A node that can never fire (starved ring behind a folded
    // branch) conflicts with nothing.
    if (!productive(a) || !productive(b))
        return false;
    if (returnExcludes(a, b))
        return false;
    // Mutually exclusive activations never conflict: the §2 example
    // runs both branch calls in parallel precisely because only one
    // predicate can be 1.  The builder encodes that exclusion as
    // block-level reachability while wiring tokens; predication
    // erases the blocks, so re-derive it from the predicates —
    // both the nodes' own predicate inputs and the predicates of
    // etas gating every token path that can feed them (a load
    // hoisted out of one branch stays exclusive with a store whose
    // ring is seeded from the other branch).
    if (predsExclude(ea, eb))
        return false;
    return true;
}

void
OrderingChecker::accessPreds(const Node* n,
                             SmallVector<PortRef, kMaxPreds>& preds) const
{
    // Predicates that must be true for @p n to perform its memory
    // access: its own predicate input (a nullified access touches
    // nothing), plus the predicate of every eta that dominates all
    // forward token paths from the sources to @p n.  Ring back edges
    // never bypass such an eta: a value circulating a ring entered it
    // through the ring's forward seed, and an eta whose predicate was
    // false emits EOS, which the seeded merge discards — so a value
    // reaching @p n proves each dominating eta fired with a true
    // predicate.
    preds.clear();
    int pi = n->predInIndex();
    if (pi >= 0 && pi < n->numInputs() && n->input(pi).valid())
        preds.push_back(n->input(pi));
    int ni = tokenIndex(n);
    if (ni >= 0 && !gateEta_.empty()) {
        const uint64_t* row =
            gateEta_.data() + static_cast<size_t>(ni) * words_;
        for (int w = 0; w < words_ && preds.size() < kMaxPreds; w++) {
            uint64_t bits = row[w];
            while (bits && preds.size() < kMaxPreds) {
                int bit = __builtin_ctzll(bits);
                bits &= bits - 1;
                const Node* e = tokenNodes_[w * 64 + bit];
                int ep = e->predInIndex();
                if (ep >= 0 && ep < e->numInputs() &&
                    e->input(ep).valid())
                    preds.push_back(e->input(ep));
            }
        }
    }
}

bool
OrderingChecker::predsExclude(const Effects& a, const Effects& b)
{
    // Side effects share a handful of block and eta predicates, so
    // each port pair's verdict is worth remembering for the run.
    for (const PortRef& p : a.preds)
        for (const PortRef& q : b.preds) {
            auto [it, fresh] =
                disjointMemo_.try_emplace(PortPair{p, q}, false);
            if (fresh)
                it->second = predDisjoint(p, q);
            if (it->second)
                return true;
        }
    return false;
}

bool
OrderingChecker::symbolicallyDisjoint(const Node* a, const Node* b)
{
    if (!a->isMemoryAccess() || !b->isMemoryAccess() ||
        a->numInputs() <= 2 || b->numInputs() <= 2)
        return false;
    // Same-iteration disjointness only applies to accesses that
    // advance in lockstep; restrict to a common hyperblock.
    if (a->hyperblock != b->hyperblock)
        return false;
    if (!sym_) {
        ivs_.reset(new InductionAnalysis(g_));
        sym_.reset(new SymbolicAddress(ivs_.get()));
    }
    AffineExpr ea = sym_->expr(a->input(2));
    AffineExpr eb = sym_->expr(b->input(2));
    return SymbolicAddress::disjoint(ea, a->size, eb, b->size);
}

void
OrderingChecker::orderingSources(const Node* n,
                                 std::vector<const Node*>& out)
{
    out.clear();
    int ti = n->tokenInIndex();
    if (ti < 0 || ti >= n->numInputs())
        return;
    const PortRef& root = n->input(ti);
    if (!root.valid())
        return;
    thread_local std::vector<const Node*> work, combines;
    work.assign(1, root.node);
    combines.clear();
    while (!work.empty()) {
        const Node* cur = work.back();
        work.pop_back();
        if (cur->kind != NodeKind::Combine) {
            out.push_back(cur);
            continue;
        }
        if (std::find(combines.begin(), combines.end(), cur) !=
            combines.end())
            continue;
        combines.push_back(cur);
        for (int i = 0; i < cur->numInputs(); i++)
            if (cur->input(i).valid())
                work.push_back(cur->input(i).node);
    }
    std::sort(out.begin(), out.end(),
              [](const Node* a, const Node* b) { return a->id < b->id; });
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

void
OrderingChecker::check(std::vector<LintFinding>& out)
{
    // Part 1 — anchoring: every token consumer must actually have a
    // well-typed token input.  A detached side effect can fire the
    // moment its other inputs arrive, unordered against everything;
    // this is exactly what `graph.corrupt-token` injection produces.
    // Scan all live nodes, not just the token graph: a corrupted
    // Return in a store-free function neither produces nor consumes a
    // token any more, yet is exactly the node that must be reported.
    g_.forEach([&](const Node* n) {
        int ti = n->tokenInIndex();
        if (ti < 0)
            return;
        std::string problem;
        if (ti >= n->numInputs())
            problem = "its token input slot is missing";
        else if (!n->input(ti).valid())
            problem = "its token input is disconnected";
        else if (n->input(ti).node->outputType(n->input(ti).port) !=
                 VT::Token)
            problem = std::string("its token input reads a ") +
                      vtName(n->input(ti).node->outputType(
                          n->input(ti).port)) +
                      " value from " + nodeDesc(n->input(ti).node);
        if (problem.empty())
            return;
        LintFinding f;
        f.rule = "ordering-soundness";
        f.severity = LintSeverity::Error;
        f.func = g_.name;
        f.nodeA = n->id;
        if (n->loc.valid())
            f.location = n->loc.str();
        f.explanation = nodeDesc(n) +
                        " is not anchored in the token graph: " +
                        problem;
        out.push_back(f);
    });

    // Part 2 — ordering: every may-conflicting side-effect pair must
    // be connected by a token path in some direction.  Each side
    // effect's sets and access predicates are computed once, not per
    // pair.
    effects_.resize(sideEffects_.size());
    for (size_t i = 0; i < sideEffects_.size(); i++) {
        const Node* n = sideEffects_[i];
        effects_[i].reads = effectiveReadSet(n);
        effects_[i].writes = effectiveWriteSet(n);
        accessPreds(n, effects_[i].preds);
    }
    for (size_t i = 0; i < sideEffects_.size(); i++) {
        for (size_t j = i + 1; j < sideEffects_.size(); j++) {
            const Node* a = sideEffects_[i];
            const Node* b = sideEffects_[j];
            stats_.pairsConsidered++;
            if (effects_[i].writes.empty() && effects_[j].writes.empty())
                continue;  // read–read never conflicts
            if (!mayConflict(i, j))
                continue;
            stats_.pairsConflicting++;
            if (ordered(a, b))
                continue;
            if (symbolicallyDisjoint(a, b)) {
                stats_.pairsSymbolic++;
                continue;
            }
            LintFinding f;
            f.rule = "ordering-soundness";
            f.severity = LintSeverity::Error;
            f.func = g_.name;
            f.nodeA = a->id;
            f.nodeB = b->id;
            if (a->loc.valid())
                f.location = a->loc.str();
            else if (b->loc.valid())
                f.location = b->loc.str();
            f.explanation =
                nodeDesc(a) + " (rw " + refinedSet(a).str() + ") and " +
                nodeDesc(b) + " (rw " + refinedSet(b).str() +
                ") may touch a common address but no token path orders"
                " them";
            out.push_back(f);
        }
    }
}

} // namespace cash
