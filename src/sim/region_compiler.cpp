#include "sim/region_compiler.h"

#include <algorithm>
#include <map>
#include <utility>

#include "support/diagnostics.h"

namespace cash {

namespace {

/** Operators the streaming evaluator can absorb: pure, AND-firing,
 *  and therefore insensitive to arrival order across streams. */
bool
pureKind(NodeKind k)
{
    return k == NodeKind::Arith || k == NodeKind::Mux ||
           k == NodeKind::Combine || k == NodeKind::Eta;
}

/** Mu-merges whose mode machine is stream-deterministic (see the
 *  header): exactly one forward input, strict wait-for-all back
 *  edges, and at least one dynamic input so the merge actually
 *  receives a delivery under either engine. */
bool
mergeAbsorbable(const RegionGraphView::NodeV& nv)
{
    if (nv.kind != NodeKind::Merge)
        return false;
    int fwd = 0, back = 0;
    bool dynamic = false;
    for (const RegionGraphView::In& in : nv.in) {
        if (in.role == kRegRoleFwd)
            fwd++;
        else if (in.role == kRegRoleBack)
            back++;
        if (!in.isConst)
            dynamic = true;
    }
    if (fwd != 1 || !dynamic)
        return false;
    return back == 0 || nv.strictBack;
}

} // namespace

CompiledRegion
compileRegions(const RegionGraphView& view, int minOps)
{
    const size_t n = view.nodes.size();
    CompiledRegion R;

    // Candidates: pure operators and order-robust merges with at
    // least one dynamic input.  An all-constant operator never
    // receives a delivery and so never fires under either engine;
    // seeding it from a worklist would invent firings the event
    // engine does not perform.
    std::vector<uint8_t> cand(n, 0);
    int numCand = 0;
    for (size_t i = 0; i < n; i++) {
        const RegionGraphView::NodeV& nv = view.nodes[i];
        if (!pureKind(nv.kind) && !mergeAbsorbable(nv))
            continue;
        if (nv.kind == NodeKind::Mux &&
            nv.in.size() > static_cast<size_t>(kMaxRegionMuxArgs))
            continue;  // gather buffer is fixed-size
        for (const RegionGraphView::In& in : nv.in)
            if (!in.isConst) {
                cand[i] = 1;
                numCand++;
                break;
            }
    }
    // Tiled fabric: a region must not fuse across tile boundaries.
    // Keep only the candidates of the best-populated group (ties:
    // lowest group id); the rest stay event-driven.
    if (!view.group.empty()) {
        CASH_ASSERT(view.group.size() == n, "group size mismatch");
        std::map<int32_t, int> perGroup;
        for (size_t i = 0; i < n; i++)
            if (cand[i])
                perGroup[view.group[i]]++;
        int32_t bestGroup = 0;
        int bestCount = -1;
        for (const auto& [grp, count] : perGroup)
            if (count > bestCount) {
                bestGroup = grp;
                bestCount = count;
            }
        for (size_t i = 0; i < n; i++)
            if (cand[i] && view.group[i] != bestGroup) {
                cand[i] = 0;
                numCand--;
            }
    }

    if (numCand < minOps)
        return R;

    // Everything below is indexed by dense node.  members lists the
    // absorbed nodes in dense order; a merge gets a slot in the
    // per-activation mode/time state (-1 for AND-firing operators).
    R.interior = cand;
    std::vector<int32_t> members;
    members.reserve(static_cast<size_t>(numCand));
    std::vector<int32_t> mSlot(n, -1);
    for (size_t i = 0; i < n; i++) {
        if (!cand[i])
            continue;
        members.push_back(static_cast<int32_t>(i));
        if (view.nodes[i].kind == NodeKind::Merge)
            mSlot[i] = R.numMerges++;
    }

    // Consumer summary per candidate: interior consumers get a result
    // ring; external consumers keep the ordinary delivery path.  The
    // interior consumer lists (deduplicated) drive DAG fusion below.
    std::vector<uint8_t> hasInterior(n, 0), hasExternal(n, 0);
    std::vector<std::vector<int32_t>> consumers(n);
    for (size_t j = 0; j < n; j++)
        for (const RegionGraphView::In& in : view.nodes[j].in) {
            if (in.isConst || in.node < 0 || !cand[in.node])
                continue;
            CASH_ASSERT(in.port == 0,
                        "pure operator with multiple output ports");
            (cand[j] ? hasInterior : hasExternal)[in.node] = 1;
            if (cand[j]) {
                std::vector<int32_t>& cs = consumers[in.node];
                if (std::find(cs.begin(), cs.end(),
                              static_cast<int32_t>(j)) == cs.end())
                    cs.push_back(static_cast<int32_t>(j));
            }
        }

    // DAG fusion (see the header): a producer every one of whose
    // consumers is an interior non-merge op needs no ring when those
    // consumers all evaluate inside one sink's cone — its value rides
    // a register slot of that cone.  Eta can't be fused as a producer
    // (its output is conditional) and a merge can't absorb a register
    // (its operand cadence is modal).
    std::vector<uint8_t> fused(n, 0);
    for (size_t i = 0; i < n; i++) {
        if (!cand[i] || hasExternal[i] || !hasInterior[i])
            continue;
        const NodeKind pk = view.nodes[i].kind;
        if (pk != NodeKind::Arith && pk != NodeKind::Mux &&
            pk != NodeKind::Combine)
            continue;
        bool ok = !consumers[i].empty();
        for (const int32_t c : consumers[i])
            if (c == static_cast<int32_t>(i) ||
                view.nodes[c].kind == NodeKind::Merge)
                ok = false;
        fused[i] = ok;
    }
    // A structural cycle of fused pure ops can never fire; break it
    // back to rings so every cone has a sink.  Restart after each cut
    // (cuts are rare — such graphs deadlock at runtime anyway).
    std::vector<int32_t> finish;  // fused nodes, consumers-first
    for (bool again = true; again;) {
        again = false;
        finish.clear();
        std::vector<int8_t> state(n, 0);  // 0 new, 1 on path, 2 done
        std::vector<std::pair<int32_t, size_t>> stk;
        for (size_t i = 0; i < n && !again; i++) {
            if (!fused[i] || state[i])
                continue;
            stk.assign(1, {static_cast<int32_t>(i), 0});
            state[i] = 1;
            while (!stk.empty() && !again) {
                const int32_t nd = stk.back().first;
                size_t& k = stk.back().second;
                bool descended = false;
                while (k < consumers[nd].size()) {
                    const int32_t c = consumers[nd][k++];
                    if (!fused[c])
                        continue;
                    if (state[c] == 1) {  // cycle: cut everything on
                                          // the path (conservative)
                        for (const auto& f : stk)
                            fused[f.first] = 0;
                        again = true;
                        break;
                    }
                    if (state[c] == 0) {
                        state[c] = 1;
                        stk.emplace_back(c, 0);
                        descended = true;
                        break;
                    }
                }
                if (again || descended)
                    continue;
                state[nd] = 2;
                finish.push_back(nd);
                stk.pop_back();
            }
        }
    }
    // The sink of a fused op: the one cone all its consumers evaluate
    // in.  Consumers-first order makes this a single pass — and when
    // the consumers' sinks disagree, the producer keeps its ring and
    // becomes a sink itself, which later producers observe directly.
    std::vector<int32_t> sinkOf(n, -1);
    for (size_t i = 0; i < n; i++)
        if (cand[i])
            sinkOf[i] = static_cast<int32_t>(i);
    for (const int32_t nd : finish) {
        int32_t s = -1;
        bool ok = true;
        for (const int32_t c : consumers[nd]) {
            const int32_t cs = fused[c] ? sinkOf[c] : c;
            if (s < 0)
                s = cs;
            else if (s != cs)
                ok = false;
        }
        if (ok && s >= 0)
            sinkOf[nd] = s;
        else
            fused[nd] = 0;
    }

    // Input streams: one per external producer port with interior
    // consumers, interned in first-use (node, operand) order.
    // Init-only inputs (one-shot merge initial values) get a private
    // stream each: the activation injects exactly one item per merge
    // input, so sharing a stream between two consumers of the same
    // static producer would double-count the injection.
    std::map<std::pair<int32_t, int32_t>, int32_t> inStream;
    std::map<std::pair<int32_t, int32_t>, int32_t> privStream;
    for (const int32_t d : members) {
        const std::vector<RegionGraphView::In>& ins = view.nodes[d].in;
        for (size_t k = 0; k < ins.size(); k++) {
            const RegionGraphView::In& in = ins[k];
            if (in.isConst || cand[in.node])
                continue;
            if (in.initOnly) {
                privStream[{d, static_cast<int32_t>(k)}] =
                    static_cast<int32_t>(R.inputs.size());
                R.inputs.push_back({in.node, in.port});
                continue;
            }
            auto key = std::make_pair(in.node, in.port);
            if (inStream
                    .emplace(key,
                             static_cast<int32_t>(R.inputs.size()))
                    .second)
                R.inputs.push_back({in.node, in.port});
        }
    }
    const int32_t nIn = static_cast<int32_t>(R.inputs.size());

    // Interior result rings follow the input streams, in dense order.
    // Fused ops own no ring: their single consumer reads a register.
    std::vector<int32_t> outRing(n, -1);
    R.numRings = nIn;
    for (const int32_t d : members)
        if (hasInterior[d] && !fused[d])
            outRing[d] = R.numRings++;

    // Evaluation cones: per sink, its fused in-tree in operands-
    // before-consumers order (iterative postorder — chains can be
    // deep).  A member's cone-local position is its register slot.
    // Fused members and merges get an empty range: the cascade only
    // ever visits sinks and merges.
    std::vector<int32_t> slotOf(n, -1);
    std::vector<int32_t> coneOff(n, 0), coneCnt(n, 0);
    std::vector<int32_t> coneOp;  // dense nodes
    std::vector<std::pair<int32_t, size_t>> dfs;
    for (const int32_t sink : members) {
        if (fused[sink])
            continue;  // member: evaluated inside its sink's cone
        const int32_t base = static_cast<int32_t>(coneOp.size());
        coneOff[sink] = base;
        dfs.clear();
        dfs.emplace_back(sink, 0);
        while (!dfs.empty()) {
            const int32_t nd = dfs.back().first;
            const std::vector<RegionGraphView::In>& ins =
                view.nodes[nd].in;
            size_t& k = dfs.back().second;
            bool descended = false;
            while (k < ins.size()) {
                const RegionGraphView::In& in = ins[k++];
                if (!in.isConst && in.node >= 0 && fused[in.node] &&
                    slotOf[in.node] < 0) {
                    dfs.emplace_back(in.node, 0);
                    descended = true;
                    break;
                }
            }
            if (descended)
                continue;
            if (nd != sink) {
                slotOf[nd] = static_cast<int32_t>(coneOp.size()) - base;
                coneOp.push_back(nd);
            }
            dfs.pop_back();
        }
        coneOp.push_back(sink);  // sink last
        coneCnt[sink] = static_cast<int32_t>(coneOp.size()) - base;
        R.coneMax = std::max(R.coneMax, coneCnt[sink]);
    }

    // Decoded operands, in dense-node order and original input order
    // (operand k of a node is its input k — the simulator's set-up and
    // deadlock report rely on this).  Interior operands of AND-firing
    // ops are deliveries the event engine would have dispatched per
    // firing (equivalent-event accounting); merges consume a variable
    // operand subset per firing, so the evaluator counts their reads
    // instead.
    std::vector<int32_t> eqInterior(n, 0);
    std::vector<int8_t> argRole;
    std::vector<int32_t> fwdK(n, -1);
    std::vector<int32_t> deciderK(n, -1);
    R.operandOff.assign(n + 1, 0);
    for (size_t i = 0; i < n; i++) {
        R.operandOff[i] = static_cast<int32_t>(R.operands.size());
        if (!cand[i])
            continue;
        const RegionGraphView::NodeV& nv = view.nodes[i];
        for (size_t k = 0; k < nv.in.size(); k++) {
            const RegionGraphView::In& in = nv.in[k];
            RegionSrc s;
            s.x = static_cast<uint32_t>(R.operands.size());
            if (in.isConst) {
                s.ring = kRegSrcConst;
                s.x = in.constValue;
            } else if (cand[in.node] && fused[in.node]) {
                CASH_ASSERT(slotOf[in.node] >= 0,
                            "fused producer without a register slot");
                s.ring = kRegSrcReg;
                s.x = static_cast<uint32_t>(slotOf[in.node]);
                if (mSlot[i] < 0)
                    eqInterior[i]++;
            } else if (cand[in.node]) {
                s.ring = outRing[in.node];
                CASH_ASSERT(s.ring >= 0, "interior edge without ring");
                if (mSlot[i] < 0)
                    eqInterior[i]++;
            } else if (in.initOnly) {
                s.ring = privStream.at(
                    {static_cast<int32_t>(i), static_cast<int32_t>(k)});
            } else {
                s.ring = inStream.at(std::make_pair(in.node, in.port));
            }
            R.operands.push_back(s);
            argRole.push_back(in.role);
            if (mSlot[i] >= 0) {
                if (in.role == kRegRoleDecider)
                    deciderK[i] = static_cast<int32_t>(k);
                else if (in.role == kRegRoleFwd)
                    fwdK[i] = static_cast<int32_t>(k);
            }
        }
    }
    R.operandOff[n] = static_cast<int32_t>(R.operands.size());

    // Ring consumer lists (CSR): cone sinks to seed in the cascade (a
    // ring read by a fused member wakes the member's sink), consuming
    // operand positions for garbage collection.
    std::vector<std::vector<int32_t>> ringArgs(
        static_cast<size_t>(R.numRings));
    std::vector<std::vector<int32_t>> ringOps(
        static_cast<size_t>(R.numRings));
    for (const int32_t d : members) {
        const int32_t sink = sinkOf[d];
        for (int32_t a = R.operandOff[d]; a < R.operandOff[d + 1]; a++) {
            const int32_t ring = R.operands[a].ring;
            if (ring < 0)
                continue;
            ringArgs[ring].push_back(a);
            std::vector<int32_t>& ops = ringOps[ring];
            if (std::find(ops.begin(), ops.end(), sink) == ops.end())
                ops.push_back(sink);
        }
    }
    R.gcOff.resize(static_cast<size_t>(R.numRings) + 1);
    for (int32_t r = 0; r < R.numRings; r++) {
        R.gcOff[r] = static_cast<int32_t>(R.gcArg.size());
        R.gcArg.insert(R.gcArg.end(), ringArgs[r].begin(),
                       ringArgs[r].end());
    }
    R.gcOff[R.numRings] = static_cast<int32_t>(R.gcArg.size());

    R.inputEdges.resize(static_cast<size_t>(nIn));
    for (int32_t r = 0; r < nIn; r++)
        R.inputEdges[r] = static_cast<int32_t>(ringArgs[r].size());

    // Cascade scan order (see RegionVisit): merges first, then cone
    // sinks in topological order of forward sink-to-sink ring edges
    // (iterative DFS postorder, reversed).  Cycles can only pass
    // through merges or through pure sink loops that never fire, so
    // ignoring DFS back edges is safe.
    std::vector<int32_t> scanOrder;
    for (const int32_t d : members)
        if (mSlot[d] >= 0)
            scanOrder.push_back(d);
    {
        std::vector<int8_t> st(n, 0);
        std::vector<int32_t> post;
        std::vector<std::pair<int32_t, size_t>> stk;
        for (const int32_t d0 : members) {
            if (mSlot[d0] >= 0 || fused[d0] || st[d0])
                continue;
            stk.assign(1, {d0, 0});
            st[d0] = 1;
            while (!stk.empty()) {
                const int32_t t = stk.back().first;
                size_t& s = stk.back().second;
                const int32_t ring = outRing[t];
                bool descended = false;
                while (ring >= 0 && s < ringOps[ring].size()) {
                    const int32_t c = ringOps[ring][s++];
                    if (mSlot[c] >= 0 || st[c])
                        continue;
                    st[c] = 1;
                    stk.emplace_back(c, 0);
                    descended = true;
                    break;
                }
                if (descended)
                    continue;
                st[t] = 2;
                post.push_back(t);
                stk.pop_back();
            }
        }
        scanOrder.insert(scanOrder.end(), post.rbegin(), post.rend());
    }
    std::vector<int32_t> scanPos(n, -1);
    for (size_t p = 0; p < scanOrder.size(); p++)
        scanPos[scanOrder[p]] = static_cast<int32_t>(p);

    // Seed lists in scan positions, so the cascade never maps nodes
    // back to its worklist order.  An interior ring has one
    // producer visit, so whether a consumer lies ahead of it in the
    // scan (forward edge) or not (back edge, through a merge) is
    // static: forward consumers come first, back ones from seedBack.
    // Input rings have no producer visit; all their seeds count as
    // forward.
    std::vector<int32_t> producerPos(static_cast<size_t>(R.numRings), -1);
    for (const int32_t d : members)
        if (outRing[d] >= 0)
            producerPos[outRing[d]] = scanPos[d];
    R.seedOff.resize(static_cast<size_t>(R.numRings) + 1);
    R.seedBack.resize(static_cast<size_t>(R.numRings));
    for (int32_t r = 0; r < R.numRings; r++) {
        R.seedOff[r] = static_cast<int32_t>(R.seedPos.size());
        const int32_t from = producerPos[r];
        for (const int32_t t : ringOps[r])
            if (from < 0 || scanPos[t] > from)
                R.seedPos.push_back(scanPos[t]);
        R.seedBack[r] = static_cast<int32_t>(R.seedPos.size());
        for (const int32_t t : ringOps[r])
            if (from >= 0 && scanPos[t] <= from)
                R.seedPos.push_back(scanPos[t]);
    }
    R.seedOff[R.numRings] = static_cast<int32_t>(R.seedPos.size());

    // Visits, one per scan position: a cone's operators (reading
    // their decoded operands in place) and its gating streams, or a
    // merge's forward, decider and back-edge operands.
    R.visits.resize(scanOrder.size());
    for (size_t p = 0; p < scanOrder.size(); p++) {
        const int32_t d = scanOrder[p];
        const RegionSrc* ops = R.operands.data() + R.operandOff[d];
        RegionVisit& v = R.visits[p];
        v.outRing = outRing[d];
        v.mSlot = mSlot[d];
        v.gateOff = static_cast<int32_t>(R.gates.size());
        v.coneOff = static_cast<int32_t>(R.coneOps.size());
        if (mSlot[d] >= 0) {
            // The merge's own record: emission target and the kind its
            // firings are counted under.
            RegionConeOp self;
            self.kind = NodeKind::Merge;
            self.hasExternal = hasExternal[d];
            self.dense = d;
            R.coneOps.push_back(self);
            v.coneCnt = 1;
            R.gates.push_back(ops[fwdK[d]]);
            CASH_ASSERT(R.gates.back().ring >= 0,
                        "merge forward operand is not a stream");
            RegionSrc decider;
            decider.ring = kRegSrcNone;
            if (deciderK[d] >= 0)
                decider = ops[deciderK[d]];
            R.gates.push_back(decider);
            for (int32_t a = R.operandOff[d]; a < R.operandOff[d + 1];
                 a++) {
                if (argRole[a] != kRegRoleBack)
                    continue;
                R.gates.push_back(R.operands[a]);
                CASH_ASSERT(R.gates.back().ring >= 0,
                            "merge back operand is not a stream");
            }
            v.gateEnd = static_cast<int32_t>(R.gates.size());
            continue;
        }
        v.coneCnt = coneCnt[d];
        for (int32_t ci = coneOff[d]; ci < coneOff[d] + coneCnt[d]; ci++) {
            const int32_t m = coneOp[ci];
            const RegionGraphView::NodeV& nv = view.nodes[m];
            v.coneEq += eqInterior[m];
            RegionConeOp co;
            co.kind = nv.kind;
            co.op = nv.op;
            co.unary = nv.unary;
            co.latency = nv.latency;
            co.hasExternal = hasExternal[m];
            co.argCnt = static_cast<uint16_t>(nv.in.size());
            co.dense = m;
            co.argOff = R.operandOff[m];
            R.coneOps.push_back(co);
            for (int32_t a = R.operandOff[m]; a < R.operandOff[m + 1]; a++)
                if (R.operands[a].ring >= 0)
                    R.gates.push_back(R.operands[a]);
        }
        v.gateEnd = static_cast<int32_t>(R.gates.size());
    }
    return R;
}

} // namespace cash
