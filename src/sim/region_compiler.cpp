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

RegionPlan
compileRegions(const RegionGraphView& view, int minOps)
{
    const size_t n = view.nodes.size();
    RegionPlan plan;
    plan.regionOf.assign(n, -1);

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
        return plan;

    CompiledRegion R;
    R.tape.reserve(static_cast<size_t>(numCand));
    std::vector<int32_t> tapeOf(n, -1);
    for (size_t i = 0; i < n; i++) {
        if (!cand[i])
            continue;
        tapeOf[i] = static_cast<int32_t>(R.tape.size());
        plan.regionOf[i] = 0;
        RegionOp op;
        op.dense = static_cast<int32_t>(i);
        op.kind = view.nodes[i].kind;
        op.op = view.nodes[i].op;
        op.unary = view.nodes[i].unary;
        op.latency = view.nodes[i].latency;
        if (op.kind == NodeKind::Merge)
            op.mSlot = R.numMerges++;
        R.tape.push_back(op);
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
    // consumers, interned in first-use (tape, operand) order.
    // Init-only inputs (one-shot merge initial values) get a private
    // stream each: the activation injects exactly one item per merge
    // input, so sharing a stream between two consumers of the same
    // static producer would double-count the injection.
    std::map<std::pair<int32_t, int32_t>, int32_t> inStream;
    std::map<std::pair<int32_t, int32_t>, int32_t> privStream;
    for (size_t t = 0; t < R.tape.size(); t++) {
        const RegionOp& op = R.tape[t];
        const std::vector<RegionGraphView::In>& ins =
            view.nodes[op.dense].in;
        for (size_t k = 0; k < ins.size(); k++) {
            const RegionGraphView::In& in = ins[k];
            if (in.isConst || cand[in.node])
                continue;
            if (in.initOnly) {
                privStream[{static_cast<int32_t>(t),
                            static_cast<int32_t>(k)}] =
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

    // Interior result rings follow the input streams, in tape order.
    // Fused ops own no ring: their single consumer reads a register.
    R.numRings = nIn;
    for (RegionOp& op : R.tape) {
        if (hasInterior[op.dense] && !fused[op.dense])
            op.outRing = R.numRings++;
        op.hasExternal = hasExternal[op.dense];
    }

    // Evaluation cones: per sink, its fused in-tree in operands-
    // before-consumers order (iterative postorder — chains can be
    // deep).  A member's cone-local position is its register slot.
    // Fused members and merges get an empty range: the cascade only
    // ever visits sinks and merges.
    std::vector<int32_t> slotOf(n, -1);
    std::vector<int32_t> coneOff(R.tape.size() + 1);
    std::vector<int32_t> coneOp;  // tape indices
    std::vector<std::pair<int32_t, size_t>> dfs;
    for (size_t t = 0; t < R.tape.size(); t++) {
        coneOff[t] = static_cast<int32_t>(coneOp.size());
        const RegionOp& op = R.tape[t];
        if (fused[op.dense])
            continue;  // member: evaluated inside its sink's cone
        const int32_t base = static_cast<int32_t>(coneOp.size());
        dfs.clear();
        dfs.emplace_back(op.dense, 0);
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
            if (nd != op.dense) {
                slotOf[nd] = static_cast<int32_t>(coneOp.size()) - base;
                coneOp.push_back(tapeOf[nd]);
            }
            dfs.pop_back();
        }
        coneOp.push_back(static_cast<int32_t>(t));  // sink last
        const int32_t csize = static_cast<int32_t>(coneOp.size()) - base;
        if (csize > R.coneMax)
            R.coneMax = csize;
    }
    coneOff[R.tape.size()] = static_cast<int32_t>(coneOp.size());

    // Operand encodings, in original input order (operand k of a tape
    // op is input k of its node — deadlock diagnostics rely on this).
    // Interior operands of AND-firing ops are deliveries the event
    // engine would have dispatched per firing (equivalent-event
    // accounting); merges consume a variable operand subset per
    // firing, so the evaluator counts their reads instead.
    std::map<uint32_t, int32_t> constIdx;
    std::vector<uint32_t> constPool;
    std::vector<int32_t> eqInterior(R.tape.size(), 0);
    std::vector<int8_t> argRole;
    std::vector<int32_t> fwdK(R.tape.size(), -1);
    std::vector<int32_t> deciderK(R.tape.size(), -1);
    for (size_t t = 0; t < R.tape.size(); t++) {
        RegionOp& op = R.tape[t];
        const RegionGraphView::NodeV& nv = view.nodes[op.dense];
        op.argOff = static_cast<int32_t>(R.args.size());
        op.argCnt = static_cast<int32_t>(nv.in.size());
        for (size_t k = 0; k < nv.in.size(); k++) {
            const RegionGraphView::In& in = nv.in[k];
            int32_t enc;
            if (in.isConst) {
                auto [it, fresh] = constIdx.emplace(
                    in.constValue,
                    static_cast<int32_t>(constPool.size()));
                if (fresh)
                    constPool.push_back(in.constValue);
                enc = regArgEncode(RegArg::Const, it->second);
            } else if (cand[in.node] && fused[in.node]) {
                enc = regArgEncode(RegArg::Reg, slotOf[in.node]);
                CASH_ASSERT(slotOf[in.node] >= 0,
                            "fused producer without a register slot");
                if (op.mSlot < 0)
                    eqInterior[t]++;
            } else if (cand[in.node]) {
                const int32_t ring = R.tape[tapeOf[in.node]].outRing;
                CASH_ASSERT(ring >= 0, "interior edge without ring");
                enc = regArgEncode(RegArg::Stream, ring);
                if (op.mSlot < 0)
                    eqInterior[t]++;
            } else if (in.initOnly) {
                enc = regArgEncode(
                    RegArg::Stream,
                    privStream.at({static_cast<int32_t>(t),
                                   static_cast<int32_t>(k)}));
            } else {
                enc = regArgEncode(
                    RegArg::Stream,
                    inStream.at(std::make_pair(in.node, in.port)));
            }
            R.args.push_back(enc);
            argRole.push_back(in.role);
            if (op.mSlot >= 0) {
                if (in.role == kRegRoleDecider)
                    deciderK[t] = static_cast<int32_t>(k);
                else if (in.role == kRegRoleFwd)
                    fwdK[t] = static_cast<int32_t>(k);
            }
        }
    }
    R.totalArgs = static_cast<int32_t>(R.args.size());

    // Ring consumer lists (CSR): cone sinks to seed in the cascade (a
    // ring read by a fused member wakes the member's sink), consuming
    // arg positions for garbage collection.
    std::vector<std::vector<int32_t>> ringArgs(
        static_cast<size_t>(R.numRings));
    std::vector<std::vector<int32_t>> ringOps(
        static_cast<size_t>(R.numRings));
    for (size_t t = 0; t < R.tape.size(); t++) {
        const RegionOp& op = R.tape[t];
        const int32_t sinkT = tapeOf[sinkOf[op.dense]];
        for (int32_t k = 0; k < op.argCnt; k++) {
            const int32_t enc = R.args[op.argOff + k];
            if (regArgTag(enc) != RegArg::Stream)
                continue;
            const int32_t ring = regArgIndex(enc);
            ringArgs[ring].push_back(op.argOff + k);
            std::vector<int32_t>& ops = ringOps[ring];
            if (std::find(ops.begin(), ops.end(), sinkT) == ops.end())
                ops.push_back(sinkT);
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
    for (size_t t = 0; t < R.tape.size(); t++)
        if (R.tape[t].mSlot >= 0)
            scanOrder.push_back(static_cast<int32_t>(t));
    {
        std::vector<int8_t> st(R.tape.size(), 0);
        std::vector<int32_t> post;
        std::vector<std::pair<int32_t, size_t>> stk;
        for (size_t t0 = 0; t0 < R.tape.size(); t0++) {
            const RegionOp& op0 = R.tape[t0];
            if (op0.mSlot >= 0 || fused[op0.dense] || st[t0])
                continue;
            stk.assign(1, {static_cast<int32_t>(t0), 0});
            st[t0] = 1;
            while (!stk.empty()) {
                const int32_t t = stk.back().first;
                size_t& s = stk.back().second;
                const int32_t ring = R.tape[t].outRing;
                bool descended = false;
                while (ring >= 0 && s < ringOps[ring].size()) {
                    const int32_t c = ringOps[ring][s++];
                    if (R.tape[c].mSlot >= 0 || st[c])
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
    std::vector<int32_t> scanPos(R.tape.size(), -1);
    for (size_t p = 0; p < scanOrder.size(); p++)
        scanPos[scanOrder[p]] = static_cast<int32_t>(p);

    // Seed lists in scan positions, so the cascade never maps tape
    // indices back to its worklist order.  An interior ring has one
    // producer visit, so whether a consumer lies ahead of it in the
    // scan (forward edge) or not (back edge, through a merge) is
    // static: forward consumers come first, back ones from seedBack.
    // Input rings have no producer visit; all their seeds count as
    // forward.
    std::vector<int32_t> producerPos(static_cast<size_t>(R.numRings), -1);
    for (size_t t = 0; t < R.tape.size(); t++)
        if (R.tape[t].outRing >= 0)
            producerPos[R.tape[t].outRing] = scanPos[t];
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

    // Pre-decoded visits, one per scan position: a cone's operators
    // with resolved operands and its gating streams, or a merge's
    // forward, decider and back-edge operands.
    auto src = [&](int32_t argIdx) {
        const int32_t enc = R.args[argIdx];
        RegionSrc s;
        switch (regArgTag(enc)) {
          case RegArg::Stream:
            s.ring = regArgIndex(enc);
            s.x = static_cast<uint32_t>(argIdx);
            break;
          case RegArg::Const:
            s.ring = kRegSrcConst;
            s.x = constPool[regArgIndex(enc)];
            break;
          case RegArg::Reg:
            s.ring = kRegSrcReg;
            s.x = static_cast<uint32_t>(regArgIndex(enc));
            break;
        }
        return s;
    };
    R.visits.resize(scanOrder.size());
    for (size_t p = 0; p < scanOrder.size(); p++) {
        const int32_t t = scanOrder[p];
        const RegionOp& op = R.tape[t];
        RegionVisit& v = R.visits[p];
        v.outRing = op.outRing;
        v.mSlot = op.mSlot;
        v.gateOff = static_cast<int32_t>(R.gates.size());
        v.coneOff = static_cast<int32_t>(R.coneOps.size());
        if (op.mSlot >= 0) {
            // The merge's own record: emission target and the kind its
            // firings are counted under.
            RegionConeOp self;
            self.kind = op.kind;
            self.hasExternal = op.hasExternal;
            self.dense = op.dense;
            self.argOff = static_cast<int32_t>(R.coneArgs.size());
            R.coneOps.push_back(self);
            v.coneCnt = 1;
            R.gates.push_back(src(op.argOff + fwdK[t]));
            CASH_ASSERT(R.gates.back().ring >= 0,
                        "merge forward operand is not a stream");
            RegionSrc decider;
            decider.ring = kRegSrcNone;
            if (deciderK[t] >= 0)
                decider = src(op.argOff + deciderK[t]);
            R.gates.push_back(decider);
            for (int32_t k = 0; k < op.argCnt; k++) {
                if (argRole[op.argOff + k] != kRegRoleBack)
                    continue;
                R.gates.push_back(src(op.argOff + k));
                CASH_ASSERT(R.gates.back().ring >= 0,
                            "merge back operand is not a stream");
            }
            v.gateEnd = static_cast<int32_t>(R.gates.size());
            continue;
        }
        v.coneCnt = coneOff[t + 1] - coneOff[t];
        for (int32_t ci = coneOff[t]; ci < coneOff[t + 1]; ci++) {
            const int32_t mt = coneOp[ci];
            const RegionOp& m = R.tape[mt];
            v.coneEq += eqInterior[mt];
            RegionConeOp co;
            co.kind = m.kind;
            co.op = m.op;
            co.unary = m.unary;
            co.latency = m.latency;
            co.hasExternal = m.hasExternal;
            co.argCnt = static_cast<uint16_t>(m.argCnt);
            co.dense = m.dense;
            co.argOff = static_cast<int32_t>(R.coneArgs.size());
            R.coneOps.push_back(co);
            for (int32_t k = 0; k < m.argCnt; k++) {
                const RegionSrc s = src(m.argOff + k);
                R.coneArgs.push_back(s);
                if (s.ring >= 0)
                    R.gates.push_back(s);
            }
        }
        v.gateEnd = static_cast<int32_t>(R.gates.size());
    }

    plan.regions.push_back(std::move(R));
    return plan;
}

} // namespace cash
