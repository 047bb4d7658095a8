#include "sim/dataflow_sim.h"

#include <algorithm>

#include "sim/latency.h"
#include "sim/value.h"
#include "support/diagnostics.h"

namespace cash {

const char*
simEngineName(SimEngine e)
{
    switch (e) {
      case SimEngine::Event: return "event";
      case SimEngine::Macro: return "macro";
    }
    return "?";
}

const char*
simOutcomeName(SimOutcome o)
{
    switch (o) {
      case SimOutcome::Ok: return "ok";
      case SimOutcome::Deadlock: return "deadlock";
      case SimOutcome::EventLimit: return "event_limit";
      case SimOutcome::StackOverflow: return "stack_overflow";
      case SimOutcome::MissingGraph: return "missing_graph";
      case SimOutcome::Timeout: return "timeout";
    }
    return "?";
}

std::string
StuckNode::str() const
{
    std::string s = "act" + std::to_string(activation) + " " +
                    function + ": " + node + " waiting on";
    for (const std::string& w : waitingOn)
        s += " " + w;
    return s;
}

std::string
DeadlockReport::str() const
{
    std::string s = "deadlock at cycle " + std::to_string(stallTime) +
                    " (lsq occupancy " + std::to_string(lsqOccupancy) +
                    "), " + std::to_string(stuck.size()) +
                    " starved node(s):";
    for (const StuckNode& n : stuck)
        s += "\n  " + n.str();
    return s;
}

DataflowSimulator::DataflowSimulator(
    const std::vector<const Graph*>& graphs, const MemoryLayout& layout,
    const MemConfig& cfg, SimEngine engine, const FabricSession* fabric)
    : layout_(layout), image_(layout), memsys_(cfg), engine_(engine)
{
    if (fabric && !fabric->model.trivial()) {
        fabric_ = fabric;
        fabricActive_ = true;
    }
    for (const Graph* g : graphs)
        buildIndex(g);
    linkCallees();
    fireCounts_.assign(static_cast<size_t>(NodeKind::TokenGen) + 1, 0);
    if (fabric_) {
        for (const auto& entry : graphs_) {
            auto it = fabric_->placements.find(entry.first);
            if (it == fabric_->placements.end())
                continue;
            const Placement& pl = it->second;
            fabricCutEdges_ += pl.cutEdges;
            fabricTotalEdges_ += pl.totalEdges;
            fabricCutHops_ += pl.cutHops;
            fabricMaxTileOps_ =
                std::max(fabricMaxTileOps_, pl.maxTileOps);
            fabricUsedTiles_ += pl.usedTiles;
            fabricNodes_ += pl.numNodes;
        }
    }
}

void
DataflowSimulator::setTracer(TraceRecorder* tracer)
{
    tracer_ = tracer;
    memsys_.setTracer(tracer);
}

void
DataflowSimulator::buildIndex(const Graph* g)
{
    GraphIndex gi;
    gi.g = g;
    std::vector<Node*> nodes = g->liveNodes();
    // Dense index by node id (ids are unique within a graph); -1 for
    // any node that is not one of this graph's live nodes.
    std::vector<int32_t> denseById(static_cast<size_t>(g->idLimit()), -1);
    for (size_t i = 0; i < nodes.size(); i++)
        denseById[nodes[i]->id] = static_cast<int32_t>(i);
    auto denseOf = [&](const Node* n) -> int32_t {
        if (n->id < 0 || n->id >= g->idLimit())
            return -1;
        const int32_t d = denseById[n->id];
        return d >= 0 && nodes[d] == n ? d : -1;
    };

    // Tiled fabric: the placement for this graph, if one was supplied.
    const Placement* placed = nullptr;
    if (fabric_) {
        auto pit = fabric_->placements.find(g->name);
        if (pit != fabric_->placements.end()) {
            CASH_ASSERT(pit->second.tileOf.size() == nodes.size(),
                        "placement does not match live-node count");
            placed = &pit->second;
            gi.tileOf = pit->second.tileOf;
        }
    }

    // Statically-known producer values: Const nodes, and pure
    // arithmetic whose inputs are themselves static.  Firing is
    // delivery-triggered, so an operator with only constant inputs
    // would never fire and would starve its consumers forever — such
    // graphs reach the simulator when constant folding did not run
    // (custom pipelines, quarantined passes, raw builder output).
    // Folding them into the consumers' input descriptors makes the
    // engine independent of any optimizer invariant.
    //
    // Memoized per dense node (0 = not yet computed, 1 = known,
    // 2 = not static); `visiting` guards cycles.  A node outside the
    // graph is evaluated without memoization.
    std::vector<uint8_t> memo(nodes.size(), 0);
    std::vector<uint32_t> memoValue(nodes.size(), 0);
    std::vector<uint8_t> visiting(nodes.size(), 0);
    auto staticRec = [&](auto& self, const Node* n,
                         uint32_t& out) -> bool {
        const int32_t d = denseOf(n);
        if (d >= 0 && memo[d]) {
            out = memoValue[d];
            return memo[d] == 1;
        }
        bool known = false;
        uint32_t v = 0;
        if (n->kind == NodeKind::Const) {
            known = true;
            v = static_cast<uint32_t>(n->constValue);
        } else if (n->kind == NodeKind::Arith && d >= 0 &&
                   !visiting[d]) {
            visiting[d] = 1;
            if ((n->op == Op::Copy || opIsUnary(n->op)) &&
                n->numInputs() == 1) {
                uint32_t x;
                if (n->input(0).valid() &&
                    self(self, n->input(0).node, x)) {
                    known = true;
                    v = evalUnary(n->op, x);
                }
            } else if (n->numInputs() == 2) {
                uint32_t x, y;
                if (n->input(0).valid() && n->input(1).valid() &&
                    self(self, n->input(0).node, x) &&
                    self(self, n->input(1).node, y)) {
                    known = true;
                    v = evalBinary(n->op, x, y);
                }
            }
            visiting[d] = 0;
        }
        if (d >= 0) {
            memo[d] = known ? 1 : 2;
            memoValue[d] = v;
        }
        out = v;
        return known;
    };
    auto staticValue = [&](const Node* n, uint32_t& out) {
        return staticRec(staticRec, n, out);
    };
    gi.nodes.resize(nodes.size());
    gi.hot.resize(nodes.size() + 1);  // +1: sentinel (input counts)
    for (size_t i = 0; i < nodes.size(); i++) {
        NodeIndex& ni = gi.nodes[i];
        NodeHot& h = gi.hot[i];
        ni.n = nodes[i];
        h.kind = static_cast<uint8_t>(nodes[i]->kind);
        h.latency = static_cast<uint8_t>(nodeLatency(nodes[i]));
        if (nodes[i]->kind == NodeKind::Arith) {
            h.op = static_cast<uint8_t>(nodes[i]->op);
            h.unary = nodes[i]->op == Op::Copy ||
                      opIsUnary(nodes[i]->op);
        }
        h.fifoBase = gi.numFifoSlots;
        h.portBase = gi.numPortSlots;
        gi.numFifoSlots += nodes[i]->numInputs();
        gi.numPortSlots += std::max(nodes[i]->numOutputs(), 1);
        for (int k = 0; k < nodes[i]->numInputs(); k++) {
            const PortRef& in = nodes[i]->input(k);
            CASH_ASSERT(in.valid() && !in.node->dead,
                        "simulating graph with dangling input");
            // Static inputs are always-ready, except on Merge *value*
            // slots, where a one-shot initial value is injected
            // instead (static deciders stay always-ready).
            InputDesc d;
            uint32_t sv = 0;
            if (staticValue(in.node, sv) &&
                (nodes[i]->kind != NodeKind::Merge ||
                 k == nodes[i]->deciderIndex)) {
                d.isConst = true;
                d.constValue = sv;
            } else {
                h.need++;
            }
            gi.inDesc.push_back(d);
        }
        if (nodes[i]->kind == NodeKind::TokenGen) {
            ni.tkSlot = static_cast<int>(gi.tkInit.size());
            gi.tkInit.push_back(nodes[i]->tkCount);
        }
        if (nodes[i]->kind == NodeKind::Merge) {
            const Node* m = nodes[i];
            ni.deciderIdx = m->deciderIndex;
            ni.strictBack = true;
            for (int k = 0; k < m->numInputs(); k++) {
                if (k == m->deciderIndex)
                    continue;
                if (m->inputIsBackEdge(k)) {
                    ni.backInputs.push_back(k);
                    const Node* prod = m->input(k).node;
                    if (prod->kind != NodeKind::Eta ||
                        prod->hyperblock != m->hyperblock)
                        ni.strictBack = false;
                } else {
                    ni.fwdInputs.push_back(k);
                }
                uint32_t mv = 0;
                if (staticValue(m->input(k).node, mv))
                    gi.mergeInits.push_back(
                        {{static_cast<int32_t>(i),
                          gi.hot[i].fifoBase + k},
                         mv});
            }
        }
    }
    gi.hot[nodes.size()].fifoBase = gi.numFifoSlots;
    gi.hot[nodes.size()].portBase = gi.numPortSlots;

    // Macro engine: compile the pure interior into the graph's
    // super-operator, fed through its collapsed input streams.
    if (engine_ == SimEngine::Macro) {
        RegionGraphView view;
        view.nodes.resize(nodes.size());
        for (size_t i = 0; i < nodes.size(); i++) {
            RegionGraphView::NodeV& nv = view.nodes[i];
            const bool isMerge = nodes[i]->kind == NodeKind::Merge;
            nv.kind = nodes[i]->kind;
            nv.op = nodes[i]->op;
            nv.unary = gi.hot[i].unary != 0;
            nv.latency = gi.hot[i].latency;
            nv.strictBack = isMerge && gi.nodes[i].strictBack;
            nv.in.reserve(static_cast<size_t>(nodes[i]->numInputs()));
            for (int k = 0; k < nodes[i]->numInputs(); k++) {
                const InputDesc& d =
                    gi.inDesc[gi.hot[i].fifoBase + k];
                RegionGraphView::In in;
                in.isConst = d.isConst;
                in.constValue = d.constValue;
                if (!d.isConst) {
                    const PortRef& pr = nodes[i]->input(k);
                    in.node = denseOf(pr.node);
                    CASH_ASSERT(in.node >= 0, "input from foreign node");
                    in.port = pr.port;
                }
                if (isMerge) {
                    if (k == gi.nodes[i].deciderIdx)
                        in.role = kRegRoleDecider;
                    else if (nodes[i]->inputIsBackEdge(k))
                        in.role = kRegRoleBack;
                    // Merge value slots wired to static producers get
                    // a one-shot initial value instead of deliveries.
                    uint32_t mv = 0;
                    if (!d.isConst &&
                        staticValue(nodes[i]->input(k).node, mv))
                        in.initOnly = true;
                }
                nv.in.push_back(in);
            }
        }
        // Fabric: a super-operator must not fuse across tiles; the
        // compiler keeps candidates of one tile only (docs/FABRIC.md).
        if (placed)
            view.group = gi.tileOf;
        gi.region = compileRegions(view);
    }
    const CompiledRegion& R = gi.region;
    if (!R.empty()) {
        regionsTotal_++;
        const size_t cm = static_cast<size_t>(R.coneMax);
        if (cm > regVal_.size()) {
            regVal_.resize(cm);
            regTim_.resize(cm);
        }
        const size_t words = (R.visits.size() + 63) / 64;
        if (words > regWaveBits_.size()) {
            regWaveBits_.resize(words, 0);
            regNextBits_.resize(words, 0);
        }
        gi.visitBase = static_cast<int32_t>(regVisitFires_.size());
        regVisitFires_.resize(regVisitFires_.size() + R.visits.size(), 0);
        // The region lives on one tile: the group constraint keeps
        // every absorbed node on the tile of the first.
        if (placed) {
            size_t first = 0;
            while (!R.interior[first])
                first++;
            gi.regionTile = gi.tileOf[first];
        }
        // One-shot initial values targeting absorbed merges land in
        // the region's private input stream instead of the (now
        // unreachable) merge fifo: the merge's operand for that input.
        for (GraphIndex::MergeInit& mi : gi.mergeInits) {
            const int32_t m = mi.to.node;
            if (!R.interior[m])
                continue;
            const RegionSrc& src =
                R.operands[R.operandOff[m] + mi.to.slot -
                           gi.hot[m].fifoBase];
            CASH_ASSERT(src.ring >= 0, "merge init on a constant operand");
            mi.to = {kRegionNode, src.ring};
        }
    }

    // CSR consumer lists: count uses per producer port, then fill.
    // Region interiors are rerouted: an edge into an interior node is
    // dropped when it comes from the region itself and redirected to
    // the region's collapsed input stream otherwise (one entry per
    // input port, however many interior consumers it had).
    auto interior = [&](size_t i) { return !R.empty() && R.interior[i]; };
    std::vector<int> counts(gi.numPortSlots, 0);
    for (size_t i = 0; i < nodes.size(); i++) {
        if (interior(i))
            continue;
        Node* n = nodes[i];
        for (int k = 0; k < n->numInputs(); k++) {
            if (gi.inDesc[gi.hot[i].fifoBase + k].isConst)
                continue;
            const PortRef& in = n->input(k);
            const int32_t prod = denseOf(in.node);
            CASH_ASSERT(prod >= 0, "input from foreign node");
            counts[gi.hot[prod].portBase + in.port]++;
        }
    }
    for (const CompiledRegion::Input& ri : R.inputs)
        counts[gi.hot[ri.node].portBase + ri.port]++;
    gi.consOff.resize(gi.numPortSlots + 1);
    int total = 0;
    for (int p = 0; p < gi.numPortSlots; p++) {
        gi.consOff[p] = total;
        total += counts[p];
    }
    gi.consOff[gi.numPortSlots] = total;
    gi.cons.resize(total);
    std::vector<int> fill(gi.consOff.begin(),
                          gi.consOff.end() - 1);
    for (size_t i = 0; i < nodes.size(); i++) {
        if (interior(i))
            continue;
        Node* n = nodes[i];
        for (int k = 0; k < n->numInputs(); k++) {
            if (gi.inDesc[gi.hot[i].fifoBase + k].isConst)
                continue;
            const PortRef& in = n->input(k);
            int port = gi.hot[denseOf(in.node)].portBase + in.port;
            gi.cons[fill[port]++] = {static_cast<int32_t>(i),
                                     gi.hot[i].fifoBase + k};
        }
    }
    for (size_t k = 0; k < R.inputs.size(); k++) {
        int port = gi.hot[R.inputs[k].node].portBase + R.inputs[k].port;
        gi.cons[fill[port]++] = {kRegionNode, static_cast<int32_t>(k)};
    }
    // Fabric: per-consumer hop cost and credit channel, parallel to
    // the CSR `cons` array so output() charges them with one lookup.
    if (placed) {
        gi.consHop.assign(gi.cons.size(), 0);
        gi.consChan.assign(gi.cons.size(), -1);
        const FabricModel& fm = fabric_->model;
        const int T = fm.numTiles();
        for (size_t i = 0; i < nodes.size(); i++) {
            const int srcTile = gi.tileOf[i];
            for (int p = gi.hot[i].portBase; p < gi.hot[i + 1].portBase;
                 p++)
                for (int c = gi.consOff[p]; c < gi.consOff[p + 1];
                     c++) {
                    const int32_t to = gi.cons[c].node;
                    const int dstTile =
                        to == kRegionNode ? gi.regionTile : gi.tileOf[to];
                    const int d = fm.hopDist(srcTile, dstTile);
                    if (d == 0)
                        continue;
                    gi.consHop[c] = d * fm.hopLatency;
                    if (fm.linkCredits > 0)
                        gi.consChan[c] = srcTile * T + dstTile;
                }
        }
    }

    // Distinguished nodes, resolved once so activation start never
    // touches a map.
    for (const Node* p : g->paramNodes) {
        gi.paramDense.push_back(denseOf(p));
        CASH_ASSERT(gi.paramDense.back() >= 0, "parameter is not live");
    }
    gi.initialTokenDense = denseOf(g->initialToken);
    CASH_ASSERT(gi.initialTokenDense >= 0, "initial token is not live");
    graphs_[g->name] = std::move(gi);
}

void
DataflowSimulator::linkCallees()
{
    // Resolve callee GraphIndex pointers after all graphs are indexed;
    // std::map nodes are stable, so the pointers stay valid.  A call to
    // a graph that was not provided stays null and is a fatal error if
    // it ever fires (matching the old by-name lookup).
    for (auto& [name, gi] : graphs_) {
        (void)name;
        for (NodeIndex& ni : gi.nodes) {
            if (ni.n->kind != NodeKind::Call || !ni.n->callee)
                continue;
            auto it = graphs_.find(ni.n->callee->name);
            if (it != graphs_.end())
                ni.callee = &it->second;
        }
    }
}

void
DataflowSimulator::failRun(SimOutcome outcome, std::string why)
{
    // First failure wins; later ones are consequences of the first.
    if (runOutcome_ != SimOutcome::Ok)
        return;
    runOutcome_ = outcome;
    runError_ = std::move(why);
}

void
DataflowSimulator::reset()
{
    image_.reset();
    memsys_.reset();
    stackPtr_ = MemoryLayout::kStackTop;
}

DataflowSimulator::Activation*
DataflowSimulator::startActivation(const GraphIndex& gi,
                                   const std::vector<uint32_t>& args,
                                   uint64_t when, Activation* parent,
                                   int parentCallNode)
{
    // Frame check first, before any allocation or parent accounting,
    // so a refused activation leaves no half-initialized state behind.
    if (gi.g->hasFrame && stackPtr_ < gi.g->frameBytes + 0x1000) {
        failRun(SimOutcome::StackOverflow,
                "simulated stack overflow starting '" + gi.g->name +
                    "' (frame " + std::to_string(gi.g->frameBytes) +
                    " bytes, stack pointer " +
                    std::to_string(stackPtr_) + ")");
        return nullptr;
    }

    Activation* a;
    if (!freePool_.empty()) {
        a = freePool_.back();
        freePool_.pop_back();
        a->pooled = false;
        actRecycled_++;
    } else {
        activations_.push_back(std::make_unique<Activation>());
        a = activations_.back().get();
    }
    a->id = nextActId_++;
    a->gi = &gi;
    a->parent = parent;
    a->parentCallNode = parentCallNode;
    a->startTime = when;
    a->frameBase = 0;
    a->frameSize = 0;
    a->inflight = 0;
    a->liveChildren = 0;
    a->finished = false;
    a->fifo.resize(gi.numFifoSlots);
    for (ItemFifo& f : a->fifo)
        f.clear();  // keeps spill capacity across recycling
    a->portClock.assign(gi.numPortSlots, 0);
    a->readyCnt.assign(gi.nodes.size(), 0);
    a->mergeMode.assign(gi.nodes.size(), Activation::MergeMode::Fwd);
    a->tkCounter = gi.tkInit;
    if (!gi.region.empty()) {
        const CompiledRegion& R = gi.region;
        a->regRing.resize(static_cast<size_t>(R.numRings));
        for (RegRing& r : a->regRing)
            r.clear();  // keeps ring capacity across recycling
        a->regConsumed.assign(R.operands.size(), 0);
        a->regMerge.assign(static_cast<size_t>(R.numMerges),
                           Activation::RegMerge{});
    }
    a->regDirty = 0;
    actSpawned_++;
    liveActs_++;
    if (liveActs_ > peakLiveActs_)
        peakLiveActs_ = liveActs_;
    if (parent)
        parent->liveChildren++;

    const Graph* g = gi.g;
    CASH_ASSERT(args.size() == static_cast<size_t>(g->numParams),
                "bad simulated argument count for " + g->name);

    if (g->hasFrame) {
        a->frameSize = g->frameBytes;
        stackPtr_ -= a->frameSize;
        a->frameBase = stackPtr_;
    }

    // Inject parameters and the initial token.
    for (size_t p = 0; p < gi.paramDense.size(); p++) {
        uint32_t v = p < args.size() ? args[p] : a->frameBase;
        output(a, gi.paramDense[p], 0, v, when);
    }
    output(a, gi.initialTokenDense, 0, 0, when);

    // One-shot initial values for merge inputs wired to constants.
    for (const GraphIndex::MergeInit& mi : gi.mergeInits)
        deliver(a, mi.to, Item{mi.value, false}, when);
    return a;
}

void
DataflowSimulator::recycle(Activation* a)
{
    a->pooled = true;
    freePool_.push_back(a);
}

void
DataflowSimulator::releaseActivations()
{
    freePool_.clear();
    activations_.clear();
}

// The hottest paths in the system — one enqueue per event, one
// readiness check per delivery — are force-inlined into their
// same-TU callers; the compiler's size heuristics otherwise leave
// them out of line.
inline __attribute__((always_inline)) void
DataflowSimulator::deliver(Activation* a, Consumer to, Item item,
                           uint64_t when)
{
    // Macro engine: deliveries into a super-operator bypass the event
    // queue entirely — the cascade is a confluent max-plus replay, so
    // absorbing the item immediately (even with a future timestamp)
    // computes the same values and completion times the queue walk
    // would, without a calendar round-trip per boundary input.
    if (to.node == kRegionNode)
        fireRegion(a, to.slot, item, when);
    else
        enqueue(a, to.node, to.slot, item, when);
}

inline __attribute__((always_inline)) void
DataflowSimulator::enqueue(Activation* a, int node, int slot, Item item,
                           uint64_t when)
{
    Event e;
    e.seq = seq_++;
    e.act = a;
    e.node = node;
    e.slot = slot;
    e.item = item;
    // Injected fault: silently lose this delivery.  Keyed on the
    // deterministic sequence number, so the same spec drops the same
    // logical event on every run.
    if (faults_ && faults_->dropEvent(e.seq)) {
        droppedEvents_++;
        return;
    }
    a->inflight++;
    if (when <= now_) {
        // Zero-latency delivery (the common case: wires between
        // combinational operators) — straight onto the worklist.
        bucketOps_++;
        ready_.push_back(e);
        return;
    }
    const uint64_t ahead = (when >> kBandBits) - (now_ >> kBandBits);
    if (ahead < 2) {
        bucketOps_++;
        const uint64_t s = when & (kFineSize - 1);
        wheel_[s].push_back(e);
        wheelBits_[s >> 6] |= 1ull << (s & 63);
        wheelCount_++;
    } else if (ahead < 2 + kCoarseBands) {
        bucketOps_++;
        const uint64_t s = (when >> kBandBits) & (kCoarseBands - 1);
        coarse_[s].push_back({when, e});
        coarseBits_[s >> 6] |= 1ull << (s & 63);
        coarseCount_++;
    } else {
        heapOps_++;
        overflow_.push({when, e});
    }
}

namespace {

/** Distance from position @p s to the nearest set bit of the circular
 *  bitmap @p bits (at least one bit must be set). */
template <size_t Words>
uint64_t
nextSetBit(const std::array<uint64_t, Words>& bits, uint64_t s)
{
    uint64_t w = s >> 6;
    uint64_t word = bits[w] >> (s & 63);
    if (word)
        return static_cast<uint64_t>(__builtin_ctzll(word));
    uint64_t dist = 64 - (s & 63);
    w = (w + 1) % Words;
    while (!(word = bits[w])) {
        dist += 64;
        w = (w + 1) % Words;
    }
    return dist + static_cast<uint64_t>(__builtin_ctzll(word));
}

} // namespace

void
DataflowSimulator::migrateBand(uint64_t band)
{
    const uint64_t cs = band & (kCoarseBands - 1);
    RecordBuf<TimedEvent>& src = coarse_[cs];
    if (src.empty())
        return;
    coarseBits_[cs >> 6] &= ~(1ull << (cs & 63));
    coarseCount_ -= src.size();
    wheelCount_ += src.size();
    for (const TimedEvent& te : src) {
        const uint64_t fs = te.time & (kFineSize - 1);
        wheel_[fs].push_back(te.e);
        wheelBits_[fs >> 6] |= 1ull << (fs & 63);
    }
    src.clear();
}

bool
DataflowSimulator::advanceTime()
{
    // Fine events all precede coarse ones, so the coarse wheel matters
    // only once the fine wheel runs dry.  Then, unless the heap holds
    // something earlier, the clock skips the idle cycles up to the
    // last one before the nearest coarse band, and entering that
    // cycle's band brings the coarse band down.
    if (wheelCount_ == 0 && coarseCount_ > 0) {
        const uint64_t first = (now_ >> kBandBits) + 2;
        const uint64_t band =
            first + nextSetBit(coarseBits_, first & (kCoarseBands - 1));
        const uint64_t lo = band << kBandBits;
        if (overflow_.empty() || overflow_.top().time >= lo) {
            now_ = lo - 1;
            migrateBand(band);
        }
    }
    uint64_t next;
    if (wheelCount_ > 0) {
        const uint64_t s = now_ + 1;
        next = s + nextSetBit(wheelBits_, s & (kFineSize - 1));
        if (!overflow_.empty() && overflow_.top().time < next)
            next = overflow_.top().time;
    } else if (!overflow_.empty()) {
        next = overflow_.top().time;
    } else {
        return false;  // nothing pending anywhere
    }
    // Entering band b brings band b+1 down before anything at next is
    // dispatched.  Nothing can have been inserted into b+1's fine
    // slots yet (a direct insert reaches one band past the clock's),
    // so every fine slot holds migrated events before direct ones:
    // seq order by construction.
    if ((next >> kBandBits) != (now_ >> kBandBits))
        migrateBand((next >> kBandBits) + 1);
    now_ = next;

    // Drain the slot for now_.  Every event in a slot shares one
    // timestamp: the fine wheel only holds times in the clock's band
    // and the next, a window that holds each residue class once.
    const uint64_t ds = now_ & (kFineSize - 1);
    RecordBuf<Event>& slot = wheel_[ds];
    wheelBits_[ds >> 6] &= ~(1ull << (ds & 63));
    const size_t fromWheel = slot.size();
    wheelCount_ -= fromWheel;
    bool merged = false;
    while (!overflow_.empty() && overflow_.top().time == now_) {
        slot.push_back(overflow_.top().e);
        overflow_.pop();
        merged = true;
    }
    // Wheel slots and heap pops are each seq-sorted already; a mix of
    // both needs a re-sort to restore global (time, seq) order.
    if (merged && fromWheel > 0)
        std::sort(slot.begin(), slot.end(),
                  [](const Event& x, const Event& y) {
                      return x.seq < y.seq;
                  });
    // The caller drained ready_, so adopt the slot's buffer wholesale;
    // the slot inherits the empty one for future inserts.
    ready_.swap(slot);
    return true;
}

void
DataflowSimulator::output(Activation* a, int node, int port,
                          uint32_t value, uint64_t when, bool eos)
{
    const GraphIndex* gi = a->gi;
    int p = gi->hot[node].portBase + port;
    uint64_t& clock = a->portClock[p];
    if (when < clock)
        when = clock;  // in-order delivery per output port
    clock = when;
    const Item item{value, eos};
    if (!fabricActive_ || gi->consHop.empty()) {
        for (int c = gi->consOff[p]; c < gi->consOff[p + 1]; c++)
            deliver(a, gi->cons[c], item, when);
        return;
    }
    // Tiled fabric: charge per-hop latency on every cross-tile edge,
    // plus credit-based backpressure when the tile-pair channel is
    // bounded.  Per-edge FIFO order is preserved: the hop cost is a
    // per-edge constant, and the earliest-free credit slot is monotone
    // over a channel's (time-ordered) sends.
    const int credits = fabric_->model.linkCredits;
    for (int c = gi->consOff[p]; c < gi->consOff[p + 1]; c++) {
        uint64_t arrive = when;
        const int32_t hop = gi->consHop[c];
        if (hop) {
            fabricCrossDeliveries_++;
            uint64_t depart = when;
            const int32_t chan = gi->consChan[c];
            if (chan >= 0) {
                uint64_t* slot =
                    &chanFree_[static_cast<size_t>(chan) * credits];
                uint64_t* best = slot;
                for (int k = 1; k < credits; k++)
                    if (slot[k] < *best)
                        best = &slot[k];
                if (*best > depart) {
                    fabricCreditStalls_++;
                    fabricCreditStallCycles_ += *best - depart;
                    depart = *best;
                }
                arrive = depart + hop;
                *best = arrive;  // credit frees on arrival
            } else {
                arrive = when + hop;
            }
            fabricHopCycles_ += arrive - when;
        }
        deliver(a, gi->cons[c], item, arrive);
    }
}

inline __attribute__((always_inline)) bool
DataflowSimulator::ready(const Activation* a, int node) const
{
    const NodeHot& h = a->gi->hot[node];
    NodeKind k = static_cast<NodeKind>(h.kind);
    if (k != NodeKind::Merge && k != NodeKind::TokenGen)
        return a->readyCnt[node] == h.need;
    const ItemFifo* fifo = a->fifo.data() + h.fifoBase;
    if (k == NodeKind::TokenGen) {
        if (!fifo[1].empty())
            return true;  // token returns always processable
        if (fifo[0].empty())
            return false;
        if (fifo[0].front().value)
            return true;  // true predicate
        // A false predicate (reset) must wait until all owed tokens
        // have been paid back by the leading loop.
        return a->tkCounter[a->gi->nodes[node].tkSlot] >= 0;
    }
    const NodeIndex& ni = a->gi->nodes[node];
    switch (a->mergeMode[node]) {
      case Activation::MergeMode::Fwd:
        for (int i : ni.fwdInputs)
            if (!fifo[i].empty())
                return true;
        return false;
      case Activation::MergeMode::AwaitDecider:
        return a->gi->inDesc[h.fifoBase + ni.deciderIdx].isConst ||
               !fifo[ni.deciderIdx].empty();
      case Activation::MergeMode::Back:
        if (ni.strictBack) {
            for (int i : ni.backInputs)
                if (fifo[i].empty())
                    return false;
            return true;
        }
        for (int i : ni.backInputs)
            if (!fifo[i].empty())
                return true;
        return false;
    }
    return false;
}

void
DataflowSimulator::fireMerge(Activation* a, int node, uint64_t now)
{
    const NodeIndex& ni = a->gi->nodes[node];
    ItemFifo* fifo = a->fifo.data() + a->gi->hot[node].fifoBase;
    auto& mode = a->mergeMode[node];
    // After forwarding a value, a mu-merge consults its decider (the
    // loop-continuation predicate of that activation) to choose
    // between the back-edge and initial streams next.
    auto afterEmit = [&]() {
        mode = ni.deciderIdx >= 0 ? Activation::MergeMode::AwaitDecider
                                  : Activation::MergeMode::Fwd;
    };

    switch (mode) {
      case Activation::MergeMode::Fwd: {
        // Discard EOS markers from not-taken edges; forward the first
        // pending value.
        for (int i : ni.fwdInputs) {
            ItemFifo& q = fifo[i];
            if (q.empty())
                continue;
            Item it = q.front();
            popItem(a, node, q);
            if (it.eos)
                return;  // retried while ready
            output(a, node, 0, it.value, now);
            afterEmit();
            return;
        }
        panic("merge fired without forward inputs");
      }
      case Activation::MergeMode::AwaitDecider: {
        const InputDesc& dsc =
            a->gi->inDesc[a->gi->hot[node].fifoBase + ni.deciderIdx];
        uint32_t d;
        if (dsc.isConst) {
            d = dsc.constValue;
        } else {
            ItemFifo& q = fifo[ni.deciderIdx];
            Item it = q.front();
            popItem(a, node, q);
            CASH_ASSERT(!it.eos,
                        "EOS item reached a non-merge consumer");
            d = it.value;
        }
        mode = d ? Activation::MergeMode::Back
                 : Activation::MergeMode::Fwd;
        return;
      }
      case Activation::MergeMode::Back: {
        if (ni.strictBack) {
            // One item from every back eta; exactly one carries the
            // iteration value.  An all-EOS round is the drained tail
            // of the previous loop execution.
            bool gotValue = false;
            uint32_t value = 0;
            for (int i : ni.backInputs) {
                ItemFifo& q = fifo[i];
                Item it = q.front();
                popItem(a, node, q);
                if (!it.eos) {
                    CASH_ASSERT(!gotValue,
                                "two back-edge values in one iteration");
                    gotValue = true;
                    value = it.value;
                }
            }
            if (gotValue) {
                output(a, node, 0, value, now);
                afterEmit();
            }
            return;
        }
        // Loose mode (back edges from other hyperblocks): consume
        // items as they arrive, discarding stale EOS markers.
        for (int i : ni.backInputs) {
            ItemFifo& q = fifo[i];
            if (q.empty())
                continue;
            Item it = q.front();
            popItem(a, node, q);
            if (it.eos)
                return;
            output(a, node, 0, it.value, now);
            afterEmit();
            return;
        }
        panic("merge fired without back inputs");
      }
    }
}

inline __attribute__((always_inline)) void
DataflowSimulator::tryFire(Activation* a, int node, uint64_t now)
{
    // Loop: a firing can unblock the same node again without a fresh
    // delivery (e.g. a token generator whose deferred reset becomes
    // processable after a token repayment).
    while (ready(a, node))
        fire(a, node, now);
}

void
DataflowSimulator::fire(Activation* a, int node, uint64_t now)
{
    const GraphIndex* gi = a->gi;
    const NodeHot& h = gi->hot[node];
    firings_++;
    const NodeKind kind = static_cast<NodeKind>(h.kind);
    fireCounts_[static_cast<size_t>(kind)]++;
    if (traceLevel >= 2)
        trace(2, "t=" + std::to_string(now) + " act" +
                     std::to_string(a->id) + " fire " +
                     gi->nodes[node].n->str());

    // Input bases hoisted once; takeIn(i) consumes input i of this
    // node (constants read from the descriptor, values popped with
    // the readiness counter maintained).
    const InputDesc* dsc = gi->inDesc.data() + h.fifoBase;
    ItemFifo* fifo = a->fifo.data() + h.fifoBase;
    auto takeIn = [&](int i) __attribute__((always_inline)) -> uint32_t {
        const InputDesc& d = dsc[i];
        if (d.isConst)
            return d.constValue;
        ItemFifo& q = fifo[i];
        CASH_ASSERT(!q.empty(), "taking from empty FIFO");
        Item it = q.front();
        q.pop_front();
        if (q.empty())
            a->readyCnt[node]--;
        CASH_ASSERT(!it.eos, "EOS item reached a non-merge consumer");
        return it.value;
    };

    switch (kind) {
      case NodeKind::Arith: {
        const Op op = static_cast<Op>(h.op);
        uint32_t v;
        if (h.unary)
            v = evalUnary(op, takeIn(0));
        else {
            uint32_t x = takeIn(0);
            uint32_t y = takeIn(1);
            v = evalBinary(op, x, y);
        }
        output(a, node, 0, v, now + h.latency);
        break;
      }
      case NodeKind::Mux: {
        const int nin = gi->hot[node + 1].fifoBase - h.fifoBase;
        uint32_t out = 0;
        for (int i = 0; i < nin; i += 2) {
            uint32_t p = takeIn(i);
            uint32_t d = takeIn(i + 1);
            if (p)
                out = d;
        }
        output(a, node, 0, out, now);
        break;
      }
      case NodeKind::Merge:
        fireMerge(a, node, now);
        break;
      case NodeKind::Eta: {
        uint32_t v = takeIn(0);
        uint32_t p = takeIn(1);
        if (traceLevel >= 2)
            trace(2, "  eta n" +
                         std::to_string(gi->nodes[node].n->id) +
                         " v=" + std::to_string(v) + " p=" +
                         std::to_string(p));
        if (p)
            output(a, node, 0, v, now);
        else
            output(a, node, 0, 0, now, /*eos=*/true);
        break;
      }
      case NodeKind::Combine: {
        const int nin = gi->hot[node + 1].fifoBase - h.fifoBase;
        for (int i = 0; i < nin; i++)
            takeIn(i);
        output(a, node, 0, 0, now);
        break;
      }
      case NodeKind::Load: {
        const Node* n = gi->nodes[node].n;
        uint32_t p = takeIn(0);
        takeIn(1);  // token
        uint32_t addr = takeIn(2);
        if (traceLevel >= 2)
            trace(2, "  load n" + std::to_string(n->id) + " p=" +
                         std::to_string(p) + " addr=" +
                         std::to_string(addr));
        if (!p) {
            nullified_++;
            output(a, node, 0, 0, now);  // arbitrary result (§3.1)
            output(a, node, 1, 0, now);
            break;
        }
        dynLoads_++;
        uint32_t v = image_.load(addr, n->size, n->signExtend);
        MemorySystem::Timing t =
            memsys_.request(addr, false, n->size, now);
        output(a, node, 0, v, t.complete);
        // The token signals that the access is ordered; it may be
        // generated before the data returns (§3.2).
        output(a, node, 1, 0, t.start + 1);
        break;
      }
      case NodeKind::Store: {
        const Node* n = gi->nodes[node].n;
        uint32_t p = takeIn(0);
        takeIn(1);  // token
        uint32_t addr = takeIn(2);
        uint32_t v = takeIn(3);
        if (traceLevel >= 2)
            trace(2, "  store n" + std::to_string(n->id) + " p=" +
                         std::to_string(p) + " addr=" +
                         std::to_string(addr) + " v=" +
                         std::to_string(v));
        if (!p) {
            nullified_++;
            output(a, node, 0, 0, now);
            break;
        }
        dynStores_++;
        image_.store(addr, v, n->size);
        MemorySystem::Timing t =
            memsys_.request(addr, true, n->size, now);
        output(a, node, 0, 0, t.start + 1);
        break;
      }
      case NodeKind::Call: {
        const NodeIndex& ni = gi->nodes[node];
        const Node* n = ni.n;
        const int nin = gi->hot[node + 1].fifoBase - h.fifoBase;
        uint32_t p = takeIn(0);
        takeIn(1);  // token
        std::vector<uint32_t> args;
        for (int i = 2; i < nin; i++)
            args.push_back(takeIn(i));
        if (!p) {
            output(a, node, 0, 0, now);
            output(a, node, 1, 0, now);
            break;
        }
        callsMade_++;
        CASH_ASSERT(n->callee, "call without callee");
        if (!ni.callee) {
            failRun(SimOutcome::MissingGraph,
                    "no compiled graph for function '" +
                        n->callee->name + "' (called from '" +
                        gi->g->name + "')");
            break;
        }
        startActivation(*ni.callee, args, now + 1, a, node);
        break;
      }
      case NodeKind::Return: {
        const int nin = gi->hot[node + 1].fifoBase - h.fifoBase;
        uint32_t p = takeIn(0);
        takeIn(1);  // token
        uint32_t v = 0;
        bool hasV = nin == 3;
        if (hasV)
            v = takeIn(2);
        if (p)
            finishActivation(a, v, hasV, now);
        break;
      }
      case NodeKind::TokenGen: {
        const NodeIndex& ni = gi->nodes[node];
        int64_t& c = a->tkCounter[ni.tkSlot];
        // Token returns have priority: they pay outstanding debts.
        if (!fifo[1].empty()) {
            takeIn(1);
            bool owed = c < 0;
            c++;
            if (owed)
                output(a, node, 0, 0, now);
        } else {
            // A false predicate (loop completed) may only be processed
            // once every debt is paid; ready() guarantees that.
            uint32_t p = takeIn(0);
            if (p) {
                c--;
                if (c >= 0)
                    output(a, node, 0, 0, now);
            } else {
                CASH_ASSERT(c >= 0, "token generator reset while owing");
                c = ni.n->tkCount;  // reset (§6.3)
                // Emit the loop-completion token so per-activation
                // token balance holds in the single-hyperblock ring
                // encoding (see DESIGN.md).
                output(a, node, 0, 0, now);
            }
        }
        break;
      }
      case NodeKind::Const:
      case NodeKind::Param:
      case NodeKind::InitialToken:
        panic("source node fired");
    }
}

void
DataflowSimulator::gcRegRing(Activation* a, const CompiledRegion& R,
                             int32_t ring)
{
    // Reclaimable prefix: everything below the slowest consumer's
    // position (reads are absolute indices, so advancing head never
    // moves data — it only keeps the grow trigger honest).
    RegRing& r = a->regRing[ring];
    uint64_t low = UINT64_MAX;
    for (int32_t gp = R.gcOff[ring]; gp < R.gcOff[ring + 1]; gp++) {
        const uint64_t c = a->regConsumed[R.gcArg[gp]];
        if (c < low)
            low = c;
    }
    if (low != UINT64_MAX && low > r.head)
        r.head = low;
}

void
DataflowSimulator::fireRegion(Activation* a, int slot, Item it,
                              uint64_t when)
{
    // Absorb the delivery: one collapsed push stands for the original
    // interior fan-out of this producer port (the collapsed delivery
    // itself never entered the queue, so the full edge count is
    // credited back to the equivalent-event total).
    const CompiledRegion& R0 = a->gi->region;
    RegRing& r = a->regRing[slot];
    r.push(it.value, when, it.eos);
    if (r.size() > 64)
        gcRegRing(a, R0, slot);
    eqExtraEvents_ += static_cast<uint64_t>(R0.inputEdges[slot]);
    regionsFired_++;
    a->regDirty++;
    regPending_.emplace_back(a, slot);
}

bool
DataflowSimulator::flushRegions()
{
    if (regPending_.empty())
        return false;
    // Entries appended by cascade emissions extend the loop; batching
    // consecutive same-activation entries into one worklist pass is
    // what makes deferral pay — all of a cycle's deliveries share one
    // cascade, and its cones see every new item at once.
    for (size_t i = 0; i < regPending_.size(); i++) {
        Activation* act = regPending_[i].first;
        act->regDirty--;
        seedRegion(act, regPending_[i].second);
        while (i + 1 < regPending_.size() &&
               regPending_[i + 1].first == act) {
            i++;
            act->regDirty--;
            seedRegion(act, regPending_[i].second);
        }
        cascadeRegion(act);
        if (runOutcome_ != SimOutcome::Ok)
            break;
    }
    regPending_.clear();
    return true;
}

void
DataflowSimulator::seedRegion(Activation* a, int slot)
{
    // Seeding happens between cascades, when nothing is pending in
    // the next wave: setting the current-wave bit is the whole rule.
    const CompiledRegion& R = a->gi->region;
    uint64_t* wave = regWaveBits_.data();
    for (int32_t s = R.seedOff[slot]; s < R.seedOff[slot + 1]; s++) {
        const int32_t p = R.seedPos[s];
        wave[p >> 6] |= 1ull << (p & 63);
    }
}

void
DataflowSimulator::cascadeRegion(Activation* a)
{
    const GraphIndex* gi = a->gi;
    const CompiledRegion& R = gi->region;
    const int32_t nIn = static_cast<int32_t>(R.inputs.size());
    const size_t words = (R.visits.size() + 63) / 64;
    const RegionVisit* const visits = R.visits.data();
    const RegionConeOp* const coneOps = R.coneOps.data();
    const RegionSrc* const operands = R.operands.data();
    const RegionSrc* const allGates = R.gates.data();
    const int32_t* const seedOff = R.seedOff.data();
    const int32_t* const seedBack = R.seedBack.data();
    const int32_t* const seedPos = R.seedPos.data();
    RegRing* const rings = a->regRing.data();
    uint64_t* const consumed = a->regConsumed.data();
    uint64_t* const visitFires = regVisitFires_.data() + gi->visitBase;
    uint64_t* wave = regWaveBits_.data();
    uint64_t* next = regNextBits_.data();
    bool haveNext = false;
    bool aborted = false;
    uint64_t inlined = 0;

    // Cascade: fire every pending visit as often as its streams allow;
    // a production marks the consumers of its ring pending.  Visits
    // run in ascending scan position — merges, then sinks
    // topologically — so within one wave every producer fires before
    // its consumers and a consumer is visited at most once; only back
    // edges (through merges) start another wave.  Result times are
    // the max over dynamic operand times plus the op latency: pure
    // operators AND-fire, so arrival times compose max-plus along
    // interior paths, exactly as the event engine would discover them
    // one delivery at a time.  Constant operands impose no time
    // constraint.
    while (!aborted) {
        for (size_t w = 0; w < words;) {
            // Re-read the word after every visit: a visit can mark
            // later positions of the same word.
            const uint64_t bits = wave[w];
            if (!bits) {
                w++;
                continue;
            }
            wave[w] = bits & (bits - 1);
            const int32_t si = static_cast<int32_t>(w * 64) +
                               __builtin_ctzll(bits);
            const RegionVisit& v = visits[si];
            RegRing* out = v.outRing >= 0 ? &rings[v.outRing] : nullptr;
            const RegionConeOp* cone = coneOps + v.coneOff;
            const RegionSrc* gates = allGates + v.gateOff;
            const int32_t nGates = v.gateEnd - v.gateOff;
            uint64_t nfire = 0;
            bool produced = false;

            if (v.mSlot >= 0) {
                // Absorbed mu-merge: replay the mode machine stream-
                // synchronously.  Each firing happens at the maximum
                // of the consumed items' times and the previous
                // firing's time — the dispatch cycle at which the
                // event engine would perform it (see
                // region_compiler.h).  Interior reads are deliveries
                // the event engine would have dispatched, counted as
                // they are consumed because the subset consumed per
                // firing depends on the mode.  The gate range holds
                // the forward operand, the decider, then the back-edge
                // operands.
                uint8_t& mode = a->regMerge[v.mSlot].mode;
                uint64_t& tMode = a->regMerge[v.mSlot].time;
                const RegionSrc& fwd = gates[0];
                const RegionSrc& decider = gates[1];
                const RegionSrc* backs = gates + 2;
                const int32_t nBacks = nGates - 2;
                const uint8_t afterEmit =
                    decider.ring != kRegSrcNone ? 1 : 0;
                auto avail = [&](const RegionSrc& src) {
                    return rings[src.ring].tail > consumed[src.x];
                };
                uint32_t tv = 0;
                bool teos = false;
                uint64_t tt = 0;
                auto take = [&](const RegionSrc& src) {
                    const RegRing& r = rings[src.ring];
                    const RegItem& it = r.buf[consumed[src.x]++ & r.mask];
                    if (src.ring >= nIn)
                        eqExtraEvents_++;
                    tv = it.val;
                    teos = it.eos != 0;
                    tt = it.tim;
                };
                auto emit = [&](uint32_t val, uint64_t when) {
                    if (out) {
                        out->push(val, when, false);
                        produced = true;
                    }
                    if (cone->hasExternal)
                        output(a, cone->dense, 0, val, when, false);
                    mode = afterEmit;
                };
                for (;;) {
                    if (mode == 0) {  // forward
                        if (!avail(fwd))
                            break;
                        take(fwd);
                        tMode = std::max(tt, tMode);
                        nfire++;
                        if (!teos)
                            emit(tv, tMode);
                        // EOS from a not-taken edge: discard, stay put.
                    } else if (mode == 1) {  // consult decider
                        uint32_t d;
                        if (decider.ring == kRegSrcConst) {
                            d = decider.x;
                        } else {
                            if (!avail(decider))
                                break;
                            take(decider);
                            CASH_ASSERT(
                                !teos,
                                "EOS item reached a non-merge consumer");
                            tMode = std::max(tt, tMode);
                            d = tv;
                        }
                        nfire++;
                        mode = d ? 2 : 0;
                    } else {  // back round (strict: one item per input)
                        if (nBacks == 0)
                            break;
                        bool all = true;
                        for (int32_t g = 0; g < nBacks; g++)
                            if (!avail(backs[g])) {
                                all = false;
                                break;
                            }
                        if (!all)
                            break;
                        bool gotValue = false;
                        uint32_t value = 0;
                        uint64_t tF = tMode;
                        for (int32_t g = 0; g < nBacks; g++) {
                            take(backs[g]);
                            tF = std::max(tt, tF);
                            if (!teos) {
                                CASH_ASSERT(!gotValue,
                                            "two back-edge values in "
                                            "one iteration");
                                gotValue = true;
                                value = tv;
                            }
                        }
                        tMode = tF;
                        nfire++;
                        // An all-EOS round is the drained tail of the
                        // previous loop execution: consume, stay back.
                        if (gotValue)
                            emit(value, tF);
                    }
                }
                if (nfire == 0)
                    continue;
                visitFires[si] += nfire;
                inlined += nfire;
            } else {
                // Cone visit: the sink and its fused chain members fire
                // as a unit (see region_compiler.h).  Firings available
                // now: min over the cone's stream operands — interior
                // register edges supply exactly one value per firing
                // by construction.
                uint64_t navail = UINT64_MAX;
                for (int32_t g = 0; g < nGates; g++) {
                    const uint64_t got =
                        rings[gates[g].ring].tail - consumed[gates[g].x];
                    if (got < navail) {
                        navail = got;
                        if (navail == 0)
                            break;  // an empty stream settles it
                    }
                }
                if (navail == 0 || navail == UINT64_MAX)
                    continue;
                nfire = navail;
                const int32_t nOps = v.coneCnt;

                for (uint64_t f = 0; f < nfire; f++) {
                    for (int32_t ci = 0; ci < nOps; ci++) {
                        const RegionConeOp& m = cone[ci];
                        const RegionSrc* margs = operands + m.argOff;
                        uint64_t when = 0;
                        auto read = [&](int32_t k)
                            __attribute__((always_inline)) -> uint32_t {
                            const RegionSrc& src = margs[k];
                            if (src.ring >= 0) {
                                const RegRing& r = rings[src.ring];
                                const RegItem& item =
                                    r.buf[consumed[src.x]++ & r.mask];
                                CASH_ASSERT(!item.eos,
                                            "EOS item reached a "
                                            "non-merge consumer");
                                if (item.tim > when)
                                    when = item.tim;
                                return item.val;
                            }
                            if (src.ring == kRegSrcConst)
                                return src.x;
                            if (regTim_[src.x] > when)
                                when = regTim_[src.x];
                            return regVal_[src.x];
                        };
                        uint32_t val = 0;
                        bool eos = false;
                        switch (m.kind) {
                          case NodeKind::Arith:
                            val = m.unary
                                      ? evalUnary(m.op, read(0))
                                      : evalBinary(m.op, read(0),
                                                   read(1));
                            break;
                          case NodeKind::Mux: {
                            uint32_t mv[kMaxRegionMuxArgs];
                            for (int32_t k = 0; k < m.argCnt; k++)
                                mv[k] = read(k);
                            val = evalMuxPairs(
                                mv, static_cast<int>(m.argCnt));
                            break;
                          }
                          case NodeKind::Combine:
                            for (int32_t k = 0; k < m.argCnt; k++)
                                read(k);
                            break;
                          case NodeKind::Eta: {
                            const uint32_t x = read(0);
                            const uint32_t p = read(1);
                            if (p)
                                val = x;
                            else
                                eos = true;
                            break;
                          }
                          default:
                            panic("non-pure op on region tape");
                        }
                        when += m.latency;
                        if (ci < nOps - 1) {
                            // Fused member: the result rides a register
                            // slot (members never push or emit — they
                            // have no observers outside the cone).
                            regVal_[ci] = val;
                            regTim_[ci] = when;
                        } else {
                            if (out)
                                out->push(val, when, eos);
                            if (m.hasExternal)
                                output(a, m.dense, 0, val, when, eos);
                        }
                    }
                }
                produced = out != nullptr;
                visitFires[si] += nfire;
                inlined += nfire * static_cast<uint64_t>(nOps);
                eqExtraEvents_ +=
                    nfire * static_cast<uint64_t>(v.coneEq);
            }

            if (produced) {
                // Mark each consumer not already pending in either
                // wave.  A forward edge (later scan position) joins
                // this wave, where the ascending scan still reaches
                // it; a back edge (through a merge) the next one.
                const int32_t r = v.outRing;
                int32_t s = seedOff[r];
                for (; s < seedBack[r]; s++) {
                    const int32_t p = seedPos[s];
                    const size_t pw = static_cast<size_t>(p) >> 6;
                    wave[pw] |= (1ull << (p & 63)) & ~next[pw];
                }
                for (; s < seedOff[r + 1]; s++) {
                    const int32_t p = seedPos[s];
                    const size_t pw = static_cast<size_t>(p) >> 6;
                    const uint64_t add = (1ull << (p & 63)) & ~wave[pw];
                    next[pw] |= add;
                    haveNext |= add != 0;
                }
                // Bound growth of the one ring this visit pushed into;
                // a replayed loop can stream thousands of items
                // through it within a single cascade.
                if (out->size() > 64)
                    gcRegRing(a, R, v.outRing);
            }
            // A cycle through a merge is a loop the cascade replays in
            // full, so a livelocked program would otherwise spin here
            // forever: re-check the event budget the run loop
            // enforces, using equivalent events so the threshold
            // matches the event engine's workload measure.
            if (events_ + eqExtraEvents_ > maxEvents_) {
                failRun(SimOutcome::EventLimit,
                        "simulation event limit exceeded after " +
                            std::to_string(maxEvents_) +
                            " equivalent events in '" + gi->g->name +
                            "' (livelock?)");
                aborted = true;
                break;
            }
            if ((++cascadeVisits_ & 0xFFF) == 0 && wallExpired()) {
                failRun(SimOutcome::Timeout,
                        "simulation wall-clock budget of " +
                            std::to_string(wallBudgetMs_) +
                            " ms exceeded in '" + gi->g->name + "'");
                aborted = true;
                break;
            }
        }
        if (!haveNext)
            break;
        std::swap(wave, next);
        haveNext = false;
    }
    if (aborted) {  // stopped mid-wave: pending bits are stale
        std::fill(regWaveBits_.begin(), regWaveBits_.end(), 0);
        std::fill(regNextBits_.begin(), regNextBits_.end(), 0);
    }
    firings_ += inlined;
    regionOpsInlined_ += inlined;
    if (tracer_ && tracer_->enabled() && inlined)
        tracer_->completeEvent(
            gi->g->name, "sim.region", now_, 0,
            {{"region", static_cast<int64_t>(0)},
             {"ops", static_cast<int64_t>(inlined)}},
            kTraceCyclePid);
}

void
DataflowSimulator::foldRegionFires()
{
    for (const auto& entry : graphs_) {
        const GraphIndex& gi = entry.second;
        const CompiledRegion& R = gi.region;
        for (size_t si = 0; si < R.visits.size(); si++) {
            const uint64_t n = regVisitFires_[gi.visitBase + si];
            const RegionVisit& v = R.visits[si];
            for (int32_t ci = 0; ci < v.coneCnt; ci++)
                fireCounts_[static_cast<size_t>(
                    R.coneOps[v.coneOff + ci].kind)] += n;
        }
    }
}

bool
DataflowSimulator::wallExpired()
{
    return wallBudgetMs_ > 0 &&
           std::chrono::steady_clock::now() > wallDeadline_;
}

void
DataflowSimulator::finishActivation(Activation* a, uint32_t value,
                                    bool hasValue, uint64_t now)
{
    if (a->finished)
        return;  // a second return firing would be a graph bug
    a->finished = true;
    liveActs_--;
    if (tracer_ && tracer_->enabled())
        tracer_->completeEvent(a->gi->g->name, "sim.activation",
                               a->startTime, now - a->startTime,
                               {{"activation", a->id}},
                               kTraceCyclePid);
    if (a->frameSize && stackPtr_ == a->frameBase)
        stackPtr_ += a->frameSize;
    if (!a->parent) {
        done_ = true;
        rootResult_ = hasValue ? value : 0;
        rootDoneTime_ = now;
        return;
    }
    // Deliver result + token to the parent's call node consumers.
    output(a->parent, a->parentCallNode, 0, hasValue ? value : 0,
           now + 1);
    output(a->parent, a->parentCallNode, 1, 0, now + 1);
    // The parent outlives all its children: it can only be recycled
    // once liveChildren drops to zero *and* the two deliveries above
    // have drained.
    a->parent->liveChildren--;
}

DeadlockReport
DataflowSimulator::buildDeadlockReport() const
{
    // A deadlocked graph stalls at a frontier of partially-fed nodes:
    // some inputs arrived and now sit in FIFOs forever, others never
    // will.  Nodes with no pending inputs at all are merely downstream
    // of the frontier and are omitted — reporting them would bury the
    // root cause.
    DeadlockReport rep;
    rep.stallTime = now_;
    rep.lsqOccupancy = memsys_.lsqOccupancy();
    constexpr size_t kMaxStuck = 64;  // bound the dump on huge graphs
    // Report node n when it is partially fed: some dynamic input k
    // (dynamic(k)) holds an item (present(k)) and another does not.
    // True once the dump is full.
    auto report = [&](const Activation& act, const Node* n, auto dynamic,
                      auto present) {
        bool any = false, all = true;
        for (int k = 0; k < n->numInputs(); k++) {
            if (!dynamic(k))
                continue;
            if (present(k))
                any = true;
            else
                all = false;
        }
        if (!any || all)
            return false;
        StuckNode stuck;
        stuck.activation = act.id;
        stuck.function = act.gi->g->name;
        stuck.node = n->str();
        for (int k = 0; k < n->numInputs(); k++) {
            if (!dynamic(k) || present(k))
                continue;
            const PortRef& in = n->input(k);
            bool token =
                in.valid() && in.node->outputType(in.port) == VT::Token;
            stuck.waitingOn.push_back("in" + std::to_string(k) +
                                      (token ? " (token)" : " (data)"));
        }
        rep.stuck.push_back(std::move(stuck));
        return rep.stuck.size() >= kMaxStuck;
    };
    for (const auto& act : activations_) {
        if (act->pooled || act->finished)
            continue;
        const GraphIndex& gi = *act->gi;
        for (size_t i = 0; i < gi.nodes.size(); i++) {
            const int32_t base = gi.hot[i].fifoBase;
            if (report(
                    *act, gi.nodes[i].n,
                    [&](int k) { return !gi.inDesc[base + k].isConst; },
                    [&](int k) { return !act->fifo[base + k].empty(); }))
                return rep;
        }
        // The region's partially-fed operators, in dense order after
        // the real nodes: some operand streams hold unconsumed items,
        // others never will.  Operand k of an absorbed node is its
        // input k, so the rendering matches the event engine's.
        const CompiledRegion& R = gi.region;
        if (R.empty())
            continue;
        for (size_t i = 0; i < gi.nodes.size(); i++) {
            if (!R.interior[i])
                continue;
            const RegionSrc* ops = R.operands.data() + R.operandOff[i];
            const int32_t base = R.operandOff[i];
            if (report(
                    *act, gi.nodes[i].n,
                    [&](int k) { return ops[k].ring >= 0; },
                    [&](int k) {
                        return act->regRing[ops[k].ring].tail >
                               act->regConsumed[base + k];
                    }))
                return rep;
        }
    }
    return rep;
}

void
DataflowSimulator::sampleQueueCounters(uint64_t now)
{
    tracer_->counterEvent("sim.queue.bucket_ops", now,
                          static_cast<int64_t>(bucketOps_));
    tracer_->counterEvent("sim.queue.heap_ops", now,
                          static_cast<int64_t>(heapOps_));
    tracer_->counterEvent("sim.act.recycled", now,
                          static_cast<int64_t>(actRecycled_));
    tracer_->counterEvent("sim.act.live", now,
                          static_cast<int64_t>(liveActs_));
}

SimResult
DataflowSimulator::run(const std::string& name,
                       const std::vector<uint32_t>& args)
{
    // Fresh dynamic state (memory and caches persist across runs).
    ready_.clear();
    readyHead_ = 0;
    for (RecordBuf<Event>& slot : wheel_)
        slot.clear();
    wheelBits_.fill(0);
    wheelCount_ = 0;
    for (RecordBuf<TimedEvent>& band : coarse_)
        band.clear();
    coarseBits_.fill(0);
    coarseCount_ = 0;
    overflow_ = {};
    now_ = 0;
    seq_ = 0;
    releaseActivations();
    nextActId_ = 0;
    done_ = false;
    rootResult_ = 0;
    rootDoneTime_ = 0;
    events_ = firings_ = dynLoads_ = dynStores_ = 0;
    nullified_ = callsMade_ = 0;
    bucketOps_ = heapOps_ = 0;
    actSpawned_ = actRecycled_ = liveActs_ = peakLiveActs_ = 0;
    std::fill(fireCounts_.begin(), fireCounts_.end(), 0);
    runOutcome_ = SimOutcome::Ok;
    runError_.clear();
    droppedEvents_ = 0;
    regionsFired_ = 0;
    regionOpsInlined_ = 0;
    eqExtraEvents_ = 0;
    regPending_.clear();
    std::fill(regWaveBits_.begin(), regWaveBits_.end(), 0);
    std::fill(regNextBits_.begin(), regNextBits_.end(), 0);
    std::fill(regVisitFires_.begin(), regVisitFires_.end(), 0);
    fabricCrossDeliveries_ = fabricHopCycles_ = 0;
    fabricCreditStalls_ = fabricCreditStallCycles_ = 0;
    if (fabricActive_ && fabric_->model.linkCredits > 0) {
        const size_t t = static_cast<size_t>(fabric_->model.numTiles());
        chanFree_.assign(t * t * fabric_->model.linkCredits, 0);
    }

    ScopedTimer span(tracer_, "sim.run " + name, "sim");
    DeadlockReport deadlock;
    auto git = graphs_.find(name);
    if (git == graphs_.end())
        failRun(SimOutcome::MissingGraph,
                "no compiled graph for function '" + name + "'");
    else
        startActivation(git->second, args, 0, nullptr, -1);

    if (wallBudgetMs_ > 0)
        wallDeadline_ = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wallBudgetMs_);

    const bool tracing = tracer_ && tracer_->enabled();
    // Run to quiescence rather than stopping at the root return: the
    // drained tail (loop-exit EOS rounds, in-flight deliveries) is
    // part of the execution's firing multiset, which dataflow
    // determinism makes schedule-independent.  Stopping at done_
    // instead made sim.firings depend on queue order whenever the
    // return raced the tail — the macro engine's cascades batch those
    // firings eagerly and would count a superset.  Cycle counts are
    // unaffected: they report rootDoneTime_, not the drain.
    while (runOutcome_ == SimOutcome::Ok) {
        if (readyHead_ == ready_.size()) {
            // The worklist drained: run the region cascades all of
            // this cycle's absorbed deliveries seeded (their
            // emissions may refill the worklist at now_).
            if (flushRegions())
                continue;
            ready_.clear();
            readyHead_ = 0;
            if (!advanceTime())
                break;
            continue;
        }
        const Event e = ready_[readyHead_++];
        if (++events_ > maxEvents_) {
            failRun(SimOutcome::EventLimit,
                    "simulation event limit exceeded after " +
                        std::to_string(maxEvents_) +
                        " events in '" + name + "' (livelock?)");
            break;
        }
        if ((events_ & 0x3FFF) == 0 && wallExpired()) {
            failRun(SimOutcome::Timeout,
                    "simulation wall-clock budget of " +
                        std::to_string(wallBudgetMs_) +
                        " ms exceeded in '" + name + "'");
            break;
        }
        Activation* a = e.act;
        a->inflight--;
        // Region deliveries never reach the queues: deliver() feeds
        // them straight into fireRegion().
        ItemFifo& q = a->fifo[e.slot];
        if (q.empty())
            a->readyCnt[e.node]++;
        q.push_back(e.item);
        tryFire(a, e.node, now_);
        // Recycle as soon as nothing can target this activation again:
        // it returned, no queued events reference it, and no child can
        // still deliver a result into it.
        if (a->finished && a->parent && a->inflight == 0 &&
            a->liveChildren == 0 && a->regDirty == 0)
            recycle(a);
        if (tracing && (events_ & 0xFFF) == 0)
            sampleQueueCounters(now_);
    }

    if (!done_ && runOutcome_ == SimOutcome::Ok) {
        deadlock = buildDeadlockReport();
        if (traceLevel >= 1)
            for (const StuckNode& s : deadlock.stuck)
                trace(1, "starved " + s.str());
        failRun(SimOutcome::Deadlock,
                "dataflow simulation deadlocked in '" + name +
                    "' at cycle " + std::to_string(now_) + " (" +
                    std::to_string(deadlock.stuck.size()) +
                    " starved nodes)");
    }

    if (tracing)
        sampleQueueCounters(done_ ? rootDoneTime_ : now_);

    // Stats are filled on every outcome — a degraded run still reports
    // everything it observed up to the stall.
    SimResult r;
    r.returnValue = rootResult_;
    r.cycles = done_ ? rootDoneTime_ : now_;
    r.outcome = runOutcome_;
    r.error = runError_;
    r.deadlock = std::move(deadlock);
    r.stats.set(std::string("sim.outcome.") +
                    simOutcomeName(runOutcome_),
                1);
    if (droppedEvents_)
        r.stats.set("sim.events.dropped",
                    static_cast<int64_t>(droppedEvents_));
    r.stats.set("sim.cycles", static_cast<int64_t>(r.cycles));
    r.stats.set("sim.events", static_cast<int64_t>(events_));
    // Events the event engine would have processed for the same run:
    // actual deliveries plus the interior deliveries each super-op
    // firing absorbed.  Engine-comparable (sim.events itself is not).
    r.stats.set("sim.events.equivalent",
                static_cast<int64_t>(events_) + eqExtraEvents_);
    if (engine_ == SimEngine::Macro) {
        r.stats.set("sim.region.count", regionsTotal_);
        r.stats.set("sim.region.fired",
                    static_cast<int64_t>(regionsFired_));
        r.stats.set("sim.region.ops_inlined",
                    static_cast<int64_t>(regionOpsInlined_));
    }
    // Fabric keys appear only on a non-trivial fabric, so idealized
    // runs stay byte-identical to the pre-fabric output.
    if (fabricActive_) {
        const FabricModel& fm = fabric_->model;
        r.stats.set("fabric.tiles",
                    static_cast<int64_t>(fm.numTiles()));
        r.stats.set("fabric.hop_latency",
                    static_cast<int64_t>(fm.hopLatency));
        r.stats.set("fabric.link_credits",
                    static_cast<int64_t>(fm.linkCredits));
        r.stats.set("fabric.nodes", fabricNodes_);
        r.stats.set("fabric.edges.total", fabricTotalEdges_);
        r.stats.set("fabric.edges.cut", fabricCutEdges_);
        r.stats.set("fabric.edges.cut_hops", fabricCutHops_);
        r.stats.set("fabric.occupancy.max", fabricMaxTileOps_);
        if (fabricUsedTiles_ > 0)
            r.stats.set("fabric.occupancy.mean_x100",
                        100 * fabricNodes_ / fabricUsedTiles_);
        r.stats.set("fabric.cross_deliveries",
                    static_cast<int64_t>(fabricCrossDeliveries_));
        r.stats.set("fabric.hop_cycles",
                    static_cast<int64_t>(fabricHopCycles_));
        r.stats.set("fabric.credit_stalls",
                    static_cast<int64_t>(fabricCreditStalls_));
        r.stats.set("fabric.credit_stall_cycles",
                    static_cast<int64_t>(fabricCreditStallCycles_));
    }
    r.stats.set("sim.firings", static_cast<int64_t>(firings_));
    r.stats.set("sim.dynLoads", static_cast<int64_t>(dynLoads_));
    r.stats.set("sim.dynStores", static_cast<int64_t>(dynStores_));
    r.stats.set("sim.nullified", static_cast<int64_t>(nullified_));
    r.stats.set("sim.calls", static_cast<int64_t>(callsMade_));
    r.stats.set("sim.queue.bucket_ops",
                static_cast<int64_t>(bucketOps_));
    r.stats.set("sim.queue.heap_ops", static_cast<int64_t>(heapOps_));
    r.stats.set("sim.act.spawned", static_cast<int64_t>(actSpawned_));
    r.stats.set("sim.act.recycled",
                static_cast<int64_t>(actRecycled_));
    r.stats.set("sim.act.peakLive",
                static_cast<int64_t>(peakLiveActs_));
    r.stats.set("sim.act.allocated",
                static_cast<int64_t>(activations_.size()));
    foldRegionFires();
    for (size_t k = 0; k < fireCounts_.size(); k++)
        if (fireCounts_[k])
            r.stats.set(std::string("sim.fire.") +
                            nodeKindName(static_cast<NodeKind>(k)),
                        static_cast<int64_t>(fireCounts_[k]));
    span.arg("cycles", static_cast<int64_t>(rootDoneTime_));
    span.arg("firings", static_cast<int64_t>(firings_));
    // Spatial ILP: average operator firings per cycle (x100).  The
    // macro engine counts every inlined interior firing in firings_,
    // so the figure is engine-invariant as-is.
    if (rootDoneTime_ > 0)
        r.stats.set("sim.opsPerCycle_x100",
                    static_cast<int64_t>(100 * firings_ /
                                         rootDoneTime_));
    memsys_.reportStats(r.stats);
    // Free all activation storage now rather than at the next run():
    // on early done_ the root's still-running children hold FIFO and
    // port-clock arrays that would otherwise linger.
    releaseActivations();
    return r;
}

} // namespace cash
