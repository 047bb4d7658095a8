#include "pegasus/builder.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "cfg/dominators.h"
#include "cfg/hyperblock.h"
#include "cfg/liveness.h"
#include "cfg/loops.h"
#include "analysis/points_to.h"
#include "support/diagnostics.h"

namespace cash {

namespace {

/**
 * (block, register) -> value for the hyperblock being built: open
 * addressing with an epoch per entry, so clear() costs nothing.
 */
class BlockRegMap
{
  public:
    /** Forget every entry. */
    void
    clear()
    {
        epoch_++;
        used_ = 0;
    }

    /** The value of (@p block, @p reg) into @p out; false if unset. */
    bool
    find(int block, int reg, PortRef* out) const
    {
        if (slots_.empty())
            return false;
        const uint64_t key = pack(block, reg);
        const size_t mask = slots_.size() - 1;
        for (size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            const Entry& e = slots_[i];
            if (e.epoch != epoch_)
                return false;
            if (e.key == key) {
                *out = e.value;
                return true;
            }
        }
    }

    void
    set(int block, int reg, PortRef value)
    {
        if (2 * (used_ + 1) > slots_.size())
            grow();
        const uint64_t key = pack(block, reg);
        const size_t mask = slots_.size() - 1;
        for (size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            Entry& e = slots_[i];
            if (e.epoch != epoch_) {
                e = {key, epoch_, value};
                used_++;
                return;
            }
            if (e.key == key) {
                e.value = value;
                return;
            }
        }
    }

  private:
    struct Entry
    {
        uint64_t key = 0;
        uint32_t epoch = 0;  ///< Set in the current epoch_ only.
        PortRef value;
    };

    std::vector<Entry> slots_;
    uint32_t epoch_ = 1;
    size_t used_ = 0;

    static uint64_t
    pack(int block, int reg)
    {
        return static_cast<uint64_t>(static_cast<uint32_t>(block)) << 32 |
               static_cast<uint32_t>(reg);
    }

    static size_t
    hash(uint64_t key)
    {
        key *= 0x9e3779b97f4a7c15ull;
        return static_cast<size_t>(key ^ (key >> 29));
    }

    void
    grow()
    {
        std::vector<Entry> old;
        old.swap(slots_);
        slots_.assign(old.empty() ? 64 : 2 * old.size(), Entry{});
        const uint32_t epoch = epoch_;
        epoch_ = 1;
        used_ = 0;
        for (const Entry& e : old) {
            if (e.epoch != epoch)
                continue;
            const int block = static_cast<int>(e.key >> 32);
            const int reg = static_cast<int>(e.key & 0xffffffffu);
            set(block, reg, e.value);
        }
    }
};

/**
 * Builds the Pegasus graph of one function.
 */
class GraphBuilder
{
  public:
    GraphBuilder(const CfgFunction& fn, const CfgProgram& cfg,
                 const MemoryLayout& layout, const BuildOptions& opts)
        : fn_(fn), cfg_(cfg), layout_(layout), opts_(opts),
          dom_(fn), loops_(fn, dom_), hbp_(fn, dom_, loops_),
          live_(fn)
    {
    }

    std::unique_ptr<Graph>
    build()
    {
        g_ = std::make_unique<Graph>();
        g_->name = fn_.decl->name;
        g_->decl = fn_.decl;
        g_->numParams = fn_.numParams;
        g_->hasFrame = fn_.frameBaseReg >= 0;
        g_->frameBytes = layout_.frameSize(fn_.decl);

        entryHb_ = hbp_.hbOf(fn_.entry);

        if (opts_.usePointsTo) {
            parts_ = computePartitions(fn_, cfg_.oracle);
        } else {
            parts_.numPartitions = 1;
            parts_.memOpPartition.assign(fn_.numMemOps, 0);
        }
        g_->numPartitions = parts_.numPartitions;

        const size_t numHbs = hbp_.hyperblocks().size();
        scalarMerge_.clear();
        mergeStart_.assign(numHbs + 1, 0);
        ctrlMerge_.assign(numHbs, nullptr);
        continuePred_.assign(numHbs, PortRef{});
        ringMerge_.assign(numHbs * static_cast<size_t>(parts_.numPartitions),
                          nullptr);
        constCache_.assign(numHbs, {});
        blockPred_.assign(fn_.blocks.size(), PortRef{});

        // Distinguished inputs.
        for (int p = 0; p < fn_.numParams; p++) {
            Node* n = g_->newNode(NodeKind::Param, VT::Word, entryHb_);
            n->paramIndex = p;
            g_->paramNodes.push_back(n);
        }
        if (g_->hasFrame) {
            Node* n = g_->newNode(NodeKind::Param, VT::Word, entryHb_);
            n->paramIndex = fn_.numParams;
            g_->paramNodes.push_back(n);
        }
        g_->initialToken =
            g_->newNode(NodeKind::InitialToken, VT::Token, entryHb_);

        createHbInfosAndMerges();
        for (const Hyperblock& hb : hbp_.hyperblocks())
            processHyperblock(hb);
        attachDeciders();

        return std::move(g_);
    }

  private:
    // =================================================================
    // Merges / hyperblock scaffolding
    // =================================================================

    void
    createHbInfosAndMerges()
    {
        for (const Hyperblock& hb : hbp_.hyperblocks()) {
            mergeStart_[static_cast<size_t>(hb.id)] =
                static_cast<uint32_t>(scalarMerge_.size());
            HbInfo info;
            info.id = hb.id;
            info.isLoop = hb.isLoop;
            info.loopDepth = hb.loopDepth;
            for (const HbExit& e : hb.exits)
                if (std::find(info.successors.begin(),
                              info.successors.end(),
                              e.targetHb) == info.successors.end())
                    info.successors.push_back(e.targetHb);
            g_->hyperblocks.push_back(info);

            bool hasIncoming = !hb.incoming.empty();
            if (!hasIncoming) {
                CASH_ASSERT(hb.id == entryHb_,
                            "non-entry hyperblock without incoming edges");
                continue;
            }
            // Control merge: the activation pulse of the hyperblock
            // (the paper's merge nodes "accepting control", Figure 2).
            // It carries the constant-true predicate once per
            // activation, giving every block predicate — and with it
            // every eta and side-effect — a dynamic trigger even when
            // all data in the hyperblock is constant.
            {
                Node* cm = g_->newNode(NodeKind::Merge, VT::Pred, hb.id);
                ctrlMerge_[static_cast<size_t>(hb.id)] = cm;
                if (hb.id == entryHb_)
                    g_->addInput(cm, {constNode(hb.id, 1, VT::Pred), 0});
            }
            // Scalar merges for every register live into the header.
            for (int reg : live_.liveIn(hb.header)) {
                Node* m = g_->newNode(NodeKind::Merge, VT::Word, hb.id);
                scalarMerge_.push_back(m);
                if (hb.id == entryHb_)
                    g_->addInput(m, entryValueOf(reg));
            }
            // One token-ring merge per memory partition.
            for (int p = 0; p < parts_.numPartitions; p++) {
                Node* m = g_->newNode(NodeKind::Merge, VT::Token, hb.id);
                g_->ringMerge[{hb.id, p}] = m;
                ringMerge_[ringIndex(hb.id, p)] = m;
                if (hb.id == entryHb_)
                    g_->addInput(m, {g_->initialToken, 0});
            }
        }
        mergeStart_.back() = static_cast<uint32_t>(scalarMerge_.size());
    }

    /** Function-entry value of a register (params or zero). */
    PortRef
    entryValueOf(int reg)
    {
        if (reg < fn_.numParams)
            return {g_->paramNodes[reg], 0};
        if (reg == fn_.frameBaseReg)
            return {g_->paramNodes[fn_.numParams], 0};
        return {constNode(entryHb_, 0, VT::Word), 0};
    }

    // =================================================================
    // Small node factories with folding
    // =================================================================

    Node*
    constNode(int hb, int64_t v, VT vt)
    {
        std::vector<CachedConst>& cache =
            constCache_[static_cast<size_t>(hb)];
        for (const CachedConst& c : cache)
            if (c.value == v && c.type == vt)
                return c.node;
        Node* n = g_->newConst(v, vt, hb);
        cache.push_back({v, vt, n});
        return n;
    }

    bool
    isConstPred(PortRef p, int64_t* out) const
    {
        if (p.node->kind == NodeKind::Const) {
            *out = p.node->constValue;
            return true;
        }
        return false;
    }

    PortRef
    predAnd(PortRef a, PortRef b, int hb)
    {
        int64_t v;
        if (isConstPred(a, &v))
            return v ? b : a;
        if (isConstPred(b, &v))
            return v ? a : b;
        if (a == b)
            return a;
        return {g_->newArith(Op::And, a, b, hb, VT::Pred), 0};
    }

    PortRef
    predOr(PortRef a, PortRef b, int hb)
    {
        int64_t v;
        if (isConstPred(a, &v))
            return v ? a : b;
        if (isConstPred(b, &v))
            return v ? b : a;
        if (a == b)
            return a;
        return {g_->newArith(Op::Or, a, b, hb, VT::Pred), 0};
    }

    PortRef
    predNot(PortRef a, int hb)
    {
        int64_t v;
        if (isConstPred(a, &v))
            return {constNode(hb, v ? 0 : 1, VT::Pred), 0};
        if (a.node->kind == NodeKind::Arith &&
            a.node->op == Op::NotBool)
            return a.node->input(0);
        return {g_->newArith1(Op::NotBool, a, hb, VT::Pred), 0};
    }

    /** Convert a Word value into a predicate (v != 0). */
    PortRef
    boolify(PortRef v, int hb)
    {
        if (v.node->kind == NodeKind::Const)
            return {constNode(hb, v.node->constValue != 0, VT::Pred), 0};
        if (v.node->kind == NodeKind::Arith && opIsCompare(v.node->op)) {
            // Recreate the comparison as a predicate-typed node.
            const size_t id = static_cast<size_t>(v.node->id);
            if (id < predView_.size() && predView_[id])
                return {predView_[id], 0};
            Node* n = g_->newArith(v.node->op, v.node->input(0),
                                   v.node->input(1), hb, VT::Pred);
            if (id >= predView_.size())
                predView_.resize(id + 1, nullptr);
            predView_[id] = n;
            return {n, 0};
        }
        return {g_->newArith(Op::Ne, v, {constNode(hb, 0, VT::Word), 0},
                             hb, VT::Pred),
                0};
    }

    // =================================================================
    // Per-hyperblock processing
    // =================================================================

    struct TOp
    {
        Node* node = nullptr;
        int block = -1;
        int order = -1;
        bool isRead = false;
        const LocationSet* rw = nullptr;  ///< The node's rwSet, or top.
        int part = -1;  ///< -1 = touches every partition (call/return).
    };

    void
    processHyperblock(const Hyperblock& hb)
    {
        for (int b : hb.blocks)
            blockPred_[static_cast<size_t>(b)] = PortRef{};
        outMap_.clear();
        inMemo_.clear();
        tops_.clear();
        curHb_ = &hb;

        // Phase 1: scalar dataflow + memory op creation.
        for (int b : hb.blocks) {
            computeBlockPred(b);
            processBlock(b);
        }
        // Phase 2: token wiring.
        wireTokens(hb);
        // Phase 3: exits.
        processExits(hb);
    }

    void
    computeBlockPred(int b)
    {
        const Hyperblock& hb = *curHb_;
        if (b == hb.header) {
            Node* cm = ctrlMerge_[static_cast<size_t>(hb.id)];
            blockPred_[static_cast<size_t>(b)] =
                cm ? PortRef{cm, 0}
                   : PortRef{constNode(hb.id, 1, VT::Pred), 0};
            return;
        }
        PortRef acc{};
        for (int p : fn_.block(b)->preds) {
            if (hbp_.hbOf(p) != hb.id || p == b)
                continue;
            PortRef pathPred = edgePred(p, b);
            acc = acc.valid() ? predOr(acc, pathPred, hb.id) : pathPred;
        }
        CASH_ASSERT(acc.valid(), "block without in-hyperblock preds");
        blockPred_[static_cast<size_t>(b)] = acc;
    }

    /** Predicate of CFG edge p→b: blockPred(p) ∧ branch condition. */
    PortRef
    edgePred(int p, int b)
    {
        const Terminator& t = fn_.block(p)->term;
        PortRef bp = blockPredOf(p);
        if (t.kind == Terminator::Kind::Jump)
            return bp;
        CASH_ASSERT(t.kind == Terminator::Kind::CondBranch,
                    "edge from non-branch block");
        if (t.target0 == t.target1)
            return bp;
        PortRef cond = boolify(operandValue(p, t.cond), curHb_->id);
        if (t.target0 == b)
            return predAnd(bp, cond, curHb_->id);
        CASH_ASSERT(t.target1 == b, "edge target mismatch");
        return predAnd(bp, predNot(cond, curHb_->id), curHb_->id);
    }

    // ------------------------------------------------------------------
    // Value lookup with mux insertion
    // ------------------------------------------------------------------

    /** Value of @p reg at the end of block @p b. */
    PortRef
    lookup(int b, int reg)
    {
        PortRef v;
        if (outMap_.find(b, reg, &v))
            return v;
        return inValue(b, reg);
    }

    /** Value of @p reg at the entry of block @p b. */
    PortRef
    inValue(int b, int reg)
    {
        PortRef memo;
        if (inMemo_.find(b, reg, &memo))
            return memo;

        const Hyperblock& hb = *curHb_;
        PortRef result;
        if (b == hb.header) {
            result = headerValue(reg);
        } else {
            // Gather reaching values from in-hyperblock predecessors
            // as (pred, val) pairs on top of arms_: the lookups below
            // recurse, each pushing and popping above this base.
            const size_t base = arms_.size();
            bool allSame = true;
            PortRef first{};
            for (int p : fn_.block(b)->preds) {
                if (hbp_.hbOf(p) != hb.id)
                    continue;
                PortRef v = lookup(p, reg);
                if (!first.valid())
                    first = v;
                else if (v != first)
                    allSame = false;
                PortRef pred = edgePred(p, b);
                arms_.push_back(pred);
                arms_.push_back(v);
            }
            CASH_ASSERT(arms_.size() > base, "no reaching definitions");
            if (allSame) {
                result = first;
            } else {
                Node* mux = g_->newNode(NodeKind::Mux, VT::Word, hb.id);
                for (size_t i = base; i < arms_.size(); i++)
                    g_->addInput(mux, arms_[i]);
                result = {mux, 0};
            }
            arms_.resize(base);
        }
        inMemo_.set(b, reg, result);
        return result;
    }

    PortRef
    headerValue(int reg)
    {
        const Hyperblock& hb = *curHb_;
        if (Node* m = scalarMergeOf(hb, reg))
            return {m, 0};
        if (hb.id == entryHb_)
            return entryValueOf(reg);
        // Not live into the header: a definition must precede any use,
        // but keep construction total with a zero.
        return {constNode(hb.id, 0, VT::Word), 0};
    }

    PortRef
    operandValue(int b, const Operand& o)
    {
        if (o.isConst())
            return {constNode(curHb_->id, o.cval, VT::Word), 0};
        CASH_ASSERT(o.isReg(), "evaluating empty operand");
        return lookup(b, o.reg);
    }

    // ------------------------------------------------------------------
    // Instruction processing
    // ------------------------------------------------------------------

    void
    processBlock(int b)
    {
        const Hyperblock& hb = *curHb_;
        for (const Instr& i : fn_.block(b)->instrs) {
            switch (i.kind) {
              case InstrKind::Bin: {
                Node* n = g_->newArith(i.op, operandValue(b, i.a),
                                       operandValue(b, i.b), hb.id);
                outMap_.set(b, i.dst, {n, 0});
                break;
              }
              case InstrKind::Un: {
                Node* n = g_->newArith1(i.op, operandValue(b, i.a),
                                        hb.id);
                outMap_.set(b, i.dst, {n, 0});
                break;
              }
              case InstrKind::Copy:
                outMap_.set(b, i.dst, operandValue(b, i.a));
                break;
              case InstrKind::Load: {
                Node* n = g_->newNode(NodeKind::Load, VT::Word, hb.id);
                n->size = i.size;
                n->signExtend = i.signExtend;
                n->rwSet = opts_.usePointsTo ? i.rwSet
                                             : LocationSet::top();
                n->partition =
                    i.memId >= 0 ? parts_.memOpPartition[i.memId] : 0;
                n->memId = i.memId;
                n->loc = i.loc;
                g_->addInput(n, blockPredOf(b));
                g_->addInput(n, {g_->initialToken, 0});  // placeholder
                g_->addInput(n, operandValue(b, i.addr));
                outMap_.set(b, i.dst, {n, 0});
                tops_.push_back({n, b, static_cast<int>(tops_.size()),
                                 true, &n->rwSet, n->partition});
                break;
              }
              case InstrKind::Store: {
                Node* n = g_->newNode(NodeKind::Store, VT::Token, hb.id);
                n->size = i.size;
                n->rwSet = opts_.usePointsTo ? i.rwSet
                                             : LocationSet::top();
                n->partition =
                    i.memId >= 0 ? parts_.memOpPartition[i.memId] : 0;
                n->memId = i.memId;
                n->loc = i.loc;
                g_->addInput(n, blockPredOf(b));
                g_->addInput(n, {g_->initialToken, 0});  // placeholder
                g_->addInput(n, operandValue(b, i.addr));
                g_->addInput(n, operandValue(b, i.value));
                tops_.push_back({n, b, static_cast<int>(tops_.size()),
                                 false, &n->rwSet, n->partition});
                break;
              }
              case InstrKind::Call: {
                Node* n = g_->newNode(NodeKind::Call, VT::Word, hb.id);
                n->callee = i.callee;
                n->callReads = i.callReads;
                n->callWrites = i.callWrites;
                n->callEffectsValid = i.callEffectsValid;
                // With valid MOD/REF stamps the call enters the
                // conflict screen with its resolved effect sets (and
                // counts as a reader when its callee writes nothing);
                // otherwise it keeps the conservative Top.
                const bool refined = opts_.interprocEffects &&
                                     opts_.usePointsTo &&
                                     i.callEffectsValid;
                LocationSet rw = LocationSet::top();
                if (refined) {
                    rw = i.callReads;
                    rw.unionWith(i.callWrites);
                }
                n->rwSet = rw;
                n->partition = -1;
                n->loc = i.loc;
                g_->addInput(n, blockPredOf(b));
                g_->addInput(n, {g_->initialToken, 0});  // placeholder
                for (const Operand& a : i.args)
                    g_->addInput(n, operandValue(b, a));
                if (i.dst >= 0)
                    outMap_.set(b, i.dst, {n, 0});
                tops_.push_back({n, b, static_cast<int>(tops_.size()),
                                 refined && i.callWrites.empty(),
                                 &n->rwSet, -1});
                break;
              }
            }
        }
        // Return terminators become Return sink nodes.
        const Terminator& t = fn_.block(b)->term;
        if (t.kind == Terminator::Kind::Return) {
            Node* n = g_->newNode(NodeKind::Return, VT::Word, hb.id);
            g_->addInput(n, blockPredOf(b));
            g_->addInput(n, {g_->initialToken, 0});  // placeholder
            if (!t.retValue.isNone())
                g_->addInput(n, operandValue(b, t.retValue));
            g_->returnNodes.push_back(n);
            tops_.push_back({n, b, static_cast<int>(tops_.size()),
                             false, &topSet_, -1});
        }
    }

    // ------------------------------------------------------------------
    // Token wiring (paper §3.3 + §3.4)
    // ------------------------------------------------------------------

    /** Token source entering this hyperblock for partition @p p. */
    PortRef
    entryTokenSource(const Hyperblock& hb, int p)
    {
        if (Node* m = ringMerge_[ringIndex(hb.id, p)])
            return {m, 0};
        CASH_ASSERT(hb.id == entryHb_, "missing ring merge");
        return {g_->initialToken, 0};
    }

    /** Do ops @p a and @p b need an ordering edge? */
    bool
    conflicts(const TOp& a, const TOp& b) const
    {
        if (a.isRead && b.isRead)
            return false;
        if (!opts_.usePointsTo)
            return true;
        return cfg_.oracle.mayOverlap(*a.rw, *b.rw);
    }

    /** Does op @p o touch partition @p p? */
    bool
    touchesPartition(const TOp& o, int p) const
    {
        return o.part == -1 || o.part == p;
    }

    void
    wireTokens(const Hyperblock& hb)
    {
        int k = static_cast<int>(tops_.size());
        int np = parts_.numPartitions;
        // DAG nodes: [0,k) real ops, [k,k+np) entry virtuals,
        // [k+np,k+2np) exit virtuals.
        int n = k + 2 * np;
        // The DAG's edges and its closure, one bitset row per node.
        const size_t words = (static_cast<size_t>(n) + 63) / 64;
        auto row = [words](std::vector<uint64_t>& bits, int i) {
            return bits.data() + static_cast<size_t>(i) * words;
        };
        auto has = [](const uint64_t* r, int j) {
            return ((r[j >> 6] >> (j & 63)) & 1) != 0;
        };
        auto add = [](uint64_t* r, int j) {
            r[j >> 6] |= uint64_t{1} << (j & 63);
        };
        edge_.assign(static_cast<size_t>(n) * words, 0);

        bool hasExits = !hb.exits.empty();
        // Which blocks can reach a (non-return) exit edge.
        auto reachesExit = [&](int block) {
            for (const HbExit& e : hb.exits)
                if (hbp_.reaches(block, e.srcBlock))
                    return true;
            return false;
        };

        auto hasPath = [&](const TOp& a, const TOp& b) {
            if (a.block == b.block)
                return a.order < b.order;
            return hbp_.reaches(a.block, b.block);
        };

        for (int i = 0; i < k; i++) {
            for (int j = i + 1; j < k; j++)
                if (hasPath(tops_[i], tops_[j]) &&
                    conflicts(tops_[i], tops_[j]))
                    add(row(edge_, i), j);
        }
        for (int p = 0; p < np; p++) {
            int ev = k + p;
            int xv = k + np + p;
            for (int i = 0; i < k; i++) {
                if (!touchesPartition(tops_[i], p))
                    continue;
                add(row(edge_, ev), i);
                if (hasExits && tops_[i].node->numOutputs() > 0 &&
                    reachesExit(tops_[i].block))
                    add(row(edge_, i), xv);
            }
            if (hasExits)
                add(row(edge_, ev), xv);
        }

        // Transitive reduction: drop every edge implied by a longer
        // path (the §3.4 invariant).  Warshall's closure over the
        // small DAG, a row at a time.
        reach_ = edge_;
        for (int m = 0; m < n; m++)
            for (int i = 0; i < n; i++)
                if (has(row(reach_, i), m))
                    for (size_t w = 0; w < words; w++)
                        row(reach_, i)[w] |= row(reach_, m)[w];
        // Column j of the closure: the nodes that reach j.
        reachedBy_.assign(static_cast<size_t>(n) * words, 0);
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
                if (has(row(reach_, i), j))
                    add(row(reachedBy_, j), i);
        // An edge i→j goes when some m other than i and j has i→m and
        // m→j in the closure (the closure holds every edge, so edges
        // already dropped change nothing).
        for (int i = 0; i < n; i++) {
            for (int j = 0; j < n; j++) {
                if (!has(row(edge_, i), j))
                    continue;
                const uint64_t* from = row(reach_, i);
                const uint64_t* to = row(reachedBy_, j);
                for (size_t w = 0; w < words; w++) {
                    uint64_t via = from[w] & to[w];
                    if (w == static_cast<size_t>(i >> 6))
                        via &= ~(uint64_t{1} << (i & 63));
                    if (w == static_cast<size_t>(j >> 6))
                        via &= ~(uint64_t{1} << (j & 63));
                    if (via) {
                        row(edge_, i)[j >> 6] &=
                            ~(uint64_t{1} << (j & 63));
                        break;
                    }
                }
            }
        }

        // Materialize token inputs.
        auto tokenOutOf = [&](int idx) -> PortRef {
            if (idx < k) {
                Node* nn = tops_[idx].node;
                int port = nn->tokenOutPort();
                CASH_ASSERT(port >= 0, "token from sink node");
                return {nn, port};
            }
            CASH_ASSERT(idx < k + np, "token from exit virtual");
            return entryTokenSource(hb, idx - k);
        };

        auto combineOf = [&](const std::vector<PortRef>& srcs,
                             int hbId) -> PortRef {
            CASH_ASSERT(!srcs.empty(), "op without token source");
            if (srcs.size() == 1)
                return srcs[0];
            Node* c = g_->newNode(NodeKind::Combine, VT::Token, hbId);
            for (const PortRef& s : srcs)
                g_->addInput(c, s);
            return {c, 0};
        };

        std::vector<PortRef>& srcs = srcs_;
        for (int j = 0; j < k; j++) {
            srcs.clear();
            for (int i = 0; i < n; i++) {
                if (i == j || !has(row(edge_, i), j))
                    continue;
                PortRef t = tokenOutOf(i);
                if (std::find(srcs.begin(), srcs.end(), t) == srcs.end())
                    srcs.push_back(t);
            }
            Node* nn = tops_[j].node;
            int ti = nn->tokenInIndex();
            g_->setInput(nn, ti, combineOf(srcs, hb.id));
        }

        // Exit token state per partition.
        exitToken_.assign(np, PortRef{});
        if (hasExits) {
            for (int p = 0; p < np; p++) {
                int xv = k + np + p;
                srcs.clear();
                for (int i = 0; i < k + np; i++) {
                    if (!has(row(edge_, i), xv))
                        continue;
                    PortRef t = tokenOutOf(i);
                    if (std::find(srcs.begin(), srcs.end(), t) ==
                        srcs.end())
                        srcs.push_back(t);
                }
                exitToken_[p] = combineOf(srcs, hb.id);
            }
        }
    }

    // ------------------------------------------------------------------
    // Hyperblock exits
    // ------------------------------------------------------------------

    /**
     * Deliver @p value into @p targetMerge whenever the exit edge with
     * predicate @p predE is taken.  Normally an eta; constant-true
     * predicates (possible only in the single-activation entry
     * hyperblock) wire directly, and constant-false edges vanish.
     */
    void
    addEdgeDelivery(Node* targetMerge, PortRef value, PortRef predE,
                    bool isBack, int srcHb, VT vt)
    {
        int64_t c;
        if (isConstPred(predE, &c)) {
            if (c == 0)
                return;  // edge never taken
            g_->addInput(targetMerge, value, isBack);
            return;
        }
        Node* eta = g_->newNode(NodeKind::Eta, vt, srcHb);
        g_->addInput(eta, value);
        g_->addInput(eta, predE);
        g_->addInput(targetMerge, {eta, 0}, isBack);
    }

    /**
     * The loop-continuation decider of hyperblock @p hb: true on
     * activations whose control stays inside @p hb's innermost loop
     * (including the self back edge), false when the loop exits.
     * Recorded here; attachDeciders() wires it to every mu-merge once
     * all hyperblocks have contributed their back-edge inputs.
     */
    void
    computeContinuePred(const Hyperblock& hb)
    {
        PortRef cont{};
        for (const HbExit& e : hb.exits) {
            bool staysInLoop = e.isBackEdge;
            if (!staysInLoop && hb.loopIndex >= 0)
                staysInLoop =
                    loops_.loops()[hb.loopIndex].blocks.count(
                        e.dstBlock) != 0;
            if (!staysInLoop)
                continue;
            PortRef p = exitEdgePred(e);
            cont = cont.valid() ? predOr(cont, p, hb.id) : p;
        }
        continuePred_[static_cast<size_t>(hb.id)] = cont;
    }

    void
    attachDeciders()
    {
        g_->forEach([&](Node* m) {
            if (m->dead || m->kind != NodeKind::Merge)
                return;
            bool hasBack = false;
            for (int i = 0; i < m->numInputs(); i++)
                if (m->inputIsBackEdge(i))
                    hasBack = true;
            if (!hasBack)
                return;
            const PortRef cont =
                continuePred_[static_cast<size_t>(m->hyperblock)];
            CASH_ASSERT(cont.valid(),
                        "mu-merge without a continue predicate");
            m->deciderIndex = m->numInputs();
            g_->addInput(m, cont, /*backEdge=*/true);
        });
    }

    void
    processExits(const Hyperblock& hb)
    {
        computeContinuePred(hb);
        for (const HbExit& e : hb.exits) {
            PortRef predE = exitEdgePred(e);
            const Hyperblock& target = hbp_.hb(e.targetHb);
            // Control pulse.
            Node* cm = ctrlMerge_[static_cast<size_t>(target.id)];
            CASH_ASSERT(cm, "exit into hyperblock without control merge");
            addEdgeDelivery(cm,
                            {constNode(hb.id, 1, VT::Pred), 0}, predE,
                            e.isBackEdge, hb.id, VT::Pred);
            // Scalar etas for registers the target has merges for.
            const std::span<Node* const> merges = scalarMergesOf(target);
            const std::span<const int> regs = live_.liveIn(target.header);
            for (size_t k = 0; k < merges.size(); k++)
                addEdgeDelivery(merges[k], lookup(e.srcBlock, regs[k]),
                                predE, e.isBackEdge, hb.id, VT::Word);
            // Token etas, one per partition ring.
            for (int p = 0; p < parts_.numPartitions; p++) {
                Node* m = ringMerge_[ringIndex(target.id, p)];
                CASH_ASSERT(m, "target hyperblock lacks ring merge");
                addEdgeDelivery(m, exitToken_.at(p), predE, e.isBackEdge,
                                hb.id, VT::Token);
            }
        }
    }

    PortRef
    exitEdgePred(const HbExit& e)
    {
        const Terminator& t = fn_.block(e.srcBlock)->term;
        PortRef bp = blockPredOf(e.srcBlock);
        if (t.kind == Terminator::Kind::Jump)
            return bp;
        CASH_ASSERT(t.kind == Terminator::Kind::CondBranch,
                    "exit from non-branch block");
        if (t.target0 == t.target1)
            return bp;
        PortRef cond =
            boolify(operandValue(e.srcBlock, t.cond), curHb_->id);
        if (t.target0 == e.dstBlock)
            return predAnd(bp, cond, curHb_->id);
        return predAnd(bp, predNot(cond, curHb_->id), curHb_->id);
    }

    size_t
    ringIndex(int hb, int p) const
    {
        return static_cast<size_t>(hb) *
                   static_cast<size_t>(parts_.numPartitions) +
               static_cast<size_t>(p);
    }

    /** The scalar merge of @p reg in @p hb's header; null if none. */
    Node*
    scalarMergeOf(const Hyperblock& hb, int reg) const
    {
        const std::span<Node* const> merges = scalarMergesOf(hb);
        if (merges.empty())
            return nullptr;
        const std::span<const int> regs = live_.liveIn(hb.header);
        auto it = std::lower_bound(regs.begin(), regs.end(), reg);
        if (it == regs.end() || *it != reg)
            return nullptr;
        return merges[static_cast<size_t>(it - regs.begin())];
    }

    /** The scalar merges of @p hb's header, parallel to
     *  live_.liveIn(header); empty when it has none. */
    std::span<Node* const>
    scalarMergesOf(const Hyperblock& hb) const
    {
        const size_t h = static_cast<size_t>(hb.id);
        return {scalarMerge_.data() + mergeStart_[h],
                scalarMerge_.data() + mergeStart_[h + 1]};
    }

    /** The predicate of block @p b, computed earlier in this
     *  hyperblock. */
    PortRef
    blockPredOf(int b) const
    {
        PortRef p = blockPred_.at(static_cast<size_t>(b));
        CASH_ASSERT(p.valid(), "block predicate used before it is known");
        return p;
    }

    // =================================================================

    const CfgFunction& fn_;
    const CfgProgram& cfg_;
    const MemoryLayout& layout_;
    BuildOptions opts_;

    DominatorTree dom_;
    LoopForest loops_;
    HyperblockPartition hbp_;
    Liveness live_;
    PartitionResult parts_;

    std::unique_ptr<Graph> g_;
    int entryHb_ = 0;

    // Tables indexed by hyperblock, block or node id.
    /** The scalar merge of each register live into each hyperblock's
     *  header, parallel to live_.liveIn(header) (ascending). */
    std::vector<Node*> scalarMerge_;
    /** Hyperblock h's merges are scalarMerge_[mergeStart_[h],
     *  mergeStart_[h + 1]). */
    std::vector<uint32_t> mergeStart_;
    std::vector<Node*> ctrlMerge_;
    /** Loop-continuation decider per hyperblock (invalid: none). */
    std::vector<PortRef> continuePred_;
    /** g_->ringMerge, at ringIndex(hyperblock, partition). */
    std::vector<Node*> ringMerge_;
    struct CachedConst
    {
        int64_t value;
        VT type;
        Node* node;
    };
    /** Per hyperblock: its constants, each made once. */
    std::vector<std::vector<CachedConst>> constCache_;
    /** Per comparison node id: its predicate-typed twin. */
    std::vector<Node*> predView_;

    // Per-hyperblock transient state.
    const Hyperblock* curHb_ = nullptr;
    /** Per block id of the current hyperblock: its predicate. */
    std::vector<PortRef> blockPred_;
    /** Value of a register at the end / the entry of a block. */
    BlockRegMap outMap_, inMemo_;
    std::vector<TOp> tops_;
    /** The read/write set of a return, which orders against
     *  everything. */
    const LocationSet topSet_ = LocationSet::top();
    std::vector<PortRef> exitToken_;
    /** wireTokens()' bitset rows: the token DAG, its closure, and the
     *  closure's columns. */
    std::vector<uint64_t> edge_, reach_, reachedBy_;
    /** wireTokens()' token sources of one op or exit. */
    std::vector<PortRef> srcs_;
    /** inValue()'s (predicate, value) arms, a stack shared by its
     *  recursive calls. */
    std::vector<PortRef> arms_;
};

} // namespace

std::unique_ptr<Graph>
buildFunctionGraph(const CfgFunction& fn, const CfgProgram& cfg,
                   const MemoryLayout& layout, const BuildOptions& options)
{
    GraphBuilder b(fn, cfg, layout, options);
    return b.build();
}

std::vector<std::unique_ptr<Graph>>
buildPegasus(const CfgProgram& cfg, const Program& program,
             const MemoryLayout& layout, const BuildOptions& options)
{
    (void)program;
    std::vector<std::unique_ptr<Graph>> out;
    for (const auto& fn : cfg.functions)
        out.push_back(buildFunctionGraph(*fn, cfg, layout, options));
    return out;
}

} // namespace cash
