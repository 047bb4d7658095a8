/**
 * @file
 * Super-operator region compiler for the macro-firing simulation
 * engine (docs/SIMULATOR.md, "Macro-firing engine").
 *
 * A *region* is the set of pure operators (Arith / Mux / Combine /
 * Eta) plus order-robust mu-merges of one Pegasus graph, compiled
 * into a super-operator evaluated *incrementally*: every operand
 * stream is a ring buffer, and each boundary delivery triggers a
 * cascade that fires every interior operator as often as its streams
 * allow, computing result values and completion times without any
 * global event dispatch.  Everything stateful whose outcome depends
 * on within-cycle arrival order — token generators, memory
 * operations, calls, returns, loose merges — stays event-driven.
 *
 * A graph has at most one region.  compileRegions() returns it as one
 * CompiledRegion holding only decoded tables: the interior mask, one
 * operand table per absorbed node (RegionSrc, operand k = input k;
 * read by the simulator's set-up and deadlock report) and the
 * cascade's visit tables (RegionVisit, RegionConeOp, gates, seed and
 * garbage-collection lists).  The compiler's working form stays
 * private to region_compiler.cpp.
 *
 * Chain fusion: an AND-firing operator whose *every* consumer is a
 * single interior non-merge operator is invisible to the rest of the
 * system — it owns no ring and no external edge — so its value and
 * completion time pass through a register slot of its consumer's
 * *evaluation cone* instead.  A cone is the in-tree of fused ops
 * feeding one sink; the worklist visits sinks only, and one sink
 * firing evaluates the whole expression tree in registers.  Deferring
 * a fused op to its sink's firing is exact: it has no other
 * observers, and its max-plus completion time is the same whenever it
 * is computed.  Structural cycles of single-consumer pure ops (which
 * can never fire) are broken back to rings so every cone has a sink.
 *
 * Exactness argument, pure operators: they are AND-firing, so the
 * k-th firing of an interior node happens at the *maximum* of its
 * operands' k-th arrival times, plus the operator latency — times
 * compose max-plus along interior paths, and per-stream FIFO order is
 * all that matters (AND-firing is insensitive to arrival order
 * *across* streams).  Each stream's times are monotone by induction
 * (boundary streams inherit the event engine's per-port delivery
 * clock; max of monotone streams is monotone), so ring position k
 * *is* the k-th firing, exactly as the event engine would discover it
 * one delivery at a time.  Every cascade firing consumes at least one
 * item produced by the triggering delivery, so emission times never
 * precede the current cycle.
 *
 * Exactness argument, merges: a mu-merge is absorbable when its mode
 * machine is stream-deterministic — a *single* forward input (the
 * forward scan picks the first pending stream, so multiple forward
 * streams would race on arrival order) and strict wait-for-all back
 * edges (one item per back input per iteration makes the back round
 * insensitive to arrival order).  The event engine fires such a merge
 * at the dispatch time of whichever delivery completed its enabling:
 * by induction that is max(consumed item times, previous firing's
 * time) — mode transitions gate later firings exactly like an extra
 * operand whose time is the previous firing.  The replay tracks that
 * one timestamp per merge and reproduces every firing, including
 * EOS-discard and all-EOS drain rounds, decider consultations, and
 * one-shot initial values (rerouted into a private input stream).
 *
 * A pure cycle never fires (no item can complete its operand set) —
 * but a cycle *through a merge* is a loop, and the cascade replays
 * entire loop executions from one boundary delivery, so the simulator
 * re-checks its event budget inside the cascade to keep livelocked
 * programs failing with the same EventLimit outcome.
 */
#ifndef CASH_SIM_REGION_COMPILER_H
#define CASH_SIM_REGION_COMPILER_H

#include <cstdint>
#include <vector>

#include "pegasus/node.h"

namespace cash {

/** Role of one merge operand in the mode machine. */
enum : int8_t
{
    kRegRoleFwd = 0,     ///< Forward (initial-value) input.
    kRegRoleBack = 1,    ///< Back-edge input.
    kRegRoleDecider = 2, ///< Loop-continuation decider.
};

/** Widest mux the evaluator absorbs (operands gather into a stack
 *  buffer); wider muxes stay event-driven. */
constexpr int32_t kMaxRegionMuxArgs = 64;

/**
 * The simulator-independent view of one graph the region compiler
 * consumes: per dense node, its kind/op/latency and input edges
 * (with constant-folded inputs resolved, mirroring the simulator's
 * input descriptors).
 */
struct RegionGraphView
{
    struct In
    {
        bool isConst = false;
        uint32_t constValue = 0;
        /** Producer (dense id + output port); valid when !isConst. */
        int32_t node = -1;
        int32_t port = 0;
        /** Merge operand role (kRegRole*); 0 for non-merge inputs. */
        int8_t role = kRegRoleFwd;
        /** Fed only by a one-shot initial value at activation start
         *  (the static producer never fires): must get a private
         *  input stream, never shared with other consumers. */
        bool initOnly = false;
    };
    struct NodeV
    {
        NodeKind kind = NodeKind::Const;
        Op op = Op::Add;
        bool unary = false;
        uint8_t latency = 0;
        /** Merges: every back producer is a same-hyperblock eta, so
         *  back rounds consume one item per input (order-robust). */
        bool strictBack = false;
        std::vector<In> in;
    };
    std::vector<NodeV> nodes;
    /**
     * Optional fusion-group id per node (tiled fabric: the node's
     * tile).  When non-empty, a region never spans two groups — the
     * compiler keeps only the candidates of the best-populated group
     * (ties: lowest id), so a super-operator always lives on one tile
     * and cross-tile edges keep their per-hop cost (docs/FABRIC.md).
     */
    std::vector<int32_t> group;
};

/**
 * A decoded operand: where one read comes from, resolved at compile
 * time.
 *
 *   * `ring >= 0` — stream `ring`, read at consumption counter `x`
 *     (the operand's position in CompiledRegion::operands, which
 *     indexes the per-activation counters);
 *   * `ring == kRegSrcConst` — the constant `x`;
 *   * `ring == kRegSrcReg` — cone register slot `x`;
 *   * `ring == kRegSrcNone` — absent (a merge without a decider).
 */
struct RegionSrc
{
    int32_t ring = -1;
    uint32_t x = 0;
};
constexpr int32_t kRegSrcConst = -1;
constexpr int32_t kRegSrcReg = -2;
constexpr int32_t kRegSrcNone = -3;

/** One operator of an evaluation cone, pre-decoded. */
struct RegionConeOp
{
    NodeKind kind = NodeKind::Arith;
    Op op = Op::Add;
    bool unary = false;
    uint8_t latency = 0;
    uint8_t hasExternal = 0;  ///< Sink only: emits through output().
    uint16_t argCnt = 0;
    int32_t dense = -1;       ///< Original node (external emissions).
    int32_t argOff = 0;       ///< Operands in CompiledRegion::operands.
};

/**
 * One cascade scan position (32 bytes): a cone sink or an absorbed
 * merge, with everything one visit reads.  Scan positions order the
 * cascade — merges first, then cone sinks topologically over forward
 * sink-to-sink ring edges, so one ascending scan fires an entire
 * acyclic wave: producers always before consumers, and only back
 * edges (which must pass through merges) carry work into another
 * wave.
 */
struct RegionVisit
{
    int32_t outRing = -1;  ///< Result stream, or -1.
    /** Merge: the per-activation mode/time slot; -1 for a cone. */
    int32_t mSlot = -1;
    /** Cone: its operators in CompiledRegion::coneOps, fused chain
     *  members in operands-before-consumers order with the sink last
     *  (a member's cone-local position is its register slot).  Merge:
     *  one operand-less record of the merge itself (emission target,
     *  firing-count kind). */
    int32_t coneOff = 0;
    int32_t coneCnt = 0;
    /** Cone: every stream operand anywhere in the cone, so the
     *  firing-count scan is one flat loop of `tail - consumed`.
     *  Merge: the forward operand, the decider (constant, stream or
     *  kRegSrcNone), then the back-edge operands in operand order.
     *  Both are ranges of CompiledRegion::gates. */
    int32_t gateOff = 0;
    int32_t gateEnd = 0;
    /** Cone: interior deliveries one firing of the whole cone stands
     *  for under the event engine (equivalent-event accounting). */
    int32_t coneEq = 0;
    int32_t pad = 0;  ///< Rounds the record up to 32 bytes.
};
static_assert(sizeof(RegionVisit) == 32, "two visits per cache line");

/**
 * The compiled super-operator of one graph (a graph has at most one).
 * A graph without one gets an empty region (empty() is true and every
 * table is empty).
 */
struct CompiledRegion
{
    /** Per dense node of the graph: 1 when the region absorbed it. */
    std::vector<uint8_t> interior;
    bool empty() const { return interior.empty(); }

    /** One boundary input stream: an external producer port with at
     *  least one interior consumer.  The simulator reroutes all its
     *  interior consumer edges to a single collapsed delivery. */
    struct Input
    {
        int32_t node = -1;  ///< External producer (dense id).
        int32_t port = 0;   ///< Its output port.
    };
    /** Input streams occupy rings [0, inputs.size()); interior result
     *  streams follow. */
    std::vector<Input> inputs;
    int32_t numRings = 0;
    /**
     * Decoded operands of every absorbed node, in dense-node order:
     * operand k of dense node d is operands[operandOff[d] + k], input
     * k of that node.  operandOff has one entry per dense node plus a
     * sentinel; a node outside the region has an empty range.  An
     * operand's position is also the index of its per-activation
     * consumption counter.
     */
    std::vector<int32_t> operandOff;
    std::vector<RegionSrc> operands;
    /** Absorbed merge count: sizes per-activation mode/time state. */
    int32_t numMerges = 0;
    /** Per input stream: original interior consumer edge count; a
     *  collapsed delivery stands for that many event-engine ones. */
    std::vector<int32_t> inputEdges;

    /** Cascade visits, indexed by scan position. */
    std::vector<RegionVisit> visits;
    std::vector<RegionConeOp> coneOps;
    /** Gate and merge-operand ranges (RegionVisit::gateOff). */
    std::vector<RegionSrc> gates;
    /** Ring -> scan positions of the visits reading it (cascade
     *  seeding), CSR layout.  A ring read by a fused chain member
     *  wakes the chain's sink.  Consumers after the ring's producer
     *  in scan order come first; seedBack[ring] starts the rest. */
    std::vector<int32_t> seedOff;
    std::vector<int32_t> seedBack;
    std::vector<int32_t> seedPos;
    /** Widest cone (sizes the evaluator's register scratch). */
    int32_t coneMax = 0;
    /** Ring -> consuming operand positions (ring garbage collection):
     *  entries index `operands`, whose consumption counters bound the
     *  reclaimable prefix. */
    std::vector<int32_t> gcOff;
    std::vector<int32_t> gcArg;
};

/**
 * Compile @p view's pure interior into its super-operator.  Graphs
 * with fewer than @p minOps candidates stay fully event-driven and get
 * an empty region (a one-op region only adds dispatch overhead).
 * Deterministic: the result depends only on the view, never on
 * iteration order of runtime containers.
 */
CompiledRegion compileRegions(const RegionGraphView& view, int minOps = 2);

} // namespace cash

#endif // CASH_SIM_REGION_COMPILER_H
