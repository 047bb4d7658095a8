/**
 * @file
 * Event-driven execution of Pegasus graphs with asynchronous-handshake
 * (Kahn network) semantics — the paper's "coarse hardware simulator"
 * (§7.3).
 *
 * Every edge is an unbounded FIFO; a node fires when its required
 * inputs are available, consumes them, and delivers outputs to its
 * consumers after the operation latency.  Memory operations share a
 * MemorySystem (LSQ + caches + TLB); data moves at fire time (token
 * edges guarantee conflicting accesses are ordered), timing is modeled
 * separately.  Loops execute by streaming successive values through
 * merge/eta rings, which is what makes pipelining (§6) visible as
 * reduced cycle counts.
 *
 * The engine is built for throughput (see docs/SIMULATOR.md):
 *
 *   * Events are dispatched through a same-timestamp ready worklist,
 *     a fine calendar wheel for the next few hundred cycles and a
 *     coarse wheel of 256-cycle bands out to 2^16 cycles; only
 *     deliveries scheduled further ahead touch a binary heap.
 *     Ordering is bit-exact with a global (time, seq) priority queue.
 *   * Per-port FIFOs store their first two items inline (most ports
 *     hold at most one) and spill to a geometric ring buffer.
 *   * Per-graph metadata is flattened into CSR-style arrays (fifo
 *     slots, port clocks, consumer lists, input descriptors) and
 *     per-node readiness is tracked with a counter, so the hot path
 *     performs no map lookups and no per-input scans.
 *   * Finished activations are recycled through a free list, so
 *     call-heavy and recursive workloads run in memory proportional to
 *     the peak number of live activations, not the total spawned.
 */
#ifndef CASH_SIM_DATAFLOW_SIM_H
#define CASH_SIM_DATAFLOW_SIM_H

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "fabric/placer.h"
#include "frontend/layout.h"
#include "pegasus/graph.h"
#include "sim/memory_image.h"
#include "sim/memory_system.h"
#include "sim/region_compiler.h"
#include "support/fault_injection.h"
#include "support/stats.h"

namespace cash {

/**
 * Execution engine selection (docs/SIMULATOR.md, "Macro-firing
 * engine"):
 *
 *   * **Event** — every operator firing is a discrete event on the
 *     calendar queue.
 *   * **Macro** — each graph's pure interior (including order-robust
 *     mu-merges) is precompiled into a super-operator
 *     (region_compiler.h) evaluated as a streaming cascade over
 *     per-operand ring buffers with analytic (max-plus) timing;
 *     tokens, memory operations, calls and order-sensitive merges
 *     stay event-driven.  Exactness contract: return values and
 *     firing counts are always byte-identical to Event, cycle counts
 *     are byte-identical under perfect memory and may drift by a
 *     small bounded amount (4 cycles + 1%) under realistic memory,
 *     where collapsing within-cycle dispatch order can change
 *     same-cycle arbitration in the memory hierarchy.
 */
enum class SimEngine
{
    Event,
    Macro,
};

/** Stable lower_snake name ("event", "macro"). */
const char* simEngineName(SimEngine e);

/**
 * How a simulated invocation ended.  Simulation failures are ordinary
 * results, not exceptions: the engine never raises for conditions a
 * malformed or adversarial input graph can cause (docs/ROBUSTNESS.md).
 */
enum class SimOutcome
{
    Ok,
    /** No events pending but the root activation never returned. */
    Deadlock,
    /** maxEvents exceeded — livelock or runaway loop. */
    EventLimit,
    /** Simulated call stack exhausted. */
    StackOverflow,
    /** The named function (or a fired callee) was never compiled. */
    MissingGraph,
    /** Host wall-clock budget exceeded (see setWallBudgetMs). */
    Timeout,
};

/** Stable lower_snake name ("ok", "deadlock", ...). */
const char* simOutcomeName(SimOutcome o);

/** One node stuck waiting when the simulation deadlocked. */
struct StuckNode
{
    int activation = -1;
    std::string function;
    /** Node::str() rendering of the starved node. */
    std::string node;
    /** Starved inputs, e.g. "in1 (token)" — present inputs omitted. */
    std::vector<std::string> waitingOn;

    std::string str() const;
};

/**
 * Diagnostic dump captured at deadlock time: every partially-fed node
 * (some inputs arrived, others never will), plus memory-system state.
 * A node with *no* pending inputs is merely downstream of the stall
 * and is not reported.
 */
struct DeadlockReport
{
    uint64_t stallTime = 0;     ///< Simulated cycle of the stall.
    uint64_t lsqOccupancy = 0;  ///< In-flight LSQ entries at stall.
    std::vector<StuckNode> stuck;

    /** Multi-line human-readable rendering for logs / cashc stderr. */
    std::string str() const;
};

/** Result of one simulated invocation. */
struct SimResult
{
    uint32_t returnValue = 0;
    /** rootDoneTime when ok; the stall/stop time otherwise. */
    uint64_t cycles = 0;
    StatSet stats;
    SimOutcome outcome = SimOutcome::Ok;
    /** One-line description of the failure; empty when ok. */
    std::string error;
    /** Populated when outcome == Deadlock. */
    DeadlockReport deadlock;

    bool ok() const { return outcome == SimOutcome::Ok; }
};

class DataflowSimulator
{
  public:
    /**
     * @param graphs   all compiled procedures (callees resolved by name)
     * @param layout   memory layout used to build the graphs
     * @param cfg      memory-system configuration
     * @param fabric   tiled-fabric model + placements (docs/FABRIC.md);
     *                 null or trivial = the paper's idealized fabric,
     *                 with zero cost on any simulation path.  Must
     *                 outlive the simulator.
     */
    DataflowSimulator(const std::vector<const Graph*>& graphs,
                      const MemoryLayout& layout, const MemConfig& cfg,
                      SimEngine engine = SimEngine::Macro,
                      const FabricSession* fabric = nullptr);

    /** Invoke @p name with @p args; memory persists across calls. */
    SimResult run(const std::string& name,
                  const std::vector<uint32_t>& args);

    MemoryImage& memory() { return image_; }
    const MemoryImage& memory() const { return image_; }

    /** Reset memory, caches and the stack. */
    void reset();

    void setMaxEvents(uint64_t n) { maxEvents_ = n; }

    /**
     * Abort a run with SimOutcome::Timeout once it has consumed
     * @p ms milliseconds of host wall-clock time (0 = unlimited).
     * The deadline is polled every few thousand events, so the
     * overshoot is bounded by the cost of one polling window.  A
     * wall guard makes results host-dependent by design — it exists
     * for services and soak harnesses that must bound the damage a
     * pathological graph can do, not for reproducible measurement.
     */
    void setWallBudgetMs(int64_t ms) { wallBudgetMs_ = ms; }

    /**
     * Deterministic fault injection (testing): a plan with a
     * sim.drop-event point silently discards the matching delivery,
     * typically starving a consumer into a reportable deadlock.
     */
    void setFaultPlan(const FaultPlan* plan) { faults_ = plan; }

    /**
     * Observability sink: when set and enabled, run() records one span
     * per activation, LSQ-occupancy and queue-counter samples, all in
     * the simulated-cycles time domain (see docs/OBSERVABILITY.md).
     */
    void setTracer(TraceRecorder* tracer);

  private:
    struct GraphIndex;

    // --- static per-graph indexing -----------------------------------
    struct InputDesc
    {
        bool isConst = false;
        uint32_t constValue = 0;
    };
    /** One consumer endpoint: dense node plus its flat fifo slot, or
     *  (macro engine) kRegionNode plus the region input stream the
     *  delivery feeds. */
    struct Consumer
    {
        int32_t node = -1;
        int32_t slot = -1;
    };
    /** Consumer::node of a delivery into the graph's region. */
    static constexpr int32_t kRegionNode = -1;
    /**
     * Per-node hot metadata, packed so the dispatch path touches one
     * small record: flat fifo/port bases, the firing rule, and the
     * number of non-const inputs required to fire.
     */
    struct NodeHot
    {
        int32_t fifoBase = 0;
        int32_t portBase = 0;
        uint16_t need = 0;   ///< Non-const inputs (AND-firing nodes).
        uint8_t kind = 0;    ///< NodeKind.
        uint8_t latency = 0; ///< nodeLatency() (Arith only).
        uint8_t op = 0;      ///< Op (Arith only).
        uint8_t unary = 0;   ///< Copy/unary Op (Arith only).
        uint8_t pad[2] = {0, 0};
    };
    /** Cold per-node details, consulted at fire time. */
    struct NodeIndex
    {
        const Node* n = nullptr;
        /** For merges: forward and back-edge input slots. */
        std::vector<int> fwdInputs;
        std::vector<int> backInputs;
        int deciderIdx = -1;
        /** All back producers are etas in this hyperblock, so one item
         *  arrives on every back input each iteration (wait-for-all
         *  consumption is deterministic). */
        bool strictBack = false;
        /** For TokenGens: dense slot in Activation::tkCounter. */
        int tkSlot = -1;
        /** For Calls: resolved callee index (null until linked; a
         *  firing with an unresolved callee is a fatal error). */
        const GraphIndex* callee = nullptr;
    };
    struct GraphIndex
    {
        const Graph* g = nullptr;
        /** One entry per node plus a sentinel whose fifoBase is the
         *  total slot count, so node @c i has
         *  hot[i+1].fifoBase - hot[i].fifoBase inputs. */
        std::vector<NodeHot> hot;
        std::vector<NodeIndex> nodes;
        /** Flat input descriptors, indexed by fifo slot. */
        std::vector<InputDesc> inDesc;
        /** CSR consumer lists: consumers of output port @c p of node
         *  @c i are cons[consOff[hot[i].portBase+p] ..
         *  consOff[hot[i].portBase+p+1]).  A consumer whose node is
         *  kRegionNode feeds the region: its slot is a region input
         *  stream, not a fifo slot. */
        std::vector<int> consOff;
        std::vector<Consumer> cons;
        int numFifoSlots = 0;
        int numPortSlots = 0;
        /** Initial TokenGen counter values, one per tkSlot. */
        std::vector<int64_t> tkInit;
        /** Dense indices of g->paramNodes / g->initialToken. */
        std::vector<int> paramDense;
        int initialTokenDense = -1;
        /** One-shot initial values for merge inputs wired to consts,
         *  delivered to `to` (a fifo slot, or a region input stream
         *  when the merge was absorbed), in merge order. */
        struct MergeInit
        {
            Consumer to;
            uint32_t value = 0;
        };
        std::vector<MergeInit> mergeInits;
        /**
         * Macro engine: the graph's compiled super-operator
         * (region_compiler.h); empty under the event engine and for
         * graphs without one.  Deliveries into it carry kRegionNode
         * in their CSR consumer record, and deliver() feeds them
         * straight into the streaming cascade instead of the queue.
         * Interior nodes keep their hot[] entries but never receive
         * deliveries: their incoming edges are rerouted to the region
         * (or dropped, for interior edges) when the CSR consumer
         * lists are built.
         */
        CompiledRegion region;
        /** First per-visit firing counter of this graph's region in
         *  DataflowSimulator::regVisitFires_. */
        int32_t visitBase = 0;
        /**
         * Tiled fabric (docs/FABRIC.md): tile per dense node and the
         * region's tile (all of its operators share one), plus
         * per-CSR-consumer hop cost in cycles and credit channel id
         * (-1 = same tile or unbounded credits), parallel to `cons`.
         * All empty on the idealized fabric.
         */
        std::vector<int32_t> tileOf;
        int32_t regionTile = -1;
        std::vector<int32_t> consHop;
        std::vector<int32_t> consChan;
    };

    // --- dynamic state ------------------------------------------------
    /**
     * One FIFO slot.  `eos` marks an end-of-stream token: an eta whose
     * predicate is false emits EOS instead of a value, so loop merges
     * can deterministically switch between their initial and back-edge
     * input streams (gated-SSA mu-node discipline).  Only Merge nodes
     * consume EOS items; they are never forwarded.
     */
    struct Item
    {
        uint32_t value;
        bool eos;
    };

    /**
     * A 32-byte per-port FIFO with two inline 8-byte slots and a
     * power-of-two ring spill buffer.  Most ports hold at most one in-flight item,
     * so the common case never allocates; clear() keeps spill capacity
     * for activation recycling.  Items carry no time: a queued item's
     * time is its dispatch cycle, and region deliveries, which need
     * theirs, bypass the fifos (fireRegion).
     */
    class ItemFifo
    {
      public:
        ItemFifo() = default;
        ItemFifo(const ItemFifo&) = delete;
        ItemFifo& operator=(const ItemFifo&) = delete;
        ItemFifo(ItemFifo&& o) noexcept { moveFrom(o); }
        ItemFifo&
        operator=(ItemFifo&& o) noexcept
        {
            if (this != &o) {
                release();
                moveFrom(o);
            }
            return *this;
        }
        ~ItemFifo() { release(); }

        bool empty() const { return size_ == 0; }
        uint32_t size() const { return size_; }
        const Item& front() const { return data()[head_]; }

        void
        push_back(Item it)
        {
            if (size_ == cap_)
                grow();
            data()[(head_ + size_) & (cap_ - 1)] = it;
            size_++;
        }

        void
        pop_front()
        {
            head_ = (head_ + 1) & (cap_ - 1);
            size_--;
        }

        /** Drop contents, keep spill capacity (recycling path). */
        void
        clear()
        {
            head_ = 0;
            size_ = 0;
        }

      private:
        Item* data() { return cap_ == kInline ? inline_ : spill_; }
        const Item*
        data() const
        {
            return cap_ == kInline ? inline_ : spill_;
        }
        void
        grow()
        {
            uint32_t ncap = cap_ * 2;
            Item* nbuf = new Item[ncap];
            for (uint32_t i = 0; i < size_; i++)
                nbuf[i] = data()[(head_ + i) & (cap_ - 1)];
            release();
            spill_ = nbuf;
            cap_ = ncap;
            head_ = 0;
        }
        void
        release()
        {
            if (cap_ != kInline)
                delete[] spill_;
        }
        void
        moveFrom(ItemFifo& o)
        {
            if (o.cap_ == kInline) {
                inline_[0] = o.inline_[0];
                inline_[1] = o.inline_[1];
            } else {
                spill_ = o.spill_;
            }
            cap_ = o.cap_;
            head_ = o.head_;
            size_ = o.size_;
            o.cap_ = kInline;
            o.head_ = o.size_ = 0;
        }

        static constexpr uint32_t kInline = 2;  // power of two
        /** The inline items until the first spill, then the spill
         *  buffer (cap_ tells which), keeping the fifo at 32 bytes. */
        union
        {
            Item inline_[kInline];
            Item* spill_;
        };
        uint32_t cap_ = kInline;
        uint32_t head_ = 0;
        uint32_t size_ = 0;
    };
    static_assert(sizeof(ItemFifo) == 32, "two fifos per cache line");

    /**
     * A growable array of trivially copyable records (queued events)
     * whose append is a compare and a store, inlined at every call
     * site; only growth leaves the hot path.  clear() keeps capacity.
     */
    template <typename T>
    class RecordBuf
    {
      public:
        RecordBuf() = default;
        RecordBuf(const RecordBuf&) = delete;
        RecordBuf& operator=(const RecordBuf&) = delete;
        ~RecordBuf() { std::free(data_); }

        size_t size() const { return size_; }
        bool empty() const { return size_ == 0; }
        T* begin() { return data_; }
        T* end() { return data_ + size_; }
        const T& operator[](size_t i) const { return data_[i]; }
        void clear() { size_ = 0; }
        void
        push_back(const T& x)
        {
            if (size_ == cap_)
                grow();
            data_[size_++] = x;
        }
        void
        swap(RecordBuf& o) noexcept
        {
            std::swap(data_, o.data_);
            std::swap(size_, o.size_);
            std::swap(cap_, o.cap_);
        }

      private:
        __attribute__((noinline)) void
        grow()
        {
            const size_t ncap = cap_ ? cap_ * 2 : 8;
            T* nd = static_cast<T*>(std::realloc(data_, ncap * sizeof(T)));
            if (!nd)
                throw std::bad_alloc();
            data_ = nd;
            cap_ = ncap;
        }

        T* data_ = nullptr;
        size_t size_ = 0;
        size_t cap_ = 0;
    };

    /** One ring entry, interleaved so a read touches one cache line
     *  (eos widened to pad the record to 16 bytes). */
    struct RegItem
    {
        uint32_t val;
        uint32_t eos;
        uint64_t tim;
    };
    /**
     * One operand stream of a compiled super-operator: a power-of-two
     * ring of (value, completion time, EOS) triples addressed by
     * *absolute* indices — `head`/`tail` only grow, so the k-th item
     * ever pushed lives at `k & (capacity-1)` until reclaimed, and a
     * consumption counter doubles as a stream position.  32 bytes, so
     * two rings share a cache line; clear() keeps capacity for
     * activation recycling.
     */
    struct RegRing
    {
        RegRing() = default;
        RegRing(const RegRing&) = delete;
        RegRing& operator=(const RegRing&) = delete;
        RegRing(RegRing&& o) noexcept { *this = std::move(o); }
        RegRing&
        operator=(RegRing&& o) noexcept
        {
            std::swap(buf, o.buf);
            std::swap(head, o.head);
            std::swap(tail, o.tail);
            std::swap(mask, o.mask);
            std::swap(cap, o.cap);
            return *this;
        }
        ~RegRing() { delete[] buf; }

        RegItem* buf = nullptr;
        uint64_t head = 0;
        uint64_t tail = 0;
        /** Capacity - 1, cached so reads never recompute it. */
        uint32_t mask = 0;
        uint32_t cap = 0;

        uint64_t size() const { return tail - head; }
        __attribute__((always_inline)) void
        push(uint32_t v, uint64_t t, bool e)
        {
            if (tail - head == cap)
                grow();
            buf[tail & mask] = {v, e, t};
            tail++;
        }
        void
        clear()
        {
            head = tail = 0;
        }

      private:
        __attribute__((noinline)) void
        grow()
        {
            const uint32_t ncap = cap ? cap * 2 : 8;
            RegItem* nbuf = new RegItem[ncap];
            for (uint64_t k = head; k < tail; k++)
                nbuf[k & (ncap - 1)] = buf[k & mask];
            delete[] buf;
            buf = nbuf;
            cap = ncap;
            mask = ncap - 1;
        }
    };

    struct Activation
    {
        int id = -1;
        const GraphIndex* gi = nullptr;
        /** Flat per-input-slot FIFOs (see NodeHot::fifoBase). */
        std::vector<ItemFifo> fifo;
        /**
         * Monotonic delivery clock per (node, output port), flat (see
         * NodeHot::portBase): a port delivers the results of
         * successive firings in firing order, so a fast later result
         * (e.g. a nullified memory op) cannot overtake a slow earlier
         * one on the same wire.
         */
        std::vector<uint64_t> portClock;
        /** Non-empty non-const input fifos per node; an AND-firing
         *  node is ready exactly when readyCnt == NodeHot::need. */
        std::vector<uint16_t> readyCnt;
        /** Per-merge consumption state (mu-node protocol). */
        enum class MergeMode : uint8_t { Fwd, AwaitDecider, Back };
        std::vector<MergeMode> mergeMode;
        /** TokenGen state, one slot per NodeIndex::tkSlot. */
        std::vector<int64_t> tkCounter;
        /** Macro engine: super-operator operand streams (one per
         *  CompiledRegion ring) and per-operand consumption counters
         *  (absolute stream positions, indexed like
         *  CompiledRegion::operands).  Empty when the graph compiled
         *  no region. */
        std::vector<RegRing> regRing;
        std::vector<uint64_t> regConsumed;
        /** Macro engine: per absorbed merge (RegionVisit::mSlot), its
         *  mode machine (MergeMode values) and the time it last fired
         *  — mode transitions gate later firings like an extra
         *  operand. */
        struct RegMerge
        {
            uint64_t time = 0;
            uint8_t mode = 0;
        };
        std::vector<RegMerge> regMerge;
        /** Deferred region deliveries in regPending_ targeting this
         *  activation (blocks recycling until flushed). */
        int32_t regDirty = 0;
        Activation* parent = nullptr;
        int parentCallNode = -1;
        uint32_t frameBase = 0;
        uint32_t frameSize = 0;
        uint64_t startTime = 0;
        /** Queued events targeting this activation. */
        uint32_t inflight = 0;
        /** Children started and not yet finished. */
        uint32_t liveChildren = 0;
        bool finished = false;
        /** On the free list (storage may be reused). */
        bool pooled = false;
    };

    /** A queued delivery (32 bytes).  Time is implicit: ready_
     *  events are at now_ and each fine-wheel slot holds a single
     *  timestamp; coarse-wheel and overflow events carry theirs in
     *  TimedEvent. */
    struct Event
    {
        uint64_t seq = 0;
        Activation* act = nullptr;
        int32_t node = -1;
        int32_t slot = -1;  ///< Flat fifo slot of the target input.
        Item item;
    };
    static_assert(sizeof(Event) == 32, "queued events are 32 bytes");
    static_assert(std::is_trivially_copyable_v<Event>,
                  "RecordBuf relocates events with realloc");
    struct TimedEvent
    {
        uint64_t time = 0;
        Event e;
        bool operator>(const TimedEvent& o) const
        {
            return time != o.time ? time > o.time : e.seq > o.e.seq;
        }
    };

    void buildIndex(const Graph* g);
    void linkCallees();
    /** Macro engine: absorb one boundary delivery, arriving at
     *  @p when, into super-operator input stream @p slot.  Called
     *  synchronously from deliver() — region deliveries never enter
     *  the event queue; the cascade itself is deferred to
     *  flushRegions() at the next worklist drain, so a cycle's
     *  deliveries batch into one pass and host stack depth never
     *  tracks simulated recursion depth. */
    void fireRegion(Activation* a, int slot, Item it, uint64_t when);
    /** Mark the visits reading input stream @p slot pending in the
     *  cascade's current wave. */
    void seedRegion(Activation* a, int slot);
    /** One cascade over activation @p a's region: fire every pending
     *  visit as often as its streams allow. */
    void cascadeRegion(Activation* a);
    /** Drain regPending_: cascade every activation with deferred
     *  region deliveries.  Returns whether any cascade ran (the run
     *  loop re-checks ready_ before advancing time). */
    bool flushRegions();
    /** Advance @p ring's reclaim bound to its slowest consumer. */
    void gcRegRing(Activation* a, const CompiledRegion& R,
                   int32_t ring);

    Activation* startActivation(const GraphIndex& gi,
                                const std::vector<uint32_t>& args,
                                uint64_t when, Activation* parent,
                                int parentCallNode);
    /** Route one delivery by its consumer record: the region absorbs
     *  it when the record's node is kRegionNode (fireRegion), any
     *  other node gets it through the event queue (enqueue). */
    void deliver(Activation* a, Consumer to, Item item, uint64_t when);
    /** Queue a delivery to fifo @p slot of real node @p node. */
    void enqueue(Activation* a, int node, int slot, Item item,
                 uint64_t when);
    /** Deliver @p value on every consumer of (@p node, @p port), in
     *  CSR order, after the port's in-order clock and fabric costs. */
    void output(Activation* a, int node, int port, uint32_t value,
                uint64_t when, bool eos = false);
    bool ready(const Activation* a, int node) const;
    void tryFire(Activation* a, int node, uint64_t now);
    void fire(Activation* a, int node, uint64_t now);
    void fireMerge(Activation* a, int node, uint64_t now);
    /** Pop the front item of @p q (slot of @p node), maintaining the
     *  readiness counter. */
    void
    popItem(Activation* a, int node, ItemFifo& q)
    {
        q.pop_front();
        if (q.empty())
            a->readyCnt[node]--;
    }
    void finishActivation(Activation* a, uint32_t value, bool hasValue,
                          uint64_t now);
    void recycle(Activation* a);
    /** Drop all activation storage (end of run / fresh run). */
    void releaseActivations();
    /** Advance now_ to the next pending timestamp and move its events
     *  onto ready_; false when idle. */
    bool advanceTime();
    /** Move coarse band @p band (absolute band index) into the fine
     *  wheel. */
    void migrateBand(uint64_t band);
    void sampleQueueCounters(uint64_t now);
    /** Record a degraded outcome; the run loop stops at its next
     *  iteration and run() returns it in SimResult. */
    void failRun(SimOutcome outcome, std::string why);
    /** Scan live activations for partially-fed nodes (deadlock dump). */
    DeadlockReport buildDeadlockReport() const;

    std::map<std::string, GraphIndex> graphs_;
    const MemoryLayout& layout_;
    MemoryImage image_;
    MemorySystem memsys_;
    const SimEngine engine_;
    /** Regions compiled across all graphs (sim.region.count). */
    int64_t regionsTotal_ = 0;

    // --- tiled fabric (docs/FABRIC.md) -------------------------------
    /** Non-null only for a non-trivial fabric with placements. */
    const FabricSession* fabric_ = nullptr;
    bool fabricActive_ = false;
    /**
     * Credit state per directed tile-pair channel: linkCredits slots
     * per channel (chan * linkCredits + k), each holding the cycle
     * its in-flight transfer arrives (frees the credit).  A send
     * takes the earliest-free slot; when none is free at send time
     * the transfer stalls until one is (FIFO order per channel is
     * preserved — the earliest-free slot is monotone over sends).
     */
    std::vector<uint64_t> chanFree_;
    // Static placement quality, aggregated over all placed graphs.
    int64_t fabricCutEdges_ = 0;
    int64_t fabricTotalEdges_ = 0;
    int64_t fabricCutHops_ = 0;
    int64_t fabricMaxTileOps_ = 0;
    int64_t fabricUsedTiles_ = 0;
    int64_t fabricNodes_ = 0;
    // Per-run interconnect counters (fabric.* stats keys).
    uint64_t fabricCrossDeliveries_ = 0;
    uint64_t fabricHopCycles_ = 0;
    uint64_t fabricCreditStalls_ = 0;
    uint64_t fabricCreditStallCycles_ = 0;

    // --- macro-engine cascade scratch (reused, never shrunk) ---------
    /**
     * Pending scan positions (CompiledRegion::visits), one bit each,
     * sized to the widest region: the wave being drained and the next
     * wave.  The cascade drains the current wave with an ascending
     * count-trailing-zeros scan, so producers fire before in-wave
     * consumers.  A production marks each consumer not already
     * pending in either set: a forward consumer (later scan position)
     * in the current wave, where the scan still reaches it, a back
     * edge (through a merge) in the next one.  Both are all-zero
     * between cascades (the abort path clears them).
     */
    std::vector<uint64_t> regWaveBits_;
    std::vector<uint64_t> regNextBits_;
    /** Firings per region visit (merge or whole cone), one counter
     *  per scan position of every graph (GraphIndex::visitBase);
     *  cleared when run() starts, folded into fireCounts_ by kind
     *  when it ends. */
    std::vector<uint64_t> regVisitFires_;
    /** (activation, input slot) deliveries absorbed but not yet
     *  cascaded (the item is already in the ring); drained FIFO by
     *  flushRegions() when the run loop's worklist empties. */
    std::vector<std::pair<Activation*, int32_t>> regPending_;
    /** Cone register scratch (values + completion times), sized to
     *  the widest cone across graphs; only valid within one sink
     *  firing — cascades never nest (see fireRegion). */
    std::vector<uint32_t> regVal_;
    std::vector<uint64_t> regTim_;

    // --- event queue: ready worklist, fine wheel, coarse wheel, heap --
    /**
     * Time is cut into bands of kBandSize cycles.  With B the clock's
     * band, a delivery lands in the fine wheel for bands B and B+1, in
     * the coarse wheel for bands B+2 .. B+257, and in the overflow heap
     * beyond.  Entering band b moves band b+1 from the coarse wheel to
     * the fine one (advanceTime()), before any direct insert can reach
     * it, so every wheel slot is in seq order by construction.  The
     * sizes follow measured traffic: operator and cache latencies stay
     * within a band, the macro engine's cascade emissions (analytic
     * max-plus timestamps that run ahead of the dispatch clock) within
     * 2^15 cycles, so the heap is a correctness fallback that no
     * measured workload reaches.
     */
    static constexpr uint64_t kBandBits = 8;
    static constexpr uint64_t kBandSize = 1ull << kBandBits;
    static constexpr uint64_t kFineSize = 2 * kBandSize;
    static constexpr uint64_t kCoarseBands = 256;
    /** Events at exactly now_, in (time, seq) order. */
    RecordBuf<Event> ready_;
    size_t readyHead_ = 0;
    /** wheel_[t & (kFineSize-1)]: events at time t, for t in bands B
     *  and B+1; each slot holds a single timestamp. */
    std::array<RecordBuf<Event>, kFineSize> wheel_;
    /** Slot occupancy bits (bit s of word s/64 = slot s non-empty):
     *  advanceTime() finds the nearest pending slot with a circular
     *  count-trailing-zeros scan instead of probing slot by slot. */
    std::array<uint64_t, kFineSize / 64> wheelBits_{};
    uint64_t wheelCount_ = 0;
    /** coarse_[b & (kCoarseBands-1)]: the events of band b, in seq
     *  order, with occupancy bits and a total as for the fine wheel. */
    std::array<RecordBuf<TimedEvent>, kCoarseBands> coarse_;
    std::array<uint64_t, kCoarseBands / 64> coarseBits_{};
    uint64_t coarseCount_ = 0;
    /** Events beyond the coarse horizon; merged into the fine slot of
     *  their time when it is drained. */
    std::priority_queue<TimedEvent, std::vector<TimedEvent>,
                        std::greater<TimedEvent>>
        overflow_;
    uint64_t now_ = 0;
    uint64_t seq_ = 0;

    std::vector<std::unique_ptr<Activation>> activations_;
    /** Finished activations whose storage can be reused. */
    std::vector<Activation*> freePool_;
    int nextActId_ = 0;
    uint32_t stackPtr_ = MemoryLayout::kStackTop;

    bool done_ = false;
    uint32_t rootResult_ = 0;
    uint64_t rootDoneTime_ = 0;
    uint64_t maxEvents_ = 200000000;
    int64_t wallBudgetMs_ = 0;  ///< 0 = no wall-clock guard.
    std::chrono::steady_clock::time_point wallDeadline_;
    uint64_t cascadeVisits_ = 0;  ///< Wall-guard polling counter.
    bool wallExpired();

    /** Degraded-outcome state for the current run (see failRun). */
    SimOutcome runOutcome_ = SimOutcome::Ok;
    std::string runError_;

    const FaultPlan* faults_ = nullptr;
    uint64_t droppedEvents_ = 0;

    TraceRecorder* tracer_ = nullptr;

    // Per-run counters.
    uint64_t events_ = 0;
    uint64_t firings_ = 0;
    uint64_t dynLoads_ = 0;
    uint64_t dynStores_ = 0;
    uint64_t nullified_ = 0;  ///< Pred-false memory ops.
    uint64_t callsMade_ = 0;
    uint64_t bucketOps_ = 0;  ///< Deliveries via worklist/wheel.
    uint64_t heapOps_ = 0;    ///< Deliveries via the overflow heap.
    uint64_t actSpawned_ = 0;
    uint64_t actRecycled_ = 0;
    uint64_t liveActs_ = 0;
    uint64_t peakLiveActs_ = 0;
    /** Boundary deliveries absorbed into super-operator streams. */
    uint64_t regionsFired_ = 0;
    /** Interior firings evaluated by cascades (also in firings_, which
     *  therefore stays engine-invariant). */
    uint64_t regionOpsInlined_ = 0;
    /** Interior deliveries the event engine would have dispatched for
     *  the inlined ops (sim.events.equivalent = events_ + this). */
    uint64_t eqExtraEvents_ = 0;
    /** Firings per NodeKind, reported as "sim.fire.<kind>". */
    std::vector<uint64_t> fireCounts_;
    /** Add regVisitFires_ to fireCounts_, by node kind. */
    void foldRegionFires();
};

} // namespace cash

#endif // CASH_SIM_DATAFLOW_SIM_H
