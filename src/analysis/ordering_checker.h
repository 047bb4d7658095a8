/**
 * @file
 * Independent memory-ordering soundness checker (the §4 invariant).
 *
 * Every optimization in §4–§6 is only correct if one property
 * survives: *any two memory operations that may conflict stay ordered
 * by a token path*.  This checker re-derives that property from
 * scratch — it recomputes each side effect's read/write sets from the
 * MemoryLayout/AliasOracle and walks the raw token edges itself,
 * deliberately sharing no code with the opt/ helpers it is checking.
 *
 * Algorithm: collect every node that produces or consumes a token
 * value, build the token edge relation over them, condense strongly
 * connected components (token rings are cycles) and propagate
 * bitset reachability in reverse topological order — one bit per
 * token node, so the closure is O(V·E/64) rather than O(n³).  A
 * second, forward-only closure (back edges excluded) serves the
 * transitive-reduction lint.  Conflicting side-effect pairs are then
 * filtered by hyperblock reachability, alias-oracle overlap (with
 * const objects exempt from read sets — nothing writes them) and, as
 * a last resort, same-iteration symbolic address disjointness, and
 * every surviving pair must be connected by the closure.
 */
#ifndef CASH_ANALYSIS_ORDERING_CHECKER_H
#define CASH_ANALYSIS_ORDERING_CHECKER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "analysis/lint.h"
#include "analysis/memloc.h"
#include "frontend/layout.h"
#include "pegasus/graph.h"

namespace cash {

class InductionAnalysis;
class InterprocModel;
class SymbolicAddress;

/** Work counters of one checker run (bench_analyze_throughput). */
struct OrderingStats
{
    int64_t sideEffects = 0;      ///< Side-effect nodes examined.
    int64_t tokenNodes = 0;       ///< Nodes in the token graph.
    int64_t tokenEdges = 0;       ///< Token edges walked.
    int64_t pairsConsidered = 0;  ///< Side-effect pairs examined.
    int64_t pairsConflicting = 0; ///< Pairs that needed ordering.
    int64_t pairsSymbolic = 0;    ///< Pairs cleared symbolically.
};

/**
 * The checker for one graph.  Construction builds the token graph and
 * both reachability closures; queries are then O(1) bitset probes.
 * The graph must not be mutated while a checker is alive.  One checker
 * serves every query and check() run on its graph state.
 */
class OrderingChecker
{
  public:
    /**
     * @p interproc is the interprocedural effect model calls resolve
     * through (analysis/interproc.h): with one, calls get per-call-site
     * effective read/write sets — the mode that re-proves every
     * `interproc_token_pruning` decision; with null, calls stay at the
     * conservative Top.  Every caller states which it wants.
     */
    OrderingChecker(const Graph& g, const AliasOracle* oracle,
                    const MemoryLayout* layout,
                    const InterprocModel* interproc);
    ~OrderingChecker();

    /**
     * Run the ordering-soundness rule: report every side effect whose
     * token anchor is missing or ill-typed, and every may-conflicting
     * side-effect pair with no token path in either direction.
     */
    void check(std::vector<LintFinding>& out);

    /** Is there a token path a ⇝ b (back edges included)? */
    bool tokenReaches(const Node* a, const Node* b) const;

    /** Token path a ⇝ b using forward (non-back) edges only. */
    bool tokenReachesForward(const Node* a, const Node* b) const;

    /** Does a token path lead from @p n to any side effect? */
    bool tokenReachesSideEffect(const Node* n) const;

    /** Ordered in either direction? */
    bool
    ordered(const Node* a, const Node* b) const
    {
        return tokenReaches(a, b) || tokenReaches(b, a);
    }

    /** Provably address-disjoint within one iteration context? */
    bool symbolicallyDisjoint(const Node* a, const Node* b);

    /** Live side-effect nodes, in node-id order. */
    const std::vector<const Node*>& sideEffects() const
    {
        return sideEffects_;
    }

    /** All nodes of the token graph, in node-id order. */
    const std::vector<const Node*>& tokenNodes() const
    {
        return tokenNodes_;
    }

    /**
     * The non-Combine producers feeding @p n's token input, found by
     * walking through Combine nodes only (independent reimplementation
     * of the token-source expansion used by the passes), node-id
     * sorted.  A pure function of @p n's inputs.
     */
    static std::vector<const Node*> orderingSources(const Node* n);

    /** The recomputed effective read set of @p n (const-filtered). */
    LocationSet effectiveReadSet(const Node* n) const;

    /** The recomputed effective write set of @p n. */
    LocationSet effectiveWriteSet(const Node* n) const;

    const OrderingStats& stats() const { return stats_; }

  private:
    /** What check() needs of one side effect, computed once a run. */
    struct Effects
    {
        LocationSet reads;
        LocationSet writes;
        /** accessPreds(): must all be true for the access to happen. */
        std::vector<PortRef> preds;
    };

    void buildTokenGraph();
    void buildClosure(bool includeBackEdges,
                      std::vector<uint64_t>& matrix);
    void buildHbReach();
    void buildProductive();
    void buildGates();
    /** Token-graph index of @p n, or -1 outside the token graph. */
    int tokenIndex(const Node* n) const;
    bool productive(const Node* n) const;
    std::vector<PortRef> accessPreds(const Node* n) const;
    bool mayConflict(size_t i, size_t j);
    bool predsExclude(const Effects& a, const Effects& b);
    bool hbReaches(int from, int to) const;
    bool hbCoexist(const Node* a, const Node* b) const;
    bool returnExcludes(const Node* a, const Node* b) const;
    bool returnExcludesDir(const Node* x, const Node* y) const;
    bool reachBit(const std::vector<uint64_t>& matrix, const Node* a,
                  const Node* b) const;
    LocationSet refinedSet(const Node* n) const;

    const Graph& g_;
    const AliasOracle* oracle_;
    const MemoryLayout* layout_;
    const InterprocModel* interproc_;

    std::vector<int> index_;                 ///< node id → token index.
    std::vector<const Node*> tokenNodes_;
    std::vector<std::vector<int>> succAll_;  ///< All token edges.
    std::vector<std::vector<int>> succFwd_;  ///< Non-back token edges.
    int words_ = 0;                          ///< Bitset row width.
    std::vector<uint64_t> reachAll_;         ///< N×words_ closure.
    std::vector<uint64_t> reachFwd_;         ///< Forward-only closure.
    std::vector<uint64_t> sideEffectBits_;   ///< Token-graph side effects.

    std::vector<const Node*> sideEffects_;
    size_t hbCount_ = 0;
    std::vector<bool> hbReach_;              ///< hbCount_² reachability.
    std::vector<bool> productive_;           ///< Token node can ever fire.
    std::vector<uint64_t> gateEta_;          ///< Dominating-eta bitsets.

    /** An ordered pair of predicate ports, hashed by address. */
    struct PortPair
    {
        PortRef p, q;
        bool
        operator==(const PortPair& o) const
        {
            return p == o.p && q == o.q;
        }
    };
    struct PortPairHash
    {
        size_t
        operator()(const PortPair& k) const
        {
            auto h = [](const PortRef& r) {
                return std::hash<const void*>()(r.node) * 31 +
                       static_cast<size_t>(r.port);
            };
            return h(k.p) * 0x9e3779b97f4a7c15ull ^ h(k.q);
        }
    };

    std::vector<Effects> effects_;           ///< Parallel to sideEffects_.
    /** predDisjoint() per (p, q) port pair seen by check(). */
    std::unordered_map<PortPair, bool, PortPairHash> disjointMemo_;

    std::unique_ptr<InductionAnalysis> ivs_; ///< Lazy (symbolic only).
    std::unique_ptr<SymbolicAddress> sym_;

    OrderingStats stats_;
};

} // namespace cash

#endif // CASH_ANALYSIS_ORDERING_CHECKER_H
