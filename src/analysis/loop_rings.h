/**
 * @file
 * Discovery of per-partition memory token rings in loop hyperblocks
 * (paper §6, Figure 11): the merge-eta circuit carrying a partition's
 * memory state around a loop, the operations it orders, and the exit
 * etas delivering the final state.  The §6 loop-pipelining passes
 * rewrite these rings.
 */
#ifndef CASH_ANALYSIS_LOOP_RINGS_H
#define CASH_ANALYSIS_LOOP_RINGS_H

#include <cstdint>
#include <span>
#include <vector>

#include "pegasus/graph.h"

namespace cash {

struct TokenRing
{
    int hyperblock = -1;
    int partition = -1;
    Node* merge = nullptr;        ///< Ring entry merge.
    Node* backEta = nullptr;      ///< Eta feeding the merge's back input.
    PortRef backPred;             ///< Loop-continuation predicate.
    std::vector<PortRef> initialInputs;  ///< Non-back merge inputs.
    /** Memory ops ordered by this ring, in node-id order. */
    std::vector<Node*> ops;
    std::vector<Node*> exitEtas;  ///< Token etas taking the final state.
    /** Ops whose token output is not consumed by another ring op. */
    std::vector<Node*> danglingOps;
    /** The §6 generator/collector transformation already ran here. */
    bool alreadySplit = false;
};

/**
 * A pass's scratch for findTokenRing(): the live nodes of each
 * hyperblock of a graph, in node order, and the buffers of the ring's
 * token walks.  A pass keeps one across its runs, calls reset() at the
 * start of each run and invalidate() after a rewrite that creates
 * nodes (a ring split); the buckets are rebuilt on the next lookup
 * into the buffers of the last build.  Nodes erased since the build
 * are skipped at lookup.
 */
class HyperblockNodes
{
  public:
    /** Bind to @p g; the next of() rebuilds the buckets. */
    void
    reset(const Graph& g)
    {
        g_ = &g;
        built_ = false;
    }

    /** The nodes of hyperblock @p hb (0 <= hb < hyperblocks.size()). */
    std::span<Node* const> of(int hb);

    /** Drop the buckets; the next of() rebuilds them. */
    void invalidate() { built_ = false; }

  private:
    friend bool findTokenRing(Graph& g, HyperblockNodes& nodes, int hb,
                              int partition, TokenRing& ring);

    const Graph* g_ = nullptr;
    bool built_ = false;
    /** The buckets, hyperblock after hyperblock: hyperblock h holds
     *  byHb_[start_[h], start_[h + 1]). */
    std::vector<Node*> byHb_;
    std::vector<uint32_t> start_;
    /** findTokenRing()'s token-source and consumer walks. */
    std::vector<PortRef> sources_;
    std::vector<Node*> consumers_;
};

/**
 * Find the ring for (@p hb, @p partition) in @p g when it has the
 * canonical shape the §6 transformations can rewrite:
 *  - @p hb is a self-loop hyperblock;
 *  - the ring merge exists with exactly one back input, an eta in hb;
 *  - the hyperblock contains no call or return touching the partition;
 *  - every ring op's token sources are the merge or other ring ops.
 * Fills @p ring, reusing its lists, and returns true; returns false
 * (leaving @p ring unspecified) otherwise.  @p nodes must be reset()
 * to @p g.
 */
bool findTokenRing(Graph& g, HyperblockNodes& nodes, int hb, int partition,
                   TokenRing& ring);

} // namespace cash

#endif // CASH_ANALYSIS_LOOP_RINGS_H
