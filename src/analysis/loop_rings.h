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

#include <optional>
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
    std::vector<Node*> ops;       ///< Memory ops ordered by this ring.
    std::vector<Node*> exitEtas;  ///< Token etas taking the final state.
    /** Ops whose token output is not consumed by another ring op. */
    std::vector<Node*> danglingOps;
    /** The §6 generator/collector transformation already ran here. */
    bool alreadySplit = false;
};

/**
 * The live nodes of each hyperblock of a graph, in node order: what
 * findTokenRing() scans.  Built on first use; a pass keeps one per run
 * and calls invalidate() after a rewrite that creates nodes (a ring
 * split).  Nodes erased since the build are skipped at lookup.
 */
class HyperblockNodes
{
  public:
    explicit HyperblockNodes(const Graph& g) : g_(g) {}

    /** The nodes of hyperblock @p hb (0 <= hb < hyperblocks.size()). */
    const std::vector<Node*>& of(int hb);

    /** Drop the buckets; the next of() rebuilds them. */
    void invalidate() { built_ = false; }

  private:
    const Graph& g_;
    bool built_ = false;
    std::vector<std::vector<Node*>> byHb_;
};

/**
 * Find the ring for (@p hb, @p partition) in @p g when it has the
 * canonical shape the §6 transformations can rewrite:
 *  - @p hb is a self-loop hyperblock;
 *  - the ring merge exists with exactly one back input, an eta in hb;
 *  - the hyperblock contains no call or return touching the partition;
 *  - every ring op's token sources are the merge or other ring ops.
 * Returns nullopt otherwise.
 */
std::optional<TokenRing> findTokenRing(Graph& g, HyperblockNodes& nodes,
                                       int hb, int partition);

} // namespace cash

#endif // CASH_ANALYSIS_LOOP_RINGS_H
