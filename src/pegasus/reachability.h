/**
 * @file
 * Forward reachability in a Pegasus graph, ignoring loop back edges.
 *
 * The paper's optimizations guard against creating cycles with "a
 * reachability computation in the Pegasus DAG which ignores the
 * back-edges", amortized so a batch of rewrites stays cheap (§5).
 * Here each query is a depth-first walk along use lists that stops as
 * soon as it meets its target.  Visits are marked with a per-query
 * stamp in an array indexed by node id, so a query costs only the
 * nodes it visits, allocates nothing once the array has grown, and
 * stays correct across graph mutations between queries.
 */
#ifndef CASH_PEGASUS_REACHABILITY_H
#define CASH_PEGASUS_REACHABILITY_H

#include <cstdint>
#include <vector>

#include "pegasus/graph.h"

namespace cash {

class Reachability
{
  public:
    explicit Reachability(const Graph& g)
        : stamp_(static_cast<size_t>(g.idLimit()), 0)
    {
    }

    /**
     * Can a value produced by @p from flow (transitively, through any
     * ports, skipping back edges) into @p to?  Reflexive.
     */
    bool reaches(const Node* from, const Node* to);

  private:
    /** Mark @p n visited by the current query; false if it already was. */
    bool visit(const Node* n);

    std::vector<uint32_t> stamp_;
    uint32_t epoch_ = 0;
    std::vector<const Node*> work_;
};

} // namespace cash

#endif // CASH_PEGASUS_REACHABILITY_H
