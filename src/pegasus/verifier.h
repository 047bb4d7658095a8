/**
 * @file
 * Structural verifier for Pegasus graphs.
 *
 * Run after construction and after every optimization pass when
 * verification is enabled; reports violated invariants:
 * input arity/typing per node kind, use-list consistency, acyclicity
 * of the forward graph (back edges excluded), and well-formed memory
 * operations (predicate + token inputs present).
 */
#ifndef CASH_PEGASUS_VERIFIER_H
#define CASH_PEGASUS_VERIFIER_H

#include <string>
#include <vector>

#include "pegasus/graph.h"

namespace cash {

/** Returns a list of problems; empty means the graph is well-formed. */
std::vector<std::string> verifyGraph(const Graph& g);

/**
 * Verify what the open journal of @p g (Graph::beginJournal()) can
 * have broken, given that @p g passed verifyGraph() when the journal
 * opened: the per-node checks over every node the journal saved or
 * created plus their input and user neighbours, before and after the
 * change, and a cycle search from the producers of the forward edges
 * the journal added.  Returns true exactly when verifyGraph(g) would
 * return no problems; on false, call verifyGraph() for the report.
 */
bool verifyJournaled(const Graph& g);

/**
 * Verify and raise a recoverable FatalError naming the first problem.
 * Callers that can degrade gracefully (the pass manager's rollback
 * path) use verifyGraph() directly instead.
 */
void verifyOrDie(const Graph& g, const std::string& when);

} // namespace cash

#endif // CASH_PEGASUS_VERIFIER_H
