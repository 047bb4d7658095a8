/**
 * @file
 * Shared helpers for optimization passes: token-plumbing utilities
 * used by transitive reduction, token removal and the redundancy
 * eliminations.
 */
#ifndef CASH_OPT_OPT_UTIL_H
#define CASH_OPT_OPT_UTIL_H

#include <vector>

#include "pegasus/graph.h"

namespace cash {
namespace optutil {

/** Is @p n a node whose token output orders later operations? */
inline bool
isTokenProducer(const Node* n)
{
    return n->tokenOutPort() >= 0;
}

/**
 * Expand a token input through Combine chains into its ultimate
 * sources (side-effect nodes, ring merges, token etas, generators),
 * deduplicated, in walk order.
 */
std::vector<PortRef> expandTokenSources(PortRef in);

/**
 * Wire @p consumerInput of @p consumer to the given token sources,
 * creating a Combine when more than one (in @p consumer's hyperblock).
 */
inline void
setTokenInput(Graph& g, Node* consumer, int consumerInput,
              const std::vector<PortRef>& sources)
{
    CASH_ASSERT(!sources.empty(), "token input with no sources");
    if (sources.size() == 1) {
        g.setInput(consumer, consumerInput, sources[0]);
        return;
    }
    Node* c = g.newNode(NodeKind::Combine, VT::Token,
                        consumer->hyperblock);
    for (const PortRef& s : sources)
        g.addInput(c, s);
    g.setInput(consumer, consumerInput, {c, 0});
}

/**
 * "Must execute after" reachability in the token graph, staying inside
 * unconditional intra-hyperblock token flow: traverses Combine nodes
 * and side-effect nodes but stops at etas, merges and token
 * generators (their forwarding is conditional or cross-iteration).
 *
 * Returns true when @p to is transitively ordered after @p from.
 */
bool orderedAfter(const Node* from, const Node* to);

/**
 * All side-effect/eta/tokengen consumers ordered directly after
 * @p from's token output (through combines).
 */
std::vector<Node*> directTokenConsumers(const Node* from);

/**
 * The input slot of @p n that carries ordering tokens (eta/merge token
 * rings use slot 0), or -1 when @p n consumes no tokens.
 */
inline int
tokenConsumerInput(const Node* n)
{
    switch (n->kind) {
      case NodeKind::Load:
      case NodeKind::Store:
      case NodeKind::Call:
      case NodeKind::Return:
      case NodeKind::TokenGen:
        return n->tokenInIndex();
      case NodeKind::Eta:
      case NodeKind::Merge:
        return n->type == VT::Token ? 0 : -1;
      default:
        return -1;
    }
}

/** Append @p src to the token sources of @p consumer (deduplicated). */
inline void
addTokenSource(Graph& g, Node* consumer, PortRef src)
{
    int idx = tokenConsumerInput(consumer);
    if (idx < 0)
        return;
    std::vector<PortRef> srcs = expandTokenSources(consumer->input(idx));
    for (const PortRef& s : srcs)
        if (s == src)
            return;
    srcs.push_back(src);
    setTokenInput(g, consumer, idx, srcs);
}

} // namespace optutil
} // namespace cash

#endif // CASH_OPT_OPT_UTIL_H
