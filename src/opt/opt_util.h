/**
 * @file
 * Shared helpers for optimization passes: token-plumbing utilities
 * used by transitive reduction, token removal and the redundancy
 * eliminations, and the sweep worklist and counter tally of the
 * scalar cleanup passes (scalar_opts, dead_code).
 */
#ifndef CASH_OPT_OPT_UTIL_H
#define CASH_OPT_OPT_UTIL_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "opt/pass.h"
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
 * deduplicated, in walk order, written over @p out.  Callers keep
 * @p out across queries, so a walk allocates nothing once the lists
 * have grown.
 */
void expandTokenSources(PortRef in, std::vector<PortRef>& out);

/**
 * Buffers of the token-plumbing helpers below.  A pass keeps one
 * across its runs, so the walks allocate nothing once the lists have
 * grown.
 */
struct TokenScratch
{
    /** The expanded sources of the token input being edited. */
    std::vector<PortRef> sources;
    /** The input's new source list. */
    std::vector<PortRef> kept;
    /** Another node's expanded sources. */
    std::vector<PortRef> other;
    std::vector<Node*> consumers;
};

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
 * @p from's token output (through combines), written over @p out.
 */
void directTokenConsumers(const Node* from, std::vector<Node*>& out);

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

/**
 * Append @p src to the token sources of @p consumer (deduplicated);
 * @p scratch holds the expanded sources.
 */
inline void
addTokenSource(Graph& g, Node* consumer, PortRef src,
               std::vector<PortRef>& scratch)
{
    int idx = tokenConsumerInput(consumer);
    if (idx < 0)
        return;
    expandTokenSources(consumer->input(idx), scratch);
    for (const PortRef& s : scratch)
        if (s == src)
            return;
    scratch.push_back(src);
    setTokenInput(g, consumer, idx, scratch);
}

/**
 * Remove the token edge from @p src to @p n, whose token input @p ti
 * expands to scratch.sources (@p src among them), preserving the
 * transitive closure (Figure 5): @p n inherits @p src's own sources,
 * and @p n's token consumers gain a direct edge from @p src.
 */
void removeTokenEdge(Graph& g, Node* n, int ti, PortRef src,
                     TokenScratch& scratch);

/**
 * The nodes a sweep-to-fixed-point pass still has to visit: a bitset
 * over node ids, scanned in ascending id order, which is the order of
 * a full sweep over Graph::liveNodes().
 *
 * A sweep covers the ids below idLimit() when it begins, as a full
 * sweep covers the nodes that exist when it begins.  A node marked
 * ahead of the cursor is visited later in the same sweep, and a node
 * marked at or behind it (or created during the sweep) in the next
 * one.  A pass that marks every node whose rewrite decision may have
 * changed since its last visit therefore does exactly the rewrites of
 * a full sweep, in the same order, and skips only no-op visits.
 */
class SweepWorklist
{
  public:
    /** Start a run over @p g: every node of @p g is marked. */
    void reset(const Graph& g);

    /** Schedule @p n for a visit. */
    void
    mark(Node* n)
    {
        const size_t id = static_cast<size_t>(n->id);
        if (id >= bits_.size() * 64)
            bits_.resize(id / 64 + 1, 0);
        if (!dense_) {
            if (id >= byId_.size())
                byId_.resize(id + 1, nullptr);
            byId_[id] = n;
        }
        bits_[id >> 6] |= uint64_t{1} << (id & 63);
    }

    /** Start a sweep over the ids below @p g's idLimit(). */
    void
    beginSweep(const Graph& g)
    {
        cursor_ = 0;
        limit_ = static_cast<size_t>(g.idLimit());
    }

    /** Unmark and return the next marked node of this sweep; null at
     *  its end.  Dead nodes are returned too. */
    Node*
    next()
    {
        const size_t end = std::min(limit_, bits_.size() * 64);
        while (cursor_ < end) {
            const size_t w = cursor_ >> 6;
            const uint64_t word =
                bits_[w] & (~uint64_t{0} << (cursor_ & 63));
            if (!word) {
                cursor_ = (w + 1) << 6;
                continue;
            }
            const size_t id =
                (w << 6) + static_cast<size_t>(__builtin_ctzll(word));
            if (id >= end)
                break;
            bits_[w] &= ~(uint64_t{1} << (id & 63));
            cursor_ = id + 1;
            return dense_ ? g_->node(id) : byId_[id];
        }
        cursor_ = end;
        return nullptr;
    }

  private:
    const Graph* g_ = nullptr;
    /** Node i of the graph has id i (no slot was ever compacted
     *  away), so no id map is needed. */
    bool dense_ = true;
    std::vector<uint64_t> bits_;
    /** Node of each id, when not dense_. */
    std::vector<Node*> byId_;
    size_t cursor_ = 0;
    size_t limit_ = 0;
};

/**
 * A pass run's own counters, tallied as integers and written to
 * ctx.stats once, when the run ends or unwinds, under the keys that a
 * ctx.count() per event would have used.  A key never bumped is not
 * written, as it would not have been.
 */
template <size_t N>
class RunTally
{
  public:
    RunTally(const OptContext& ctx, const char* const (&keys)[N])
        : ctx_(ctx), keys_(keys)
    {
    }

    ~RunTally()
    {
        for (size_t i = 0; i < N; i++)
            if (counts_[i])
                ctx_.count(keys_[i], counts_[i]);
    }

    RunTally(const RunTally&) = delete;
    RunTally& operator=(const RunTally&) = delete;

    void bump(size_t key) { counts_[key]++; }

  private:
    const OptContext& ctx_;
    const char* const (&keys_)[N];
    int64_t counts_[N] = {};
};

} // namespace optutil
} // namespace cash

#endif // CASH_OPT_OPT_UTIL_H
