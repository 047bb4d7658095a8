/**
 * @file
 * The Pegasus graph: node ownership and the mutation API used by the
 * builder and every optimization pass.
 */
#ifndef CASH_PEGASUS_GRAPH_H
#define CASH_PEGASUS_GRAPH_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pegasus/node.h"

namespace cash {

/** Static description of one hyperblock in a graph. */
struct HbInfo
{
    int id = -1;
    bool isLoop = false;      ///< Has a back edge onto itself.
    int loopDepth = 0;
    /** Ids of hyperblocks this one may transfer control to. */
    std::vector<int> successors;
};

/**
 * A Pegasus graph for one procedure.
 */
class Graph
{
  public:
    std::string name;
    const FuncDecl* decl = nullptr;
    int numParams = 0;
    bool hasFrame = false;     ///< Extra frame-base input after params.
    uint32_t frameBytes = 0;
    std::vector<HbInfo> hyperblocks;

    // Distinguished nodes.
    std::vector<Node*> paramNodes;   ///< Params (+ frame base last).
    Node* initialToken = nullptr;
    std::vector<Node*> returnNodes;

    /** Number of memory partitions (token rings) in this procedure. */
    int numPartitions = 0;
    /** Token-ring merge node per (hyperblock, partition); builder-set,
     *  read by the loop-pipelining passes. */
    std::map<std::pair<int, int>, Node*> ringMerge;

    // -----------------------------------------------------------------
    // Construction
    // -----------------------------------------------------------------

    Node* newNode(NodeKind kind, VT type, int hyperblock);
    Node* newConst(int64_t value, VT type, int hyperblock);
    Node* newArith(Op op, PortRef a, PortRef b, int hyperblock,
                   VT type = VT::Word);
    Node* newArith1(Op op, PortRef a, int hyperblock,
                    VT type = VT::Word);

    /** Convenience predicate constants. */
    Node* truePred(int hyperblock);
    Node* falsePred(int hyperblock);

    // -----------------------------------------------------------------
    // Mutation (keeps use lists consistent)
    // -----------------------------------------------------------------

    /** Append an input to @p n. */
    void addInput(Node* n, PortRef v, bool backEdge = false);

    /** Replace input @p index of @p n with @p v. */
    void setInput(Node* n, int index, PortRef v);

    /** Remove input @p index of @p n (shifts the rest down). */
    void removeInput(Node* n, int index);

    /** Remove a mu-merge's decider input (when its back inputs are
     *  gone and it degenerates to a plain merge). */
    void removeDecider(Node* merge);

    /** Redirect every use of @p from to @p to. */
    void replaceAllUses(PortRef from, PortRef to);

    /**
     * Mark @p n dead and detach all its inputs.  The node must have no
     * remaining uses.
     */
    void erase(Node* n);

    /** Drop dead nodes from the node list.  Live ids are unchanged,
     *  and later nodes never reuse an id.  Not under a journal. */
    void compact();

    // -----------------------------------------------------------------
    // Undo journal (pass isolation)
    // -----------------------------------------------------------------

    /**
     * Open an undo journal.  Until it is closed, every mutator above
     * that changes a node which existed when the journal opened first
     * saves a by-value copy of that node; nodes created since are
     * only marked.  rollbackJournal() copies the saved nodes back in
     * place and drops the new ones, so node addresses, ids and every
     * PortRef held across the rollback stay valid, and the graph is
     * indistinguishable from one the journaled code never touched.
     *
     * The touch() contract: code that writes a public field of a
     * pre-existing node directly, rather than through the mutators,
     * must call touch() on that node first.  Otherwise a rollback
     * does not restore the field and journalTouched() misses the
     * change.  Graph-level fields (params, returns, ring merges,
     * hyperblocks) belong to the builder and are not journaled.
     */
    void beginJournal();

    /** Keep every change since beginJournal() and close the journal. */
    void commitJournal();

    /** Undo every change since beginJournal() and close the journal. */
    void rollbackJournal();

    bool journalOpen() const { return journalOpen_; }

    /** Whether any node was changed or created since beginJournal(). */
    bool
    journalTouched() const
    {
        return !saved_.empty() || nodes_.size() != watermark_;
    }

    /** Pre-existing nodes saved by the open journal. */
    size_t journalSavedNodes() const { return saved_.size(); }

    /**
     * Run @p fn(node, before) over every node the open journal saved
     * or created: @p before is the saved pre-journal copy of a node
     * that existed when the journal opened, null for a created one.
     */
    template <typename Fn>
    void
    forEachJournaled(Fn&& fn) const
    {
        for (const SavedNode& s : saved_)
            fn(static_cast<const Node*>(s.slot), &s.before);
        for (size_t i = watermark_; i < nodes_.size(); i++)
            fn(static_cast<const Node*>(nodes_[i].get()),
               static_cast<const Node*>(nullptr));
    }

    /** Did the open journal save or create @p n? */
    bool
    journaled(const Node* n) const
    {
        return journalOpen_ && n->journalEpoch_ == epoch_;
    }

    /** Announce a direct write to a public field of @p n (see above). */
    void touch(Node* n) { save(n); }

    /** Exclusive upper bound of every node id ever assigned here. */
    int idLimit() const { return nextId_; }

    // -----------------------------------------------------------------
    // Inspection
    // -----------------------------------------------------------------

    /** All live nodes. */
    std::vector<Node*> liveNodes() const;

    /** Count of live nodes. */
    int numLive() const;

    /** Run @p fn over every live node, in node order. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const auto& n : nodes_)
            if (!n->dead)
                fn(n.get());
    }

    /** Total number of node slots (including dead). */
    size_t size() const { return nodes_.size(); }
    Node* node(size_t i) const { return nodes_[i].get(); }

    /**
     * The set of memory-token sources that feed @p n's token input,
     * looking through Combine chains.  Returns the side-effect nodes
     * (or ring merges / token generators / initial token) found.
     */
    std::vector<PortRef> tokenSources(const Node* n) const;

    /**
     * Rewire the consumers of a token output so that erasing a memory
     * op keeps the token graph connected: every consumer of
     * @p victim's token output instead consumes @p replacement.
     */
    void bypassToken(Node* victim, PortRef replacement);

  private:
    /** A pre-existing node as it was before the journal touched it. */
    struct SavedNode
    {
        Node* slot;
        Node before;
    };

    std::vector<std::unique_ptr<Node>> nodes_;
    /** Next node id; monotone, so ids stay unique across compact(). */
    int nextId_ = 0;

    bool journalOpen_ = false;
    /** Journal generation; a node saved in this one carries it. */
    uint32_t epoch_ = 0;
    size_t watermark_ = 0;
    int idWatermark_ = 0;
    std::vector<SavedNode> saved_;

    void unuse(Node* producer, Node* user, int index);

    /** Journal @p n on its first change since beginJournal(). */
    void
    save(Node* n)
    {
        if (journalOpen_ && n->journalEpoch_ != epoch_) {
            n->journalEpoch_ = epoch_;
            saved_.push_back({n, *n});
        }
    }
};

} // namespace cash

#endif // CASH_PEGASUS_GRAPH_H
