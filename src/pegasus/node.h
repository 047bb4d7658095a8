/**
 * @file
 * Pegasus dataflow-graph nodes (paper §3).
 *
 * A Pegasus graph is a directed graph whose nodes are operations and
 * whose edges carry values: 32-bit words, 1-bit predicates, or 0-bit
 * synchronization tokens (§3.2).  Nodes may have several output ports
 * (a load produces both a data value and a token).
 *
 * Input layout conventions (fixed per kind):
 *   Arith:    [a] or [a, b]
 *   Mux:      [p0, d0, p1, d1, ...]        (decoded mux, §3.1)
 *   Merge:    [in0, in1, ...]              (one per incoming HB edge)
 *   Eta:      [value, pred]
 *   Combine:  [t0, t1, ...]
 *   Load:     [pred, token, addr]          outputs: 0=data, 1=token
 *   Store:    [pred, token, addr, value]   outputs: 0=token
 *   Call:     [pred, token, arg...]        outputs: 0=result, 1=token
 *   Return:   [pred, token] or [pred, token, value]
 *   TokenGen: [pred, token]                outputs: 0=token (§6.3)
 *   Const/Param/InitialToken: no inputs
 */
#ifndef CASH_PEGASUS_NODE_H
#define CASH_PEGASUS_NODE_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/memloc.h"
#include "cfg/cfg.h"
#include "support/diagnostics.h"

namespace cash {

/** The three Pegasus value types. */
enum class VT
{
    Word,   ///< 32-bit data (integers and pointers)
    Pred,   ///< boolean predicate
    Token,  ///< 0-bit synchronization token
};

const char* vtName(VT vt);

enum class NodeKind
{
    Const,
    Param,
    Arith,
    Mux,
    Merge,
    Eta,
    Combine,
    InitialToken,
    Load,
    Store,
    Call,
    Return,
    TokenGen,
};

const char* nodeKindName(NodeKind k);

class Node;

/** A reference to one output port of a node. */
struct PortRef
{
    Node* node = nullptr;
    int port = 0;

    bool valid() const { return node != nullptr; }
    bool operator==(const PortRef& o) const
    {
        return node == o.node && port == o.port;
    }
    bool operator!=(const PortRef& o) const { return !(*this == o); }
};

/** A use record: node @p user reads this value at input @p index. */
struct Use
{
    Node* user = nullptr;
    int index = 0;
};

/**
 * One Pegasus operation.
 *
 * Inputs are ordered PortRefs; the matching Use lists on producers are
 * maintained by the Graph mutation API (never modify inputs directly).
 *
 * The public fields below may be written directly, but a pass that
 * writes one on a node it did not create in the same run must call
 * Graph::touch() on the node first, so the pass manager's undo
 * journal can restore it (see Graph::beginJournal()).
 */
class Node
{
  public:
    int id = -1;
    NodeKind kind = NodeKind::Const;
    Op op = Op::Copy;           ///< For Arith nodes.
    VT type = VT::Word;         ///< Type of output port 0.
    int64_t constValue = 0;     ///< For Const nodes.
    int paramIndex = -1;        ///< For Param nodes.
    int hyperblock = -1;        ///< Owning hyperblock id.

    // Memory operation fields (Load/Store/Call/Return).
    int size = 4;               ///< Access width.
    bool signExtend = true;
    LocationSet rwSet;
    int partition = -1;         ///< Memory partition (token ring) id.
    int memId = -1;             ///< Stable id of the source access.

    const FuncDecl* callee = nullptr;  ///< For Call nodes.
    /**
     * Call nodes: per-call-site effective effect sets resolved by the
     * interprocedural MOD/REF analysis (analysis/modref.h), copied
     * from the lowered call Instr by the builder.  Valid only when
     * callEffectsValid; consumed by the `interproc_token_pruning`
     * pass and the per-pass ordering checker.
     */
    LocationSet callReads, callWrites;
    bool callEffectsValid = false;
    int tkCount = 0;            ///< n for TokenGen tk(n).
    /**
     * Merge nodes in loop headers are mu-nodes: this input slot holds
     * the loop-continuation predicate that steers consumption between
     * the initial and back-edge input streams (-1 = plain merge).
     */
    int deciderIndex = -1;
    SourceLoc loc;
    bool dead = false;          ///< Removed from the graph.
    bool storeForwarded = false;///< §5.3 already applied to this load.
    bool hoisted = false;       ///< §5.4 produced this load.

    /** Ordered inputs. */
    const std::vector<PortRef>& inputs() const { return inputs_; }
    const PortRef& input(int i) const { return inputs_.at(i); }
    int numInputs() const { return static_cast<int>(inputs_.size()); }

    /** Back-edge flags parallel to inputs (loop-carried merge inputs). */
    bool inputIsBackEdge(int i) const { return backEdge_.at(i); }

    /** Uses of all output ports of this node. */
    const std::vector<Use>& uses() const { return uses_; }

    /** Number of output ports (2 for Load/Call, 1 otherwise, 0 none). */
    int numOutputs() const;

    /** Value type of output @p port. */
    VT outputType(int port) const;

    /** True for Load/Store nodes. */
    bool isMemoryAccess() const
    {
        return kind == NodeKind::Load || kind == NodeKind::Store;
    }

    /** Nodes that produce/consume tokens and order side effects. */
    bool
    isSideEffect() const
    {
        return isMemoryAccess() || kind == NodeKind::Call ||
               kind == NodeKind::Return;
    }

    /** Port of the token output (-1 when none). */
    int tokenOutPort() const;

    /** Index of the token input (-1 when none). */
    int tokenInIndex() const;

    /** Index of the predicate input (-1 when none). */
    int predInIndex() const;

    std::string str() const;

  private:
    friend class Graph;
    /** Graph journal generation that last saved or created this node. */
    uint32_t journalEpoch_ = 0;
    std::vector<PortRef> inputs_;
    std::vector<bool> backEdge_;
    std::vector<Use> uses_;
};

} // namespace cash

#endif // CASH_PEGASUS_NODE_H
