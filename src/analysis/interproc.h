/**
 * @file
 * Checker-side interprocedural effect model (docs/ANALYSIS.md,
 * "Interprocedural checking").
 *
 * The optimizer prunes cross-call token edges using the MOD/REF
 * summaries of analysis/modref.h.  Trusting those same summaries to
 * *check* the pruned graphs would be circular, so this model re-derives
 * everything from a different substrate, sharing no code with modref:
 *
 *   - effects are recomputed from the Pegasus graphs themselves, by
 *     abstract evaluation of each Load/Store *address input* (modref
 *     reads the CFG-level points-to rwSets instead);
 *   - the whole-program fixpoint is a plain global iteration to
 *     convergence (modref condenses the call graph with Tarjan SCCs
 *     and solves components bottom-up);
 *   - call-site resolution happens at *query* time against the current
 *     — possibly optimized — graph, evaluating the call's live
 *     argument inputs (modref stamps construction-time sets).
 *
 * Soundness across passes: the per-function summaries are computed
 * once over the construction-time graphs.  Passes only ever remove or
 * merge accesses, never invent new locations, so those summaries stay
 * over-approximations of every later pipeline stage, and one immutable
 * model can be shared by all parallel optimization workers.
 */
#ifndef CASH_ANALYSIS_INTERPROC_H
#define CASH_ANALYSIS_INTERPROC_H

#include <map>
#include <string>
#include <vector>

#include "analysis/memloc.h"
#include "frontend/layout.h"
#include "pegasus/graph.h"

namespace cash {

/**
 * Immutable whole-program effect model for the ordering checker and
 * the `--analyze` lints.  Thread-safe after construction: queries read
 * only the model's own tables and the graph passed in.
 */
class InterprocModel
{
  public:
    /**
     * Build from the construction-time graphs (declaration order),
     * the per-function pointer-parameter location table
     * (CfgProgram::paramLocation, same order) and the layout.
     */
    InterprocModel(const std::vector<const Graph*>& graphs,
                   const std::vector<std::vector<int>>& paramLocation,
                   const MemoryLayout& layout);

    /**
     * Effective may-read set of call node @p call inside @p g, in the
     * caller's location space, resolved against the current graph
     * state.  Top for unknown callees or unprovable argument bindings.
     */
    LocationSet callReadSet(const Graph& g, const Node* call) const;

    /** Effective may-write set; same conventions as callReadSet(). */
    LocationSet callWriteSet(const Graph& g, const Node* call) const;

    /**
     * Abstract points-to set of value @p v in @p g: the objects (and
     * pointer-parameter externals) the value may address.  Exposed for
     * the lint rules; Top when the value escapes the evaluator.
     */
    LocationSet pointsTo(const Graph& g, PortRef v) const;

  private:
    /**
     * The nodes on evalPtr()'s current walk path, by node id: a node
     * is on the path while its mark equals the walk's epoch.  Kept by
     * the caller across queries, so a walk allocates nothing once the
     * marks cover the graph.
     */
    class PathMarks
    {
      public:
        /** Start a top-level walk over @p g: no node is on the path. */
        void begin(const Graph& g);
        bool on(const Node* n) const { return mark_[n->id] == epoch_; }
        void enter(const Node* n) { mark_[n->id] = epoch_; }
        void leave(const Node* n) { mark_[n->id] = 0; }

      private:
        std::vector<uint32_t> mark_;
        uint32_t epoch_ = 0;
    };

    int functionIndex(const FuncDecl* decl) const;
    LocationSet evalPtr(const Graph& g, int fnIdx, PortRef v,
                        PathMarks& path) const;
    LocationSet addrSet(const Graph& g, int fnIdx, const Node* access,
                        PathMarks& path) const;
    LocationSet translate(const LocationSet& calleeSet, int calleeIdx,
                          const Graph& callerG, int callerIdx,
                          const Node* call, PathMarks& path) const;
    /** The calling thread's marks, for the public queries: the model
     *  is shared read-only by concurrent optimization workers. */
    static PathMarks& threadMarks();

    const MemoryLayout& layout_;
    std::vector<std::vector<int>> paramLoc_;
    std::map<const FuncDecl*, int> index_;
    std::vector<const FuncDecl*> decls_;
    int numObjects_ = 0;
    /** Frame-object ids per function (layout objects with func==decl). */
    std::vector<std::vector<int>> frameObjs_;
    /** Converged per-function summaries, own location space. */
    std::vector<LocationSet> ref_, mod_;
};

} // namespace cash

#endif // CASH_ANALYSIS_INTERPROC_H
