/**
 * @file
 * Whole-program MOD/REF summaries over the CFG IR.
 *
 * The paper's memory-ordering construction treats every call as
 * reading and writing Top, so cross-call token edges serialize all
 * memory traffic at call boundaries.  This layer computes, per
 * function, the set of abstract locations it may read (REF) and
 * write (MOD) — including everything reachable through its callees —
 * and then resolves those summaries at every call site by translating
 * the callee's pointer-parameter external locations through the
 * caller's points-to bindings for the actual arguments.
 *
 * Structure (docs/ANALYSIS.md, "Interprocedural MOD/REF"):
 *   1. call graph over CfgProgram (Instr::callee), condensed with an
 *      iterative Tarjan SCC pass so recursion becomes a fixpoint over
 *      one component;
 *   2. bottom-up summary computation in reverse topological order of
 *      the condensation: Load/Store contribute their points-to rwSets,
 *      calls contribute the callee summary translated through the
 *      call site's argument location sets (Instr::argPts);
 *   3. per-call-site effective read/write sets stamped onto the call
 *      Instr (callReads/callWrites/callEffectsValid) for the builder,
 *      the partitioner and the `interproc_token_pruning` pass.
 *
 * Top only enters through genuine unknowns: a callee with no body, a
 * pointer argument whose points-to set is unknown, or an access whose
 * own rwSet is already Top (e.g. a pointer loaded back from memory).
 * Callee frame objects stay in the translated sets on purpose: two
 * unordered calls into the same function share its statically placed
 * frame, so their summaries must keep conflicting on it.
 *
 * The independent checker-side rederivation lives in
 * analysis/interproc.{h,cpp} and shares no code with this file.
 */
#ifndef CASH_ANALYSIS_MODREF_H
#define CASH_ANALYSIS_MODREF_H

#include <memory>
#include <string>
#include <vector>

#include "cfg/cfg.h"
#include "frontend/layout.h"

namespace cash {

/** Whole-function summary, in the function's own location space. */
struct FunctionModRef
{
    std::string name;
    const FuncDecl* decl = nullptr;
    LocationSet ref;          ///< May-read locations.
    LocationSet mod;          ///< May-write locations.
    bool recursive = false;   ///< Member of a nontrivial SCC/self-loop.
    int scc = -1;             ///< Condensation component id.
    int callSites = 0;        ///< Call instructions in the body.
};

/** One call site's resolved effects, in the caller's location space. */
struct CallSiteModRef
{
    std::string caller;
    std::string callee;
    int block = -1;           ///< Basic-block id of the call.
    int index = -1;           ///< Instruction index within the block.
    LocationSet reads;
    LocationSet writes;
};

/**
 * The computed program summaries.  Deterministic: functions in
 * declaration order, call sites in (function, block, index) order.
 */
class ModRefSummaries
{
  public:
    const std::vector<FunctionModRef>& functions() const
    {
        return functions_;
    }
    const std::vector<CallSiteModRef>& callSites() const
    {
        return callSites_;
    }

    /** Human-readable name of abstract location @p loc. */
    std::string locName(int loc) const;
    /** "{a,b,main.p}" rendering of @p s with symbolic names. */
    std::string setStr(const LocationSet& s) const;

    /** `cashc --dump-summaries` text: one line per function/site. */
    std::string dump() const;
    /** The `analysis.summaries` JSON object body (docs/SCHEMAS.md). */
    std::string json() const;

  private:
    friend ModRefSummaries computeModRef(CfgProgram&,
                                         const MemoryLayout&, bool);
    std::vector<FunctionModRef> functions_;
    std::vector<CallSiteModRef> callSites_;
    /** loc id → symbolic name (object or "func.param"). */
    std::vector<std::string> locNames_;
};

/**
 * Compute summaries for @p cfg (points-to must have run).  With
 * @p stampCalls, every call Instr gets callReads/callWrites/
 * callEffectsValid set so construction and optimization can consume
 * per-call-site effects; without it the program is left untouched
 * (dump-only use at levels where pruning is off).
 */
ModRefSummaries computeModRef(CfgProgram& cfg,
                              const MemoryLayout& layout,
                              bool stampCalls);

} // namespace cash

#endif // CASH_ANALYSIS_MODREF_H
