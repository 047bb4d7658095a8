/**
 * @file
 * The CASH compilation pipeline: Mini-C source → AST → CFG →
 * hyperblocks → Pegasus → optimizations → spatial simulation.
 *
 * This is the library's primary entry point:
 * @code
 *   CompileResult r = compileSource(
 *       src, CompileOptions().opt(OptLevel::Full).jobs(8));
 *   DataflowSimulator sim(r.graphPtrs(), *r.layout,
 *                         MemConfig::realistic());
 *   SimResult out = sim.run("main", {});
 * @endcode
 *
 * Each function compiles to an independent Pegasus graph (§3), so the
 * optimization phase runs the per-function pipelines fork-join on
 * `jobs()` threads (support/parallel.h).  Results are deterministic:
 * stats, traces and graphs are merged in function-declaration order,
 * so the output is byte-identical at any job count.
 *
 * See docs/API.md for the stable public surface.
 */
#ifndef CASH_DRIVER_COMPILER_H
#define CASH_DRIVER_COMPILER_H

#include <memory>
#include <string>
#include <vector>

#include "analysis/modref.h"
#include "cfg/cfg.h"
#include "frontend/ast.h"
#include "frontend/layout.h"
#include "opt/pass.h"
#include "pegasus/graph.h"
#include "support/stats.h"

namespace cash {

/**
 * Compilation options, set either way:
 *   - field assignment:
 *     `CompileOptions co; co.level = OptLevel::Medium;`
 *   - fluent builder:
 *     `CompileOptions().opt(OptLevel::Full).jobs(8).trace(&rec)`
 *
 * Not an aggregate (user-declared constructor): positional
 * initialization does not compile, so field order is free.
 */
struct CompileOptions
{
    CompileOptions() = default;
    OptLevel level = OptLevel::Full;
    /** Run the graph verifier after construction and each pass. */
    bool verify = true;
    /**
     * Use read/write sets during token construction (§3.3).  Turned
     * off by OptLevel::None to produce the coarse program-order token
     * chain.
     */
    bool pointsToInConstruction = true;
    /**
     * Observability sink: when set and enabled, the pipeline records
     * per-phase spans and the pass manager records one span per pass
     * run (see docs/OBSERVABILITY.md).
     */
    TraceRecorder* tracer = nullptr;
    /**
     * Worker threads for per-function optimization: 0 = one per
     * hardware thread (the default), 1 = fully serial.  Output is
     * identical at any value; this only trades wall clock.
     */
    int numJobs = 0;
    /**
     * Custom pass pipeline: PassRegistry names run in order (to a
     * fixed point) instead of the standard pipeline of `level`.
     * Empty = standardPipelineNames(level).
     */
    std::vector<std::string> passNames;
    /**
     * Strict mode: disable pass isolation.  A pass that throws or
     * fails verification raises a FatalError immediately instead of
     * being rolled back, quarantined and reported in
     * CompileResult::diagnostics (the default, graceful behavior —
     * see docs/ROBUSTNESS.md).
     */
    bool strict = false;
    /**
     * Deterministic fault-injection plan (testing); null = the plan
     * from $CASH_INJECT, which is empty unless the variable is set.
     */
    const FaultPlan* faults = nullptr;
    /**
     * Run the independent memory-ordering soundness checker after
     * every pass (docs/ANALYSIS.md).  An error-severity finding is
     * handled like a verifier rejection: rollback + quarantine under
     * isolation, fatal in strict mode.  Off by default (it re-derives
     * the token closure per pass run); `cashc --verify-each-pass`
     * turns it on together with the structural verifier.
     */
    bool orderingChecks = false;
    /**
     * Interprocedural optimization: consume whole-program MOD/REF
     * summaries during construction and run `interproc_token_pruning`
     * in the Full pipeline (the TargetSpec `ipo` knob).  Off: calls
     * keep their conservative Top effects and the pruning pass is
     * dropped from the default pipeline (an explicit `passNames` list
     * is honored as given).  Summaries are still computed for
     * reporting either way.
     */
    bool interproc = true;

    // -- fluent builder -----------------------------------------------
    CompileOptions& opt(OptLevel l) { level = l; return *this; }
    CompileOptions& jobs(int n) { numJobs = n; return *this; }
    CompileOptions& trace(TraceRecorder* t) { tracer = t; return *this; }
    CompileOptions& verification(bool on) { verify = on; return *this; }
    CompileOptions& pointsTo(bool on)
    {
        pointsToInConstruction = on;
        return *this;
    }
    CompileOptions& passes(std::vector<std::string> names)
    {
        passNames = std::move(names);
        return *this;
    }
    CompileOptions& strictMode(bool on) { strict = on; return *this; }
    CompileOptions& orderingCheck(bool on)
    {
        orderingChecks = on;
        return *this;
    }
    CompileOptions& inject(const FaultPlan* plan)
    {
        faults = plan;
        return *this;
    }
    CompileOptions& interprocOpt(bool on)
    {
        interproc = on;
        return *this;
    }
};

/** Everything produced by one compilation. */
struct CompileResult
{
    std::shared_ptr<Program> ast;
    std::shared_ptr<MemoryLayout> layout;
    std::unique_ptr<CfgProgram> cfg;
    /** One Pegasus graph per function, in declaration order. */
    std::vector<std::unique_ptr<Graph>> graphs;
    /**
     * Whole-program MOD/REF summaries (analysis/modref.h), computed at
     * every level — `cashc --dump-summaries` and the stats-JSON
     * `analysis.summaries` block render from here.
     */
    std::shared_ptr<ModRefSummaries> summaries;
    StatSet stats;
    /**
     * Structured diagnostics from isolated pass failures, in
     * function-declaration order (deterministic at any job count).
     * Empty on a fully healthy compilation; each entry corresponds to
     * one rollback+quarantine (or one function whose construction
     * failed verification and was left unoptimized).
     */
    std::vector<PassFailure> diagnostics;

    /** True when no pass failed and nothing was quarantined. */
    bool ok() const { return diagnostics.empty(); }

    const Graph* graph(const std::string& name) const;
    std::vector<const Graph*> graphPtrs() const;

    /** Static memory-operation counts over all graphs. */
    int64_t staticLoads() const;
    int64_t staticStores() const;
    int64_t totalNodes() const;
};

/** Compile Mini-C source text through the full pipeline. */
CompileResult compileSource(const std::string& source,
                            const CompileOptions& options = {});

} // namespace cash

#endif // CASH_DRIVER_COMPILER_H
