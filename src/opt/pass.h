/**
 * @file
 * Optimization pass framework for Pegasus graphs.
 *
 * Passes are local graph rewriters (term rewriting, §2): each returns
 * whether it changed the graph, and the manager iterates the pipeline
 * to a fixed point.  Optimization levels match the paper's Figure 19
 * configurations.
 *
 * Passes are published through the name-keyed PassRegistry rather
 * than per-pass factory functions: pipelines are *specs* — ordered
 * lists of pass names — instantiated with createPipeline().  This is
 * what `cashc --passes=a,b,c` and embedders scripting their own
 * schedules go through; `standardPipelineNames()` exposes the paper's
 * Figure-19 schedules in the same currency.
 */
#ifndef CASH_OPT_PASS_H
#define CASH_OPT_PASS_H

#include <functional>
#include <memory>
#include <mutex>
#include <map>
#include <string>
#include <vector>

#include "analysis/memloc.h"
#include "frontend/layout.h"
#include "pegasus/graph.h"
#include "support/fault_injection.h"
#include "support/stats.h"
#include "support/trace.h"

namespace cash {

class InterprocModel;

/**
 * Structured diagnostic for one failed pass run: the pass either threw
 * (ErrorCode::PassError) or left the graph in a state the verifier
 * rejects (ErrorCode::VerifyError).  With isolation enabled the graph
 * was rolled back to its pre-pass state and the pass quarantined
 * for this function; compilation of everything else continued.
 */
struct PassFailure
{
    std::string function;
    std::string pass;
    int round = 0;
    ErrorCode code = ErrorCode::Ok;
    std::string message;

    /** One-line rendering for logs / cashc stderr. */
    std::string str() const;
};

/**
 * Per-worker state available to every pass.
 *
 * One OptContext belongs to exactly one optimization worker (one
 * function being optimized); it must never be shared between
 * concurrently running workers.  The analysis inputs (`oracle`,
 * `layout`) are immutable and safely shared by all workers; the
 * output sinks (`stats`, `tracer`) are exclusively owned by this
 * worker and merged by the driver in deterministic order afterwards
 * (see compileSource()).
 */
struct OptContext
{
    /** Shared, immutable: pairwise may-alias facts (read-only). */
    const AliasOracle* oracle = nullptr;
    /** Shared, immutable: the program's memory layout (read-only). */
    const MemoryLayout* layout = nullptr;
    /** Worker-owned counter sink. */
    StatSet* stats = nullptr;
    /** Worker-owned observability sink (may be disabled). */
    TraceRecorder* tracer = nullptr;
    bool verifyAfterEachPass = false;
    /**
     * Run the independent memory-ordering soundness checker
     * (analysis/ordering_checker.h) after every pass, in addition to
     * the structural verifier.  An error-severity finding is treated
     * exactly like a verifier rejection: rollback + quarantine under
     * isolation (ErrorCode::AnalysisError), fatal in strict mode.
     */
    bool checkOrdering = false;
    /**
     * Shared, immutable: interprocedural effect model for the
     * ordering checker (analysis/interproc.h).  When set, per-pass
     * checks resolve call effects per call site instead of Top — the
     * mode that keeps `interproc_token_pruning` honest under
     * --verify-each-pass.  Null = calls stay conservative.
     */
    const InterprocModel* interproc = nullptr;
    /**
     * Fault isolation: journal each pass run; on a pass throwing or
     * failing verification, roll the journal back, quarantine that
     * pass for this function, record a PassFailure and keep going.
     * When off (strict mode), the same failures raise a FatalError
     * instead, after the pass is rolled back.
     */
    bool isolatePasses = false;
    /** Worker-owned failure sink (may be null: failures not recorded). */
    std::vector<PassFailure>* failures = nullptr;
    /** Shared, immutable: fault-injection plan (null = no faults). */
    const FaultPlan* faults = nullptr;

    void
    count(const std::string& name, int64_t delta = 1) const
    {
        if (stats)
            stats->add(name, delta);
    }
};

/** Base class of all Pegasus optimization passes. */
class Pass
{
  public:
    virtual ~Pass() = default;
    virtual const char* name() const = 0;
    /** Returns true when the graph changed. */
    virtual bool run(Graph& g, OptContext& ctx) = 0;
};

/** Optimization levels (Figure 19 configurations). */
enum class OptLevel
{
    /** Coarse token graph, scalar cleanup only. */
    None,
    /**
     * Pointer analysis during construction, token-edge removal by
     * address disambiguation, transitive reduction, immutable loads
     * and induction-variable loop pipelining ("Medium").
     */
    Medium,
    /** Medium + redundancy elimination (§5) + read-only splitting and
     *  loop decoupling (§6). */
    Full,
};

const char* optLevelName(OptLevel level);

/** Size of a Pegasus graph, as reported in per-pass IR deltas. */
struct IrShape
{
    int64_t nodes = 0;       ///< Live nodes.
    int64_t edges = 0;       ///< Inputs over all live nodes.
    int64_t tokenEdges = 0;  ///< Edges carrying a VT::Token value.

    bool
    operator==(const IrShape& o) const
    {
        return nodes == o.nodes && edges == o.edges &&
               tokenEdges == o.tokenEdges;
    }
};

IrShape measureIr(const Graph& g);

/**
 * Name-keyed registry of pass factories.
 *
 * The twelve paper passes are pre-registered in global() under their
 * `Pass::name()` strings ("scalar_opts", "token_removal", ...);
 * lookups treat '-' and '_' interchangeably, so the CLI spelling
 * `--passes=token-removal` resolves too.  Embedders may register
 * additional passes (or shadow a built-in) at runtime.
 *
 * All methods are thread-safe: parallel compilation workers
 * instantiate their pipelines from the shared registry concurrently.
 */
class PassRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<Pass>()>;

    /** The process-wide registry, pre-loaded with the built-ins. */
    static PassRegistry& global();

    /** Register (or replace) the factory for @p name. */
    void registerPass(const std::string& name, Factory factory);

    bool has(const std::string& name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /** Instantiate the pass @p name; fatal() on unknown names. */
    std::unique_ptr<Pass> create(const std::string& name) const;

    /** Instantiate a pipeline spec in order; fatal() on unknown names. */
    std::vector<std::unique_ptr<Pass>> createPipeline(
        const std::vector<std::string>& names) const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, Factory> factories_;
};

/** The pass-name sequence of the standard pipeline for @p level. */
std::vector<std::string> standardPipelineNames(OptLevel level);

/** The instantiated standard pipeline for @p level. */
std::vector<std::unique_ptr<Pass>> standardPipeline(OptLevel level);

/**
 * Run @p passes over @p g until a fixed point (bounded rounds).
 * Returns the number of rounds executed.
 */
int optimizeGraph(Graph& g,
                  const std::vector<std::unique_ptr<Pass>>& passes,
                  OptContext& ctx);

/** Convenience: optimizeGraph with the standard pipeline of @p level. */
int optimizeGraph(Graph& g, OptLevel level, OptContext& ctx);

} // namespace cash

#endif // CASH_OPT_PASS_H
