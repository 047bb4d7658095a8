/**
 * @file
 * Rule-based lint framework for Pegasus graphs (`cashc --analyze`).
 *
 * A lint rule inspects a finished (or mid-pipeline) graph and reports
 * structured findings; it never mutates anything.  Rules are published
 * through a name-keyed LintRegistry, mirroring the PassRegistry:
 * `runLints()` instantiates a rule set by name ('-' and '_' are
 * interchangeable) and runs it over a list of graphs in order,
 * producing a deterministic LintReport.
 *
 * The initial rule catalog (docs/ANALYSIS.md):
 *   ordering-soundness   error  conflicting memory ops not ordered by
 *                               a token path (the §4 invariant)
 *   redundant-token-edge warn   token edge implied by the transitive
 *                               closure (missed §3.4 reduction)
 *   dead-token-sink      warn   token plumbing from which no side
 *                               effect is reachable
 *   unprovable-pragma    warn   `#pragma independent` contradicted (or
 *                               not supported) by the access sets
 *   mergeable-residue    info   equivalent memory ops left unmerged
 *                               after §5.1
 *   summary-divergence   error  a call's optimizer-stamped MOD/REF
 *                               effects disagree with the independent
 *                               interprocedural rederivation
 *   prunable-call-edge   info   direct cross-call token edge whose
 *                               endpoint effects are provably disjoint
 *                               (interproc_token_pruning would drop it)
 */
#ifndef CASH_ANALYSIS_LINT_H
#define CASH_ANALYSIS_LINT_H

#include <functional>
#include <memory>
#include <mutex>
#include <map>
#include <string>
#include <vector>

#include "analysis/memloc.h"
#include "frontend/layout.h"
#include "pegasus/graph.h"
#include "support/stats.h"
#include "support/trace.h"

namespace cash {

class InterprocModel;
class OrderingChecker;

enum class LintSeverity
{
    Info,
    Warn,
    Error,
};

/** Stable lower-case name of @p s ("info", "warn", "error"). */
const char* lintSeverityName(LintSeverity s);

/** One structured finding from a lint rule. */
struct LintFinding
{
    std::string rule;
    LintSeverity severity = LintSeverity::Info;
    std::string func;        ///< Graph (function) name.
    int nodeA = -1;          ///< Primary node id.
    int nodeB = -1;          ///< Secondary node id (-1 when n/a).
    std::string location;    ///< Source location when known ("" else).
    std::string explanation;

    /** One-line rendering for logs / cashc stdout. */
    std::string str() const;

    /** JSON object (analysis.findings element, docs/ANALYSIS.md). */
    std::string json() const;
};

/**
 * Shared read-only inputs for a lint run.  `oracle` and `layout` are
 * the same analysis facts the builder used; `stats`/`tracer` are
 * optional observability sinks (counters land under "analysis.").
 */
struct LintContext
{
    const AliasOracle* oracle = nullptr;
    const MemoryLayout* layout = nullptr;
    StatSet* stats = nullptr;
    TraceRecorder* tracer = nullptr;
    /**
     * Independent interprocedural effect model (analysis/interproc.h);
     * null = interprocedural rules are skipped and the ordering
     * checker keeps calls at Top.
     */
    const InterprocModel* interproc = nullptr;
};

/**
 * One graph under lint, with the facts several rules read: built on
 * first use and shared by every rule runLints() runs on the graph.
 */
class LintGraph
{
  public:
    LintGraph(const Graph& g, const LintContext& ctx);
    ~LintGraph();

    const Graph& graph() const { return g_; }

    /**
     * The graph's ordering checker (analysis/ordering_checker.h), its
     * calls resolved through ctx.interproc: one token graph and one
     * pair of closures per graph, whichever rules ask.
     */
    OrderingChecker& checker() const;

  private:
    const Graph& g_;
    const LintContext& ctx_;
    mutable std::unique_ptr<OrderingChecker> checker_;
};

/** Base class of all lint rules.  Rules are stateless between runs. */
class LintRule
{
  public:
    virtual ~LintRule() = default;
    virtual const char* name() const = 0;
    virtual LintSeverity severity() const = 0;
    virtual const char* description() const = 0;
    /** Append findings for @p lg's graph to @p out (never mutates it). */
    virtual void run(const LintGraph& lg, const LintContext& ctx,
                     std::vector<LintFinding>& out) const = 0;
};

/**
 * Name-keyed registry of lint-rule factories, mirroring PassRegistry.
 * The built-in rules are pre-registered in global(); lookups treat '-'
 * and '_' interchangeably.  All methods are thread-safe.
 */
class LintRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<LintRule>()>;

    static LintRegistry& global();

    void registerRule(const std::string& name, Factory factory);
    bool has(const std::string& name) const;
    /** All registered names, sorted. */
    std::vector<std::string> names() const;
    /** Instantiate rule @p name; fatal() on unknown names. */
    std::unique_ptr<LintRule> create(const std::string& name) const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, Factory> factories_;
};

/** The default rule set, in severity-then-catalog order. */
std::vector<std::string> standardLintNames();

/** Aggregated result of one lint run. */
struct LintReport
{
    std::vector<LintFinding> findings;

    int64_t errors() const { return countSeverity(LintSeverity::Error); }
    int64_t warnings() const { return countSeverity(LintSeverity::Warn); }
    int64_t infos() const { return countSeverity(LintSeverity::Info); }

    int64_t countSeverity(LintSeverity s) const;
};

/**
 * Run the rules named in @p ruleNames (empty = standardLintNames())
 * over @p graphs in order.  Findings are ordered by (graph, rule,
 * node id) and are deterministic for a given graph list; counters
 * `analysis.<rule>.count`, `analysis.findings` and
 * `analysis.{errors,warnings,infos}` are bumped on ctx.stats and one
 * trace span per (graph, rule) is recorded when ctx.tracer is enabled.
 */
LintReport runLints(const std::vector<const Graph*>& graphs,
                    const LintContext& ctx,
                    const std::vector<std::string>& ruleNames = {});

} // namespace cash

#endif // CASH_ANALYSIS_LINT_H
