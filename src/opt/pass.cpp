#include "opt/pass.h"

#include <chrono>
#include <exception>
#include <optional>

#include "analysis/ordering_checker.h"
#include "pegasus/verifier.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace cash {

IrShape
measureIr(const Graph& g)
{
    IrShape s;
    g.forEach([&](Node* n) {
        s.nodes++;
        for (int i = 0; i < n->numInputs(); i++) {
            s.edges++;
            const PortRef& in = n->input(i);
            if (in.node->outputType(in.port) == VT::Token)
                s.tokenEdges++;
        }
    });
    return s;
}

std::string
PassFailure::str() const
{
    return std::string(errorCodeName(code)) + " in pass '" + pass +
           "' on '" + function + "' (round " + std::to_string(round) +
           "): " + message;
}

const char*
optLevelName(OptLevel level)
{
    switch (level) {
      case OptLevel::None: return "none";
      case OptLevel::Medium: return "medium";
      case OptLevel::Full: return "full";
    }
    return "?";
}

// ---------------------------------------------------------------------
// PassRegistry
// ---------------------------------------------------------------------

// Registration hooks, one per pass translation unit.  Called from
// global() below; central dispatch (rather than static-initializer
// self-registration) keeps the registration order deterministic and
// survives static-library linking, which would drop object files with
// no referenced symbol.
void registerScalarOptsPass(PassRegistry&);
void registerDeadCodePass(PassRegistry&);
void registerTransitiveReductionPass(PassRegistry&);
void registerTokenRemovalPass(PassRegistry&);
void registerImmutableLoadsPass(PassRegistry&);
void registerMemoryMergePass(PassRegistry&);
void registerStoreForwardingPass(PassRegistry&);
void registerDeadStorePass(PassRegistry&);
void registerLoopInvariantPass(PassRegistry&);
void registerReadonlySplitPass(PassRegistry&);
void registerMonotonePipeliningPass(PassRegistry&);
void registerLoopDecouplingPass(PassRegistry&);
void registerInterprocTokenPruningPass(PassRegistry&);

namespace {

/** Registry keys spell '-' and '_' interchangeably. */
std::string
normalizePassName(const std::string& name)
{
    std::string key = name;
    for (char& c : key)
        if (c == '-')
            c = '_';
    return key;
}

} // namespace

PassRegistry&
PassRegistry::global()
{
    static PassRegistry* registry = [] {
        auto* r = new PassRegistry();
        registerScalarOptsPass(*r);            // folding, CSE
        registerDeadCodePass(*r);              // §4.1
        registerTransitiveReductionPass(*r);   // §3.4
        registerTokenRemovalPass(*r);          // §4.3
        registerImmutableLoadsPass(*r);        // §4.2
        registerMemoryMergePass(*r);           // §5.1
        registerStoreForwardingPass(*r);       // §5.3
        registerDeadStorePass(*r);             // §5.2
        registerLoopInvariantPass(*r);         // §5.4
        registerReadonlySplitPass(*r);         // §6.1
        registerMonotonePipeliningPass(*r);    // §6.2
        registerLoopDecouplingPass(*r);        // §6.3
        registerInterprocTokenPruningPass(*r); // whole-program MOD/REF
        return r;
    }();
    return *registry;
}

void
PassRegistry::registerPass(const std::string& name, Factory factory)
{
    std::lock_guard<std::mutex> lock(mu_);
    factories_[normalizePassName(name)] = std::move(factory);
}

bool
PassRegistry::has(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return factories_.count(normalizePassName(name)) != 0;
}

std::vector<std::string>
PassRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [k, _] : factories_)
        out.push_back(k);
    return out;
}

std::unique_ptr<Pass>
PassRegistry::create(const std::string& name) const
{
    Factory factory;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = factories_.find(normalizePassName(name));
        if (it != factories_.end())
            factory = it->second;
    }
    if (!factory)
        fatal("unknown pass '" + name + "' (available: " +
              join(names(), ", ") + ")");
    return factory();
}

std::vector<std::unique_ptr<Pass>>
PassRegistry::createPipeline(const std::vector<std::string>& names) const
{
    std::vector<std::unique_ptr<Pass>> passes;
    passes.reserve(names.size());
    for (const std::string& name : names)
        passes.push_back(create(name));
    return passes;
}

// ---------------------------------------------------------------------
// Standard pipelines (Figure 19 configurations)
// ---------------------------------------------------------------------

std::vector<std::string>
standardPipelineNames(OptLevel level)
{
    std::vector<std::string> names = {"scalar_opts", "dead_code"};
    if (level == OptLevel::None)
        return names;

    // "Medium": memory parallelism (§4).
    names.insert(names.end(),
                 {"immutable_loads", "token_removal",
                  "transitive_reduction", "monotone_pipelining"});

    if (level == OptLevel::Full) {
        // Cross-call token pruning (whole-program MOD/REF), then
        // redundancy elimination (§5), then loop pipelining (§6).
        names.insert(names.end(),
                     {"interproc_token_pruning", "memory_merge",
                      "store_forwarding", "dead_store",
                      "loop_invariant", "readonly_split",
                      "loop_decoupling"});
    }
    names.insert(names.end(), {"scalar_opts", "dead_code"});
    return names;
}

std::vector<std::unique_ptr<Pass>>
standardPipeline(OptLevel level)
{
    return PassRegistry::global().createPipeline(
        standardPipelineNames(level));
}

namespace {

/**
 * What the pass manager knows about one graph between pass runs.
 * Every pass run is journaled (Graph::beginJournal()), so a run that
 * touched nothing provably left the graph as it was: its shape is
 * unchanged, and checks that are pure functions of the graph need not
 * run again once they have passed.
 */
struct GraphState
{
    /** The graph as it stands passed every enabled per-pass check. */
    bool clean = false;
    /** The graph's current shape, once measured. */
    std::optional<IrShape> shape;
    /** opt.verify.runs */
    int64_t verifyRuns = 0;
    /** opt.journal.nodes_saved */
    int64_t nodesSaved = 0;
};

/** Rolls the journal back on any exit that did not close it. */
class JournalGuard
{
  public:
    explicit JournalGuard(Graph& g) : g_(g) { g_.beginJournal(); }
    ~JournalGuard()
    {
        if (g_.journalOpen())
            g_.rollbackJournal();
    }
    JournalGuard(const JournalGuard&) = delete;
    JournalGuard& operator=(const JournalGuard&) = delete;

  private:
    Graph& g_;
};

/** Run one pass and record its span, wall time and IR/stats deltas. */
bool
runInstrumented(Pass& pass, Graph& g, OptContext& ctx, int round,
                GraphState& st)
{
    using Clock = std::chrono::steady_clock;
    TraceRecorder* tracer =
        ctx.tracer && ctx.tracer->enabled() ? ctx.tracer : nullptr;

    IrShape before = st.shape ? *st.shape : measureIr(g);
    StatSet statsBefore;
    if (tracer && ctx.stats)
        statsBefore = *ctx.stats;

    uint64_t traceStart = tracer ? tracer->nowUs() : 0;
    Clock::time_point t0 = Clock::now();
    bool changed = pass.run(g, ctx);
    int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                     Clock::now() - t0)
                     .count();
    IrShape after = g.journalTouched() ? measureIr(g) : before;
    st.shape = after;
    StatSet passDelta;
    if (tracer && ctx.stats)
        passDelta = ctx.stats->diff(statsBefore);

    const std::string prefix = std::string("opt.pass.") + pass.name();
    ctx.count(prefix + ".runs");
    ctx.count(prefix + ".time_us", us);
    ctx.count(prefix + ".nodes_removed", before.nodes - after.nodes);
    ctx.count(prefix + ".edges_removed", before.edges - after.edges);
    ctx.count(prefix + ".token_edges_removed",
              before.tokenEdges - after.tokenEdges);
    if (changed)
        ctx.count(std::string("opt.") + pass.name() + ".changed");

    if (tracer) {
        std::vector<TraceArg> args;
        args.emplace_back("graph", g.name);
        args.emplace_back("round", round);
        args.emplace_back("changed", changed ? 1 : 0);
        args.emplace_back("nodes_before", before.nodes);
        args.emplace_back("nodes_after", after.nodes);
        args.emplace_back("edges_before", before.edges);
        args.emplace_back("edges_after", after.edges);
        args.emplace_back("token_edges_before", before.tokenEdges);
        args.emplace_back("token_edges_after", after.tokenEdges);
        // Counters the pass itself bumped (e.g. its removal tally).
        for (const auto& [k, v] : passDelta.all())
            args.emplace_back(k, v);
        ctx.tracer->completeEvent(pass.name(), "opt", traceStart,
                                  tracer->nowUs() - traceStart,
                                  std::move(args));
    }
    return changed;
}

/**
 * Run one pass under fault isolation: journal, execute (with any
 * matching injected faults), verify, and on failure roll back and
 * report.  Returns whether the graph changed; sets @p failed.
 */
bool
runIsolated(Pass& pass, Graph& g, OptContext& ctx, int round,
            GraphState& st, bool* failed)
{
    *failed = false;
    const bool cleanBefore = st.clean;
    const std::optional<IrShape> shapeBefore = st.shape;
    JournalGuard journal(g);

    bool changed = false;
    PassFailure fail;
    try {
        if (ctx.faults &&
            ctx.faults->match("pass.throw", g.name, pass.name(), round))
            throw InjectedFault(std::string("injected fault in pass '") +
                                pass.name() + "' on '" + g.name + "'");
        changed = runInstrumented(pass, g, ctx, round, st);
        if (ctx.faults) {
            const FaultSpec* fs = ctx.faults->match(
                "graph.corrupt-token", g.name, pass.name(), round);
            if (fs) {
                std::string what = corruptTokenEdge(g, fs->seed);
                if (!what.empty())
                    trace(1, "fault injection: " + what);
                st.shape.reset();
            }
        }
        // The checks are pure functions of the graph: an untouched
        // graph that last passed them passes them again.
        const bool recheck = g.journalTouched() || !st.clean;
        if (ctx.verifyAfterEachPass && recheck) {
            st.verifyRuns++;
            std::vector<std::string> problems = verifyGraph(g);
            if (!problems.empty()) {
                fail.code = ErrorCode::VerifyError;
                fail.message =
                    problems[0] + " (" +
                    std::to_string(problems.size()) + " problems)";
            }
        }
        if (fail.code == ErrorCode::Ok && ctx.checkOrdering && recheck) {
            // Independent soundness oracle: the structural verifier
            // accepts any well-formed graph, but a pass can be
            // well-formed and still have dropped an ordering edge.
            std::vector<LintFinding> findings;
            OrderingChecker checker(g, ctx.oracle, ctx.layout,
                                    ctx.interproc);
            checker.check(findings);
            if (!findings.empty()) {
                fail.code = ErrorCode::AnalysisError;
                fail.message =
                    findings[0].explanation + " (" +
                    std::to_string(findings.size()) + " findings)";
            }
        }
    } catch (const std::exception& e) {
        // A FatalError, or a bug such as the std::out_of_range of a
        // bad Node::input() index: isolated alike.
        fail.code = ErrorCode::PassError;
        fail.message = e.what();
    }
    st.nodesSaved += static_cast<int64_t>(g.journalSavedNodes());
    if (fail.code == ErrorCode::Ok) {
        g.commitJournal();
        st.clean = true;
        return changed;
    }

    fail.function = g.name;
    fail.pass = pass.name();
    fail.round = round;
    if (!ctx.isolatePasses)
        fatal("pass '" + fail.pass + "' failed on '" + fail.function +
              "': " + fail.message);

    // Roll back to the last-good graph and report.  The journal
    // restores every node the pass changed and drops the ones it
    // created, so downstream passes see the graph as if the failed
    // pass had never run.
    g.rollbackJournal();
    st.clean = cleanBefore;
    st.shape = shapeBefore;
    *failed = true;
    ctx.count("opt.rollbacks");
    if (ctx.failures)
        ctx.failures->push_back(fail);
    if (ctx.tracer && ctx.tracer->enabled())
        ctx.tracer->completeEvent(
            std::string("rollback ") + pass.name(), "opt.rollback",
            ctx.tracer->nowUs(), 0,
            {{"graph", g.name},
             {"round", round},
             {"error", std::string(errorCodeName(fail.code))}});
    return false;
}

/** Shared fixed-point driver; @p levelName annotates the span. */
int
optimizeImpl(Graph& g,
             const std::vector<std::unique_ptr<Pass>>& passes,
             OptContext& ctx, const char* levelName)
{
    ScopedTimer whole(ctx.tracer, "optimize " + g.name, "opt.graph");
    const int maxRounds = 8;
    // Once a pass fails on this function it is quarantined: skipped
    // for the remaining rounds of this function only.
    std::vector<bool> quarantined(passes.size(), false);
    GraphState st;
    int round = 0;
    bool changed = true;
    while (changed && round < maxRounds) {
        changed = false;
        round++;
        for (size_t pi = 0; pi < passes.size(); pi++) {
            if (quarantined[pi])
                continue;
            bool failed = false;
            changed |=
                runIsolated(*passes[pi], g, ctx, round, st, &failed);
            if (failed) {
                quarantined[pi] = true;
                ctx.count("opt.quarantined_passes");
            }
        }
    }
    g.compact();
    ctx.count("opt.verify.runs", st.verifyRuns);
    ctx.count("opt.journal.nodes_saved", st.nodesSaved);
    whole.arg("rounds", round);
    if (levelName)
        whole.arg("level", levelName);
    return round;
}

} // namespace

int
optimizeGraph(Graph& g,
              const std::vector<std::unique_ptr<Pass>>& passes,
              OptContext& ctx)
{
    return optimizeImpl(g, passes, ctx, nullptr);
}

int
optimizeGraph(Graph& g, OptLevel level, OptContext& ctx)
{
    return optimizeImpl(g, standardPipeline(level), ctx,
                        optLevelName(level));
}

} // namespace cash
