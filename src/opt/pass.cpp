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
        for (const PortRef& in : n->inputs()) {
            // A disconnected input is the verifier's to report.
            if (!in.valid())
                continue;
            s.edges++;
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
    factories_[registryKey(name)] = std::move(factory);
}

bool
PassRegistry::has(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return factories_.count(registryKey(name)) != 0;
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
        auto it = factories_.find(registryKey(name));
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

namespace {

using Clock = std::chrono::steady_clock;

int64_t
usSince(Clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - t0)
        .count();
}

/**
 * The manager's counters for one pipeline slot, tallied as integers
 * and written to the StatSet once per graph (flushCounters()) under
 * the keys a per-run ctx.count() would have used.
 */
struct PassTally
{
    int64_t runs = 0;              ///< opt.pass.<name>.runs
    int64_t timeUs = 0;            ///< opt.pass.<name>.time_us
    int64_t nodesRemoved = 0;      ///< opt.pass.<name>.nodes_removed
    int64_t edgesRemoved = 0;      ///< opt.pass.<name>.edges_removed
    int64_t tokenEdgesRemoved = 0; ///< ....token_edges_removed
    int64_t changed = 0;           ///< opt.<name>.changed
};

/**
 * measureIr() of @p g after a journaled run, from @p shape, its
 * measure when the journal opened: the nodes the journal saved are
 * counted out as they were and back in as they are, created nodes are
 * counted in, and an edge into an untouched node is recounted only
 * when its producer's output types changed.
 */
IrShape
journaledShape(const Graph& g, IrShape shape)
{
    // Saved nodes whose output types changed (rare: a rewrite in
    // place), for the token-ness of edges as they were.
    std::vector<std::pair<const Node*, const Node*>> retyped;
    g.forEachJournaled([&](const Node* now, const Node* before) {
        if (before && (now->kind != before->kind || now->type != before->type))
            retyped.emplace_back(now, before);
    });
    auto typeBefore = [&](const PortRef& in) {
        for (const auto& [now, before] : retyped)
            if (now == in.node)
                return before->outputType(in.port);
        return in.node->outputType(in.port);
    };
    auto typeNow = [](const PortRef& in) {
        return in.node->outputType(in.port);
    };
    auto count = [&](const Node* n, int64_t sign, auto typeOf) {
        if (n->dead)
            return;
        shape.nodes += sign;
        for (const PortRef& in : n->inputs()) {
            if (!in.valid())
                continue;
            shape.edges += sign;
            if (typeOf(in) == VT::Token)
                shape.tokenEdges += sign;
        }
    };
    g.forEachJournaled([&](const Node* now, const Node* before) {
        if (before)
            count(before, -1, typeBefore);
        count(now, 1, typeNow);
    });
    for (const auto& [now, before] : retyped)
        for (const Use& u : now->uses()) {
            if (u.user->dead || g.journaled(u.user))
                continue;
            const PortRef& in = u.user->input(u.index);
            shape.tokenEdges +=
                (now->outputType(in.port) == VT::Token ? 1 : 0) -
                (before->outputType(in.port) == VT::Token ? 1 : 0);
        }
    return shape;
}

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
    /** time.verify.us: the per-pass checks' wall time. */
    int64_t verifyUs = 0;
    /** One tally per pipeline slot. */
    std::vector<PassTally> tally;
};

/**
 * Write @p st's tallies to ctx.stats.  A pass name that fills two
 * pipeline slots sums into one key, as per-run counting did; a slot
 * that never ran leaves no keys.
 */
void
flushCounters(const std::vector<std::unique_ptr<Pass>>& passes,
              const GraphState& st, const OptContext& ctx)
{
    // Each key is spelled into one buffer, kept across slots.
    std::string key;
    auto count = [&](const char* head, const char* name, const char* tail,
                     int64_t v) {
        key.assign(head).append(name).append(tail);
        ctx.count(key, v);
    };
    for (size_t pi = 0; pi < st.tally.size(); pi++) {
        const PassTally& t = st.tally[pi];
        if (t.runs == 0)
            continue;
        const char* name = passes[pi]->name();
        count("opt.pass.", name, ".runs", t.runs);
        count("opt.pass.", name, ".time_us", t.timeUs);
        count("opt.pass.", name, ".nodes_removed", t.nodesRemoved);
        count("opt.pass.", name, ".edges_removed", t.edgesRemoved);
        count("opt.pass.", name, ".token_edges_removed",
              t.tokenEdgesRemoved);
        if (t.changed)
            count("opt.", name, ".changed", t.changed);
    }
    ctx.count("opt.verify.runs", st.verifyRuns);
    ctx.count("opt.journal.nodes_saved", st.nodesSaved);
    if (ctx.verifyAfterEachPass || ctx.checkOrdering)
        ctx.count("time.verify.us", st.verifyUs);
}

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
                GraphState& st, PassTally& tally)
{
    TraceRecorder* tracer =
        ctx.tracer && ctx.tracer->enabled() ? ctx.tracer : nullptr;

    IrShape before = st.shape ? *st.shape : measureIr(g);
    StatSet statsBefore;
    if (tracer && ctx.stats)
        statsBefore = *ctx.stats;

    uint64_t traceStart = tracer ? tracer->nowUs() : 0;
    Clock::time_point t0 = Clock::now();
    bool changed = pass.run(g, ctx);
    int64_t us = usSince(t0);
    IrShape after = g.journalTouched() ? journaledShape(g, before) : before;
    st.shape = after;
    StatSet passDelta;
    if (tracer && ctx.stats)
        passDelta = ctx.stats->diff(statsBefore);

    tally.runs++;
    tally.timeUs += us;
    tally.nodesRemoved += before.nodes - after.nodes;
    tally.edgesRemoved += before.edges - after.edges;
    tally.tokenEdgesRemoved += before.tokenEdges - after.tokenEdges;
    if (changed)
        tally.changed++;

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
            GraphState& st, PassTally& tally, bool* failed)
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
        changed = runInstrumented(pass, g, ctx, round, st, tally);
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
        const Clock::time_point checksStart = Clock::now();
        if (ctx.verifyAfterEachPass && recheck) {
            st.verifyRuns++;
            // A graph that passed verification needs only what the
            // journal touched re-verified; on a problem, the full
            // verifier writes the report.
            if (!st.clean || !verifyJournaled(g)) {
                std::vector<std::string> problems = verifyGraph(g);
                if (!problems.empty()) {
                    fail.code = ErrorCode::VerifyError;
                    fail.message =
                        problems[0] + " (" +
                        std::to_string(problems.size()) + " problems)";
                }
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
        st.verifyUs += usSince(checksStart);
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

} // namespace

int
optimizeGraph(Graph& g,
              const std::vector<std::unique_ptr<Pass>>& passes,
              OptContext& ctx)
{
    ScopedTimer whole(ctx.tracer, "optimize " + g.name, "opt.graph");
    const int maxRounds = 8;
    // Once a pass fails on this function it is quarantined: skipped
    // for the remaining rounds of this function only.
    std::vector<bool> quarantined(passes.size(), false);
    GraphState st;
    st.tally.resize(passes.size());
    int round = 0;
    bool changed = true;
    while (changed && round < maxRounds) {
        changed = false;
        round++;
        for (size_t pi = 0; pi < passes.size(); pi++) {
            if (quarantined[pi])
                continue;
            bool failed = false;
            changed |= runIsolated(*passes[pi], g, ctx, round, st,
                                   st.tally[pi], &failed);
            if (failed) {
                quarantined[pi] = true;
                ctx.count("opt.quarantined_passes");
            }
        }
    }
    g.compact();
    flushCounters(passes, st, ctx);
    whole.arg("rounds", round);
    return round;
}

} // namespace cash
