#include <algorithm>

#include "driver/compiler.h"

#include "analysis/interproc.h"
#include "analysis/points_to.h"
#include "cfg/lower.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "pegasus/builder.h"
#include "pegasus/verifier.h"
#include "support/parallel.h"

namespace cash {

const Graph*
CompileResult::graph(const std::string& name) const
{
    for (const auto& g : graphs)
        if (g->name == name)
            return g.get();
    return nullptr;
}

std::vector<const Graph*>
CompileResult::graphPtrs() const
{
    std::vector<const Graph*> out;
    for (const auto& g : graphs)
        out.push_back(g.get());
    return out;
}

int64_t
CompileResult::staticLoads() const
{
    int64_t n = 0;
    for (const auto& g : graphs)
        g->forEach([&](Node* node) {
            if (node->kind == NodeKind::Load)
                n++;
        });
    return n;
}

int64_t
CompileResult::staticStores() const
{
    int64_t n = 0;
    for (const auto& g : graphs)
        g->forEach([&](Node* node) {
            if (node->kind == NodeKind::Store)
                n++;
        });
    return n;
}

int64_t
CompileResult::totalNodes() const
{
    int64_t n = 0;
    for (const auto& g : graphs)
        n += g->numLive();
    return n;
}

namespace {

/**
 * Per-function output slot for the parallel optimization phase.  Each
 * worker records exclusively into its task's slot; the owner merges
 * the slots in function-declaration order, so stats and traces are
 * byte-identical at any job count.
 */
struct FuncOptSlot
{
    StatSet stats;
    TraceRecorder trace;
    std::vector<PassFailure> failures;
};

} // namespace

CompileResult
compileSource(const std::string& source, const CompileOptions& options)
{
    TraceRecorder* tracer = options.tracer;
    CompileResult r;
    ScopedTimer whole(tracer, "compile", "compile");
    whole.arg("level", optLevelName(options.level));

    // §7.1: CASH spends about half its time in the optimizers.  Each
    // layer's time.* key comes from the timer that owns its span; the
    // frontend's phases, construction included, nest inside its own.
    auto timer = [&](const char* name, const char* cat, const char* key) {
        return ScopedTimer(tracer, name, cat, &r.stats, key);
    };
    {
        ScopedTimer frontend =
            timer("frontend", "compile", "time.frontend.us");
        {
            ScopedTimer t = timer("parse+sema", "frontend", "time.parse.us");
            r.ast = std::make_shared<Program>(parseProgram(source));
            analyzeProgram(*r.ast);
        }
        {
            ScopedTimer t = timer("layout", "frontend", "time.layout.us");
            r.layout = std::make_shared<MemoryLayout>();
            r.layout->build(*r.ast);
        }
        {
            ScopedTimer t = timer("lower", "frontend", "time.lower.us");
            r.cfg = lowerProgram(*r.ast, *r.layout);
        }
        {
            ScopedTimer t =
                timer("points-to", "frontend", "time.points_to.us");
            runPointsTo(*r.cfg, *r.ast, *r.layout);
        }
        // Whole-program MOD/REF summaries: always computed (reporting
        // is level-independent); the per-call-site stamps that
        // construction and the pruning pass consume are only planted
        // when the ipo knob is on at Full.
        const bool interprocActive = options.interproc &&
                                     options.level == OptLevel::Full &&
                                     options.pointsToInConstruction;
        {
            ScopedTimer t = timer("modref", "frontend", "time.modref.us");
            r.summaries = std::make_shared<ModRefSummaries>(
                computeModRef(*r.cfg, *r.layout, interprocActive));
        }

        BuildOptions bo;
        bo.usePointsTo = options.pointsToInConstruction &&
                         options.level != OptLevel::None;
        bo.interprocEffects = interprocActive;
        ScopedTimer t = timer("build-pegasus", "frontend", "time.build.us");
        r.graphs = buildPegasus(*r.cfg, *r.ast, *r.layout, bo);
    }

    // ------------------------------------------------------------------
    // Per-function optimization, embarrassingly parallel: every
    // function owns an independent Pegasus graph, and the shared
    // analysis inputs (alias oracle, layout) are immutable from here
    // on.  One parallelFor() call runs a task per function (inline at
    // jobs=1); a task writes only its own function's graph and slot.
    // ------------------------------------------------------------------
    std::vector<std::string> pipelineNames =
        options.passNames.empty() ? standardPipelineNames(options.level)
                                  : options.passNames;
    // ipo=off drops the pruning pass from the *default* pipeline; an
    // explicit --passes list runs exactly as written.
    if (options.passNames.empty() && !options.interproc)
        pipelineNames.erase(
            std::remove(pipelineNames.begin(), pipelineNames.end(),
                        std::string("interproc_token_pruning")),
            pipelineNames.end());
    // Resolve the spec up front so unknown names fail before any
    // worker starts.
    PassRegistry::global().createPipeline(pipelineNames);

    // Independent interprocedural model for the per-pass ordering
    // checker: derived from the construction-time graphs (a sound
    // over-approximation of every later pipeline stage), shared
    // immutably by all workers.
    std::unique_ptr<InterprocModel> interprocModel;
    if (options.orderingChecks)
        interprocModel = std::make_unique<InterprocModel>(
            r.graphPtrs(), r.cfg->paramLocation, *r.layout);

    int jobs = options.numJobs > 0 ? options.numJobs : hardwareThreads();
    jobs = std::max(1, std::min<int>(jobs,
                                     static_cast<int>(r.graphs.size())));
    const bool traceOn = tracer && tracer->enabled();

    // Fault-injection plan: explicit plan, else $CASH_INJECT, else
    // nothing.  Immutable, shared by all workers.
    const FaultPlan* faults = options.faults;
    if (!faults && !FaultPlan::fromEnv().empty())
        faults = &FaultPlan::fromEnv();

    std::vector<FuncOptSlot> slots(r.graphs.size());
    auto optimizeOne = [&](size_t i) {
        Graph& g = *r.graphs[i];
        FuncOptSlot& slot = slots[i];
        if (traceOn) {
            slot.trace.syncClockTo(*tracer);
            // Track 0 is the owner thread; give every function its own
            // (deterministic) track.
            slot.trace.setTrackId(static_cast<int>(i) + 1);
            slot.trace.enable();
        }
        if (options.verify) {
            std::vector<std::string> problems;
            {
                ScopedTimer t(traceOn ? &slot.trace : nullptr,
                              "verify " + g.name, "opt.verify",
                              &slot.stats, "time.verify.us",
                              ScopedTimer::Write::Add);
                if (options.strict)
                    verifyOrDie(g, "after construction of " + g.name);
                else
                    problems = verifyGraph(g);
            }
            // A function whose construction already violates the
            // invariants is left unoptimized (passes assume a
            // well-formed graph); everything else proceeds.
            if (!problems.empty()) {
                PassFailure fail;
                fail.function = g.name;
                fail.pass = "<construction>";
                fail.code = ErrorCode::VerifyError;
                fail.message = problems[0] + " (" +
                               std::to_string(problems.size()) +
                               " problems)";
                slot.failures.push_back(std::move(fail));
                slot.stats.add("opt.construction_verify_failures");
                slot.stats.add("ir.nodes.initial", g.numLive());
                slot.stats.add("ir.nodes.final", g.numLive());
                return;
            }
        }
        slot.stats.add("ir.nodes.initial", g.numLive());

        // Per-worker pass instances: passes may keep scratch state.
        std::vector<std::unique_ptr<Pass>> pipeline =
            PassRegistry::global().createPipeline(pipelineNames);

        OptContext ctx;
        ctx.oracle = &r.cfg->oracle;
        ctx.layout = r.layout.get();
        ctx.stats = &slot.stats;
        ctx.tracer = traceOn ? &slot.trace : nullptr;
        ctx.verifyAfterEachPass = options.verify;
        ctx.checkOrdering = options.orderingChecks;
        ctx.interproc = interprocModel.get();
        ctx.isolatePasses = !options.strict;
        ctx.failures = &slot.failures;
        ctx.faults = faults;

        int rounds = optimizeGraph(g, pipeline, ctx);
        slot.stats.add("opt.rounds", rounds);
        if (options.verify && options.strict)
            verifyOrDie(g, "after optimizing " + g.name);
        slot.stats.add("ir.nodes.final", g.numLive());
    };

    {
        // Verification time counts toward optimization.
        ScopedTimer t = timer("optimize", "opt.phase", "time.optimize.us");
        t.arg("jobs", jobs);
        t.arg("functions", static_cast<int64_t>(r.graphs.size()));
        parallelFor(r.graphs.size(), jobs, optimizeOne);
        // Deterministic merge: function-declaration order, single
        // thread.
        for (FuncOptSlot& slot : slots) {
            r.stats.merge(slot.stats);
            for (PassFailure& fail : slot.failures)
                r.diagnostics.push_back(std::move(fail));
            if (traceOn)
                tracer->append(slot.trace);
        }
    }

    r.stats.set("ir.static.loads", r.staticLoads());
    r.stats.set("ir.static.stores", r.staticStores());
    return r;
}

} // namespace cash
