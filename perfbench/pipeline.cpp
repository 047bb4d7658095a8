/**
 * @file
 * The traced run's request pipeline: compileSource() and
 * runDriverRequest() re-composed from the public stage calls, with a
 * span around each call.  The output must stay byte-identical to the
 * library entry points (the workloads check it on every traced op), so
 * this file follows driver/compiler.cpp and driver/driver_lib.cpp
 * step by step for the options the benchmark uses.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "analysis/interproc.h"
#include "analysis/lint.h"
#include "analysis/points_to.h"
#include "bench.h"
#include "cfg/lower.h"
#include "fabric/placer.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "pegasus/builder.h"
#include "pegasus/verifier.h"
#include "sim/dataflow_sim.h"

namespace perfbench {

using namespace cash;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

Tracer::Span::Span(Tracer* t, const char* name, const char* layer) : t_(t)
{
    if (t_)
        t_->stack_.push_back({name, layer, Clock::now(), t_->rec_.nowUs(), 0});
}

Tracer::Span::~Span()
{
    if (!t_)
        return;
    Open o = t_->stack_.back();
    t_->stack_.pop_back();
    const double dur = msBetween(o.start, Clock::now());
    t_->total_[o.name] += dur;
    t_->self_[o.name] += dur - o.childMs;
    t_->layerSelf_[o.layer] += dur - o.childMs;
    if (!t_->stack_.empty())
        t_->stack_.back().childMs += dur;
    t_->rec_.completeEvent(o.name, o.layer, o.startUs,
                           t_->rec_.nowUs() - o.startUs);
}

double
Tracer::total(const std::string& name) const
{
    auto it = total_.find(name);
    return it == total_.end() ? 0 : it->second;
}

double
Tracer::self(const std::string& name) const
{
    auto it = self_.find(name);
    return it == self_.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------
// Re-composed pipeline
// ---------------------------------------------------------------------

namespace {

/** compileSource(), serial schedule, one span per stage call. */
CompileResult
tracedCompile(const std::string& source, const CompileOptions& options,
              Tracer& t)
{
    Clock::time_point t0 = Clock::now();
    CompileResult r;
    {
        Tracer::Span s(t, "frontend.parse", "frontend");
        r.ast = std::make_shared<cash::Program>(parseProgram(source));
        analyzeProgram(*r.ast);
        r.layout = std::make_shared<MemoryLayout>();
        r.layout->build(*r.ast);
    }
    {
        Tracer::Span s(t, "cfg.lower", "cfg");
        r.cfg = lowerProgram(*r.ast, *r.layout);
    }
    {
        Tracer::Span s(t, "analysis.points_to", "analysis");
        runPointsTo(*r.cfg, *r.ast, *r.layout);
    }
    const bool interprocActive = options.interproc &&
                                 options.level == OptLevel::Full &&
                                 options.pointsToInConstruction;
    {
        Tracer::Span s(t, "analysis.modref", "analysis");
        r.summaries = std::make_shared<ModRefSummaries>(
            computeModRef(*r.cfg, *r.layout, interprocActive));
    }
    BuildOptions bo;
    bo.usePointsTo =
        options.pointsToInConstruction && options.level != OptLevel::None;
    bo.interprocEffects = interprocActive;
    {
        Tracer::Span s(t, "pegasus.build", "pegasus");
        r.graphs = buildPegasus(*r.cfg, *r.ast, *r.layout, bo);
    }
    Clock::time_point t1 = Clock::now();

    std::vector<std::string> pipelineNames =
        options.passNames.empty() ? standardPipelineNames(options.level)
                                  : options.passNames;
    if (options.passNames.empty() && !options.interproc)
        pipelineNames.erase(
            std::remove(pipelineNames.begin(), pipelineNames.end(),
                        std::string("interproc_token_pruning")),
            pipelineNames.end());
    const FaultPlan* faults = options.faults;
    if (!faults && !FaultPlan::fromEnv().empty())
        faults = &FaultPlan::fromEnv();

    // One slot per function, merged in declaration order afterwards,
    // exactly like the serial path of compileSource().
    std::vector<StatSet> slots(r.graphs.size());
    for (size_t i = 0; i < r.graphs.size(); i++) {
        Graph& g = *r.graphs[i];
        StatSet& slot = slots[i];
        if (options.verify) {
            std::vector<std::string> problems;
            {
                Tracer::Span s(t, "pegasus.verify", "pegasus");
                problems = verifyGraph(g);
            }
            if (!problems.empty()) {
                PassFailure fail;
                fail.function = g.name;
                fail.pass = "<construction>";
                fail.code = ErrorCode::VerifyError;
                fail.message = problems[0] + " (" +
                               std::to_string(problems.size()) +
                               " problems)";
                r.diagnostics.push_back(std::move(fail));
                slot.add("opt.construction_verify_failures");
                slot.add("ir.nodes.initial", g.numLive());
                slot.add("ir.nodes.final", g.numLive());
                continue;
            }
        }
        slot.add("ir.nodes.initial", g.numLive());
        int rounds = 0;
        {
            Tracer::Span s(t, "opt.optimize", "opt");
            std::vector<std::unique_ptr<Pass>> pipeline =
                PassRegistry::global().createPipeline(pipelineNames);
            OptContext ctx;
            ctx.oracle = &r.cfg->oracle;
            ctx.layout = r.layout.get();
            ctx.stats = &slot;
            ctx.verifyAfterEachPass = options.verify;
            ctx.isolatePasses = !options.strict;
            ctx.failures = &r.diagnostics;
            ctx.faults = faults;
            rounds = optimizeGraph(g, pipeline, ctx);
        }
        slot.add("opt.rounds", rounds);
        slot.add("ir.nodes.final", g.numLive());
    }
    for (const StatSet& slot : slots)
        r.stats.merge(slot);
    Clock::time_point t2 = Clock::now();

    r.stats.set("ir.static.loads", r.staticLoads());
    r.stats.set("ir.static.stores", r.staticStores());
    auto us = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration_cast<std::chrono::microseconds>(b - a)
            .count();
    };
    r.stats.set("time.frontend.us", us(t0, t1));
    r.stats.set("time.optimize.us", us(t1, t2));
    return r;
}

} // namespace

std::string
renderReply(const DriverReply& rep, const DriverRequest& req,
            const std::string& label)
{
    StatsJsonMeta meta;
    meta.file = label;
    meta.run = req.runSpec;
    meta.mem = req.target.mem;
    meta.level = req.target.level;
    if (!req.target.fabric.trivial())
        meta.target = req.target.str();
    return statsJsonDocument(rep, meta, /*deterministic=*/true);
}

DriverReply
tracedRequest(const DriverRequest& req, const std::string& label,
              Tracer& t, std::string* rendered)
{
    Tracer::Span whole(t, "request", "driver");
    DriverReply rep;

    CompileOptions opts;
    opts.level = req.target.level;
    opts.verify = req.verify;
    opts.numJobs = req.jobs;
    opts.passNames = req.passNames;
    opts.strict = req.strict;
    opts.interproc = req.target.interproc;

    try {
        CompileResult r = tracedCompile(req.source, opts, t);
        rep.compileStats = r.stats;
        rep.diagnostics = r.diagnostics;
        if (!r.ok())
            rep.exitCode = 1;

        if (req.analyze) {
            std::optional<InterprocModel> model;
            {
                Tracer::Span s(t, "analysis.interproc_model", "analysis");
                model.emplace(r.graphPtrs(), r.cfg->paramLocation,
                              *r.layout);
            }
            LintContext lctx;
            lctx.oracle = &r.cfg->oracle;
            lctx.layout = r.layout.get();
            lctx.stats = &rep.compileStats;
            lctx.interproc = &*model;
            LintReport report;
            {
                Tracer::Span s(t, "analysis.lint", "analysis");
                report = runLints(r.graphPtrs(), lctx, req.analyzeRules);
            }
            rep.findings = report.findings;
            rep.ranAnalysis = true;
            rep.analysisErrors = report.errors();
            rep.analysisWarnings = report.warnings();
            rep.analysisInfos = report.infos();
            if (req.analyzeStrict && report.errors() > 0) {
                rep.exitCode = 2;
                rep.analysisBlockedRun = true;
            }
        }

        if (!req.runSpec.empty() && !rep.analysisBlockedRun) {
            std::string fname;
            std::vector<uint32_t> args;
            MemConfig mc = MemConfig::realistic(2);
            SimEngine engine = SimEngine::Macro;
            Status st = parseRunSpec(req.runSpec, &fname, &args);
            if (st)
                st = req.target.resolve(&mc, &engine);
            if (!st) {
                rep.fatal = st.message();
                rep.exitCode = 1;
            } else {
                rep.memName = mc.name;
                FabricSession fabric;
                const FabricSession* fabricPtr = nullptr;
                if (!req.target.fabric.trivial()) {
                    Tracer::Span s(t, "fabric.place", "fabric");
                    fabric = placeAll(r.graphPtrs(), req.target.fabric);
                    fabricPtr = &fabric;
                }
                std::optional<DataflowSimulator> sim;
                {
                    Tracer::Span s(t, "sim.setup", "sim");
                    sim.emplace(r.graphPtrs(), *r.layout, mc, engine,
                                fabricPtr);
                }
                if (req.maxEvents)
                    sim->setMaxEvents(req.maxEvents);
                SimResult out;
                {
                    Tracer::Span s(t, "sim.run", "sim");
                    out = sim->run(fname, args);
                }
                rep.ranSim = true;
                rep.simOutcome = out.outcome;
                rep.returnValue = out.returnValue;
                rep.cycles = out.cycles;
                rep.simStats = out.stats;
                if (out.ok()) {
                    rep.simStats.set("sim.returnValue",
                                     static_cast<int64_t>(out.returnValue));
                } else {
                    rep.simError = out.error;
                    if (out.outcome == SimOutcome::Deadlock)
                        rep.deadlockText = out.deadlock.str();
                    rep.exitCode = 1;
                }
            }
        }
    } catch (const FatalError& e) {
        rep.fatal = e.what();
        rep.exitCode = 1;
    }
    {
        Tracer::Span s(t, "driver.render", "driver");
        *rendered = renderReply(rep, req, label);
    }
    return rep;
}

// ---------------------------------------------------------------------
// Per-layer report
// ---------------------------------------------------------------------

void
LayerReport::addPassTimes(const StatSet& compileStats)
{
    for (const auto& [k, v] : compileStats.all()) {
        if (k.rfind("opt.pass.", 0) != 0 || k.size() < 8 ||
            k.compare(k.size() - 8, 8, ".time_us") != 0)
            continue;
        passBodyMs += static_cast<double>(v) / 1000.0;
        if (k == "opt.pass.transitive_reduction.time_us")
            transitiveReductionMs += static_cast<double>(v) / 1000.0;
    }
}

void
LayerReport::emit(Report& r, const Tracer& t, const Counts& c) const
{
    const double n = tracedOps > 0 ? static_cast<double>(tracedOps) : 1;
    auto perOp = [&](const char* metric, const char* span) {
        r.add(metric, t.total(span) / n, "ms");
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    perOp("frontend.parse_ms", "frontend.parse");
    perOp("cfg.lower_ms", "cfg.lower");
    perOp("analysis.points_to_ms", "analysis.points_to");
    perOp("analysis.modref_ms", "analysis.modref");
    perOp("analysis.lint_ms", "analysis.lint");
    r.add("analysis.errors", static_cast<double>(c.analysisErrors), "count");
    perOp("pegasus.build_ms", "pegasus.build");
    r.add("pegasus.nodes_built", static_cast<double>(c.nodesInitial),
          "nodes");
    const double optimize = t.total("opt.optimize") / n;
    r.add("opt.optimize_ms", optimize, "ms");
    r.add("opt.pass_body_ms", passBodyMs / n, "ms");
    r.add("opt.transitive_reduction_ms", transitiveReductionMs / n, "ms");
    r.add("opt.manager_ms", optimize - passBodyMs / n, "ms");
    r.add("opt.pass_runs", static_cast<double>(c.passRuns), "runs");
    r.add("opt.useful_run_ratio",
          ratio(static_cast<double>(c.passChanged),
                static_cast<double>(c.passRuns)),
          "ratio");
    r.add("opt.rollbacks", static_cast<double>(c.rollbacks), "count");
    perOp("sim.setup_ms", "sim.setup");
    perOp("sim.run_ms", "sim.run");
    r.add("sim.events", static_cast<double>(c.events), "events");
    r.add("sim.events_per_s",
          ratio(simEventsTraced, t.total("sim.run") / 1000.0), "events/s");
    r.add("sim.heap_ops", static_cast<double>(c.heapOps), "count");
    r.add("sim.engine_cycle_mismatches",
          static_cast<double>(c.engineMismatches), "count");
    r.add("mem.l1_miss_ratio",
          ratio(static_cast<double>(c.l1Misses),
                static_cast<double>(c.memAccesses)),
          "ratio");
    r.add("mem.lsq_port_stalls", static_cast<double>(c.lsqPortStalls),
          "count");
    perOp("fabric.place_ms", "fabric.place");
    r.add("fabric.cut", static_cast<double>(c.fabricCut), "edges");
    r.add("fabric.hop_cycles", static_cast<double>(c.fabricHopCycles),
          "cycles");
    perOp("driver.render_ms", "driver.render");
    const double request = t.total("request") / n;
    const double unattributed = t.self("request") / n;
    r.add("driver.request_ms", request, "ms");
    r.add("driver.unattributed_ms", unattributed, "ms");
    r.add("driver.unattributed_share", ratio(unattributed, request),
          "ratio");
    r.add("service.rtt_overhead_ms", rttOverheadMs, "ms");
    r.add("service.cache_hit_ratio", cacheHitRatio, "ratio");
    r.add("service.queue_peak", queuePeak, "count");
    r.add("trace.overhead_ms", tracedP50 - untracedP50, "ms");

    std::printf("traced ops: %lld; request %.3f ms/op, unattributed "
                "%.4f ms/op (%.2f%% of the request)\n",
                static_cast<long long>(tracedOps), request, unattributed,
                100 * ratio(unattributed, request));
    std::printf("tracing overhead: traced p50 %.3f ms - untraced p50 "
                "%.3f ms = %.3f ms\n",
                tracedP50, untracedP50, tracedP50 - untracedP50);
}

void
writeTrace(const TraceRecorder& rec, const Tracer& t,
           const std::string& workload, uint64_t seed, int64_t tracedOps)
{
    const double n = tracedOps > 0 ? static_cast<double>(tracedOps) : 1;
    double sum = 0;
    for (const auto& [layer, ms] : t.layerSelfMs())
        sum += ms;
    std::printf("%-10s %14s %8s\n", "layer", "self ms/op", "share");
    for (const auto& [layer, ms] : t.layerSelfMs())
        std::printf("%-10s %14.4f %7.2f%%\n", layer.c_str(), ms / n,
                    sum > 0 ? 100 * ms / sum : 0);

    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(".bench_build/traces", ec);
    const std::string path = ".bench_build/traces/" + workload + "-seed" +
                             std::to_string(seed) + ".trace.json";
    std::ofstream os(path);
    rec.writeChromeTrace(os);
    std::printf("chrome trace: %s (%zu events)\n", path.c_str(),
                rec.events().size());
}

} // namespace perfbench
