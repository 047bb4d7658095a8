/**
 * @file
 * The four workloads (README.md explains why each exists).  Each one:
 * builds its inputs from the seed, sets up (the median of several
 * set-ups is setup_s), runs its op in a timed loop, checks every op
 * against an independent reference, and prints either the end-to-end
 * metrics (untraced run) or the per-layer metrics (traced run, which
 * times half the run untraced and half through the traced pipeline).
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "fabric/placer.h"
#include "service/client.h"
#include "service/server.h"
#include "sim/dataflow_sim.h"

namespace perfbench {

using namespace cash;

namespace {

/** Set-up repetitions of an untraced run; setup_s is their median. */
constexpr int kSetupReps = 3;

int
checkThreads()
{
    return std::clamp(static_cast<int>(std::thread::hardware_concurrency()),
                      1, 4);
}

DriverRequest
requestFor(const Input& p, bool simulate, bool analyze)
{
    DriverRequest req;
    req.source = p.source;
    req.jobs = 1;
    req.analyze = analyze;
    if (simulate)
        req.runSpec = p.runSpec();
    return req;
}

/** Why @p rep is wrong ("" when right); @p ref = expected return. */
std::string
checkReply(const DriverReply& rep, const Reference* ref)
{
    if (!rep.fatal.empty())
        return "fatal: " + rep.fatal;
    if (!rep.diagnostics.empty())
        return "pass rollback: " + rep.diagnostics[0].str();
    if (rep.analysisErrors)
        return std::to_string(rep.analysisErrors) +
               " analysis error findings";
    if (rep.exitCode != 0)
        return "exit code " + std::to_string(rep.exitCode);
    if (!ref)
        return "";
    if (!rep.ranSim || rep.simOutcome != SimOutcome::Ok)
        return std::string("sim outcome ") + simOutcomeName(rep.simOutcome) +
               " " + rep.simError;
    if (!ref->ok)
        return ref->error;
    if (rep.returnValue != ref->value)
        return "returned " + std::to_string(rep.returnValue) +
               ", reference " + std::to_string(ref->value);
    return "";
}

/** Simulate @p cr at @p target on @p engine. */
SimResult
simulate(const CompileResult& cr, const Input& p, const TargetSpec& target,
         SimEngine engine)
{
    MemConfig mc = MemConfig::realistic(2);
    SimEngine ignored = SimEngine::Macro;
    (void)target.resolve(&mc, &ignored);
    FabricSession fabric;
    const FabricSession* fp = nullptr;
    if (!target.fabric.trivial()) {
        fabric = placeAll(cr.graphPtrs(), target.fabric);
        fp = &fabric;
    }
    DataflowSimulator sim(cr.graphPtrs(), *cr.layout, mc, engine, fp);
    return sim.run(p.entry, p.args);
}

void
emitEndToEnd(Report& r, const std::vector<double>& opMs, double wallS,
             const Counts& c, double setupS, double rssMb)
{
    addLatencyMetrics(r, opMs, wallS);
    r.add("sim_cycles_geomean", c.cyclesGeomean(), "cycles");
    r.add("ir_nodes_final", static_cast<double>(c.nodesFinal), "nodes");
    r.add("setup_s", setupS, "s");
    r.add("peak_rss_mb", rssMb, "MB");
    std::printf("error_rate: %lld failed / %lld attempted = %.6f\n",
                static_cast<long long>(r.failed),
                static_cast<long long>(r.attempted),
                r.attempted ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 0.0);
    std::printf("%s\n", c.line().c_str());
}

/** The traced run's output: per-layer metrics, trace file, counts. */
void
emitLayers(Report& r, LayerReport& lr, const Tracer& t,
           const TraceRecorder& rec, const Counts& c, const Args& a,
           const std::vector<double>& plain,
           const std::vector<double>& traced)
{
    lr.untracedP50 = median(plain);
    lr.tracedP50 = median(traced);
    lr.emit(r, t, c);
    writeTrace(rec, t, a.workload, a.seed, lr.tracedOps);
    std::printf("%s\n", c.line().c_str());
}

double
sumSeconds(const std::vector<double>& ms)
{
    double s = 0;
    for (double m : ms)
        s += m;
    return s / 1000.0;
}

/**
 * The serial driver-request workloads (suite, gen-compile): op k runs
 * runDriverRequest(reqs[k]) and renders its stats document; the traced
 * run replaces it with tracedRequest and demands the same bytes.
 */
struct DriverLoop
{
    explicit DriverLoop(Report& report) : r(report) {}

    Report& r;
    std::vector<Input> progs;
    std::vector<DriverRequest> reqs;
    std::vector<size_t> order;       ///< Op i runs program order[i % n].
    std::vector<Reference> refs;     ///< Empty = no simulation to check.
    std::vector<std::string> firstDoc;
    std::vector<DriverReply> firstReply;
    std::vector<int64_t> opsOn;
    Counts counts;

    DriverReply rep;
    std::string doc;

    size_t programOf(size_t i) const { return order[i % order.size()]; }

    void
    untracedOp(size_t i)
    {
        size_t k = programOf(i);
        rep = runDriverRequest(reqs[k]);
        doc = renderReply(rep, reqs[k], progs[k].name);
    }

    /** Check the op just run against the reference and its first run. */
    void
    check(size_t i, bool traced)
    {
        size_t k = programOf(i);
        r.attempted++;
        opsOn[k]++;
        std::string why = checkReply(rep, refs.empty() ? nullptr : &refs[k]);
        if (firstDoc[k].empty() && traced) {
            // The untraced half never reached this program: produce the
            // library's answer now, untimed.
            firstReply[k] = runDriverRequest(reqs[k]);
            firstDoc[k] = renderReply(firstReply[k], reqs[k], progs[k].name);
            counts.analysisErrors += firstReply[k].analysisErrors;
        }
        if (firstDoc[k].empty()) {
            firstDoc[k] = doc;
            firstReply[k] = rep;
            counts.analysisErrors += rep.analysisErrors;
        } else if (why.empty() && doc != firstDoc[k]) {
            why = traced ? "traced pipeline output differs from "
                           "runDriverRequest"
                         : "output differs from the program's first op";
        }
        if (!why.empty())
            r.failOp(progs[k].name + ": " + why);
    }

    void
    init()
    {
        firstDoc.assign(progs.size(), "");
        firstReply.assign(progs.size(), DriverReply());
        opsOn.assign(progs.size(), 0);
    }

    /** Timed loop of library (untraced) ops. */
    std::vector<double>
    runUntraced(double seconds)
    {
        return timedLoop(
            seconds, [&](size_t i) { untracedOp(i); },
            [&](size_t i) { check(i, false); });
    }

    /** Timed loop of traced ops, each checked against the library's. */
    std::vector<double>
    runTraced(double seconds, Tracer& t, LayerReport& lr)
    {
        return timedLoop(
            seconds,
            [&](size_t i) {
                size_t k = programOf(i);
                rep = tracedRequest(reqs[k], progs[k].name, t, &doc);
            },
            [&](size_t i) {
                check(i, true);
                lr.addPassTimes(rep.compileStats);
                lr.simEventsTraced +=
                    static_cast<double>(rep.simStats.get("sim.events"));
            });
    }
};

} // namespace

// ---------------------------------------------------------------------
// suite
// ---------------------------------------------------------------------

void
runSuite(const Args& a, Report& r)
{
    std::printf("workload suite: serial closed loop, 1 caller, jobs=1; op = "
                "runDriverRequest (compile + simulate at %s) + its stats "
                "document, cycling the Table-2 kernels in seeded order\n",
                TargetSpec().str().c_str());
    DriverLoop loop(r);
    auto setup = [&] {
        loop.progs = suitePrograms();
        loop.order = shuffledOrder(a.seed, 1, loop.progs.size());
        loop.reqs.clear();
        for (const Input& p : loop.progs)
            loop.reqs.push_back(requestFor(p, true, false));
        // Warm-up: one discarded pass (the first passes run 30-50%
        // slower than steady state).
        for (const DriverRequest& q : loop.reqs)
            (void)runDriverRequest(q);
    };
    const double setupS = medianSetupSeconds(a.trace ? 1 : kSetupReps, setup);
    loop.refs = referenceReturns(loop.progs, 1);
    loop.init();

    auto foldCounts = [&] {
        for (size_t k = 0; k < loop.progs.size(); k++) {
            if (loop.firstDoc[k].empty())
                continue;
            loop.counts.addCompile(loop.firstReply[k].compileStats, 0);
            loop.counts.addSim(loop.firstReply[k].simStats,
                               loop.firstReply[k].cycles);
        }
    };

    if (!a.trace) {
        std::vector<double> ms = loop.runUntraced(a.seconds);
        const double rss = peakRssMb();
        foldCounts();
        emitEndToEnd(r, ms, sumSeconds(ms), loop.counts, setupS, rss);
        return;
    }

    std::vector<double> plain = loop.runUntraced(a.seconds / 2);
    TraceRecorder rec;
    rec.enable();
    Tracer t(rec);
    LayerReport lr;
    std::vector<double> traced = loop.runTraced(a.seconds / 2, t, lr);
    foldCounts();
    for (size_t k = 0; k < loop.progs.size(); k++) {
        if (loop.firstDoc[k].empty())
            continue;
        CompileResult cr =
            compileSource(loop.progs[k].source, CompileOptions().jobs(1));
        SimResult ev =
            simulate(cr, loop.progs[k], TargetSpec(), SimEngine::Event);
        if (!ev.ok() || ev.cycles != loop.firstReply[k].cycles)
            loop.counts.engineMismatches++;
    }
    lr.tracedOps = static_cast<int64_t>(traced.size());
    emitLayers(r, lr, t, rec, loop.counts, a, plain, traced);
}

// ---------------------------------------------------------------------
// gen-compile
// ---------------------------------------------------------------------

namespace {

/** Distinct generated programs per gen-compile run (README.md). */
constexpr size_t kGenPrograms = 96;

/** Untimed per-program results of gen-compile's reference check. */
struct GenCheck
{
    StatSet compileStats;
    SimResult o3;
    Reference o0;
    bool engineMismatch = false;
};

} // namespace

void
runGenCompile(const Args& a, Report& r)
{
    std::printf("workload gen-compile: serial closed loop, 1 caller, "
                "jobs=1; op = runDriverRequest (compile + analyze, no "
                "simulation) + its stats document, cycling %zu fuzz "
                "'calls' programs (generator seeds 1-%zu) in seeded order\n",
                kGenPrograms,
                kGenPrograms);
    DriverLoop loop(r);
    auto setup = [&] {
        // The generator's interprocedural 'calls' family with 3-6
        // helpers instead of 5-9 and at most 4 statements a block
        // instead of 5: a 20 s run then holds the 200+ ops a p95 with
        // ten samples above it needs, even on a busy host.
        fuzz::GenProfile prof = fuzz::GenProfile::byName("calls");
        prof.minFunctions = 3;
        prof.maxFunctions = 6;
        prof.maxStmts = 4;
        loop.progs.clear();
        loop.reqs.clear();
        for (uint64_t g = 1; g <= kGenPrograms; g++) {
            loop.progs.push_back(generatedProgram(prof, g));
            loop.reqs.push_back(requestFor(loop.progs.back(), false, true));
        }
        loop.order = shuffledOrder(a.seed, 2, kGenPrograms);
        // Warm-up: three discarded compiles.
        for (size_t k = 0; k < 3; k++)
            (void)runDriverRequest(loop.reqs[loop.order[k]]);
    };
    const double setupS = medianSetupSeconds(a.trace ? 1 : kSetupReps, setup);
    loop.init();

    std::vector<double> plain, traced;
    TraceRecorder rec;
    rec.enable();
    Tracer t(rec);
    LayerReport lr;
    double rss = 0;
    if (!a.trace) {
        plain = loop.runUntraced(a.seconds);
        rss = peakRssMb();
    } else {
        plain = loop.runUntraced(a.seconds / 2);
        traced = loop.runTraced(a.seconds / 2, t, lr);
    }

    // Untimed reference check of every corpus program: -O3 (the
    // request's compile) must return what -O0 returns, and the -O3
    // compile's counts feed the deterministic metrics.
    std::vector<GenCheck> checks(kGenPrograms);
    parallelFor(kGenPrograms, checkThreads(), [&](size_t k) {
        const Input& p = loop.progs[k];
        CompileResult cr = compileSource(p.source, CompileOptions().jobs(1));
        checks[k].compileStats = cr.stats;
        checks[k].o3 = simulate(cr, p, TargetSpec(), SimEngine::Macro);
        checks[k].o0 = referenceReturn(p);
        if (a.trace) {
            SimResult ev = simulate(cr, p, TargetSpec(), SimEngine::Event);
            checks[k].engineMismatch =
                !ev.ok() || ev.cycles != checks[k].o3.cycles;
        }
    });

    for (size_t k = 0; k < kGenPrograms; k++) {
        const GenCheck& c = checks[k];
        loop.counts.addCompile(c.compileStats, 0);
        loop.counts.addSim(c.o3.stats, c.o3.cycles);
        loop.counts.engineMismatches += c.engineMismatch ? 1 : 0;
        std::string why;
        if (!c.o3.ok())
            why = std::string("-O3 sim outcome ") +
                  simOutcomeName(c.o3.outcome);
        else if (!c.o0.ok)
            why = c.o0.error;
        else if (c.o3.returnValue != c.o0.value)
            why = "-O3 returned " + std::to_string(c.o3.returnValue) +
                  ", -O0 " + std::to_string(c.o0.value);
        if (!why.empty()) {
            r.failed += loop.opsOn[k];
            r.failCheck(loop.progs[k].name + ": " + why);
        }
    }

    if (!a.trace) {
        emitEndToEnd(r, plain, sumSeconds(plain), loop.counts, setupS, rss);
        return;
    }
    lr.tracedOps = static_cast<int64_t>(traced.size());
    emitLayers(r, lr, t, rec, loop.counts, a, plain, traced);
}

// ---------------------------------------------------------------------
// sim-sweep
// ---------------------------------------------------------------------

namespace {

/** Seeded medium-shaped programs added to the kernels in sim-sweep. */
constexpr size_t kSweepGenerated = 4;
/** Event cap, at the default target, of an admissible generated
 *  program: about the largest kernel's count (vortexdb, 74784). */
constexpr uint64_t kSweepMaxEvents = 100000;

struct SweepProgram
{
    Input in;
    CompileResult compiled;
};

} // namespace

void
runSimSweep(const Args& a, Report& r)
{
    std::vector<TargetSpec> targets;
    for (const char* mem : {"perfect", "real1", "real2", "real4"}) {
        for (const char* fabric : {"1x1", "2x2"}) {
            TargetSpec t;
            t.mem = mem;
            (void)t.setField("fabric", fabric);
            targets.push_back(t);
        }
    }
    std::printf("workload sim-sweep: serial closed loop, 1 caller; op = "
                "placeAll (2x2 only) + DataflowSimulator construction + "
                "run, over the Table-2 kernels and %zu seeded medium "
                "programs compiled once, x %zu targets\n",
                kSweepGenerated, targets.size());

    std::vector<SweepProgram> progs;
    std::vector<std::pair<size_t, size_t>> pairs; // (program, target)
    std::vector<size_t> order;
    size_t drawn = 0;
    auto setup = [&] {
        progs.clear();
        for (Input& in : suitePrograms()) {
            CompileResult cr =
                compileSource(in.source, CompileOptions().jobs(1));
            progs.push_back({std::move(in), std::move(cr)});
        }
        // The generator's medium shape with a smaller dynamic-work
        // budget.  The budget is an estimate, so a candidate is also
        // dropped when its run needs more than kSweepMaxEvents events:
        // one rare multi-second program would otherwise own the run.
        fuzz::GenProfile prof = fuzz::GenProfile::byName("medium");
        prof.workBudget = 20000;
        drawn = 0;
        for (size_t taken = 0; drawn < 64 && taken < kSweepGenerated;) {
            Input in = generatedProgram(prof, ++drawn);
            CompileResult cr =
                compileSource(in.source, CompileOptions().jobs(1));
            DataflowSimulator probe(cr.graphPtrs(), *cr.layout,
                                    MemConfig::realistic(2));
            probe.setMaxEvents(kSweepMaxEvents);
            if (!probe.run(in.entry, in.args).ok())
                continue;
            progs.push_back({std::move(in), std::move(cr)});
            taken++;
        }
        pairs.clear();
        for (size_t k = 0; k < progs.size(); k++)
            for (size_t t = 0; t < targets.size(); t++)
                pairs.push_back({k, t});
        order = shuffledOrder(a.seed, 6, pairs.size());
        // Warm-up: one discarded simulation per program.
        for (const SweepProgram& p : progs)
            (void)simulate(p.compiled, p.in, TargetSpec(), SimEngine::Macro);
    };
    const double setupS = medianSetupSeconds(a.trace ? 1 : kSetupReps, setup);

    std::vector<Input> inputs;
    for (const SweepProgram& p : progs)
        inputs.push_back(p.in);
    std::printf("programs: %zu (generated: %zu admitted of %zu drawn)\n",
                progs.size(), progs.size() - suitePrograms().size(), drawn);
    const std::vector<Reference> refs =
        referenceReturns(inputs, checkThreads());

    Counts counts;
    for (const SweepProgram& p : progs) {
        counts.addCompile(p.compiled.stats, 0);
        if (!p.compiled.ok())
            r.failCheck(p.in.name + ": pass rollback while compiling");
    }

    std::vector<std::optional<SimResult>> first(pairs.size());
    std::vector<std::vector<double>> targetMs(targets.size());
    SimResult out;
    auto pairOf = [&](size_t i) { return order[i % order.size()]; };

    // One op; spans only when @p t is set (the traced half).
    auto op = [&](size_t i, Tracer* t) {
        const auto [k, ti] = pairs[pairOf(i)];
        const SweepProgram& p = progs[k];
        const TargetSpec& target = targets[ti];
        Tracer::Span whole(t, "request", "driver");
        MemConfig mc = MemConfig::realistic(2);
        SimEngine engine = SimEngine::Macro;
        (void)target.resolve(&mc, &engine);
        FabricSession fabric;
        const FabricSession* fp = nullptr;
        if (!target.fabric.trivial()) {
            Tracer::Span s(t, "fabric.place", "fabric");
            fabric = placeAll(p.compiled.graphPtrs(), target.fabric);
            fp = &fabric;
        }
        std::optional<DataflowSimulator> sim;
        {
            Tracer::Span s(t, "sim.setup", "sim");
            sim.emplace(p.compiled.graphPtrs(), *p.compiled.layout, mc,
                        engine, fp);
        }
        Tracer::Span s(t, "sim.run", "sim");
        out = sim->run(p.in.entry, p.in.args);
    };
    auto check = [&](size_t i, bool traced) {
        const size_t pi = pairOf(i);
        const auto [k, ti] = pairs[pi];
        r.attempted++;
        std::string why;
        if (!out.ok())
            why = std::string("sim outcome ") + simOutcomeName(out.outcome);
        else if (!refs[k].ok)
            why = refs[k].error;
        else if (out.returnValue != refs[k].value)
            why = "returned " + std::to_string(out.returnValue) +
                  ", reference " + std::to_string(refs[k].value);
        if (!first[pi]) {
            first[pi] = out;
        } else if (why.empty() &&
                   (out.cycles != first[pi]->cycles ||
                    stripWallClock(out.stats).all() !=
                        stripWallClock(first[pi]->stats).all())) {
            why = traced ? "traced op differs from the untraced one"
                         : "cycles or counters differ from the first run";
        }
        if (!why.empty())
            r.failOp(progs[k].in.name + " @ " + targets[ti].str() + ": " +
                     why);
    };
    TraceRecorder rec;
    rec.enable();
    Tracer t(rec);
    LayerReport lr;
    auto loopWith = [&](double seconds, Tracer* tr) {
        return timedLoop(
            seconds, [&](size_t i) { op(i, tr); },
            [&](size_t i) {
                check(i, tr != nullptr);
                if (tr)
                    lr.simEventsTraced +=
                        static_cast<double>(out.stats.get("sim.events"));
            });
    };
    std::vector<double> plain, traced;
    double rss = 0;
    if (!a.trace) {
        plain = loopWith(a.seconds, nullptr);
        rss = peakRssMb();
    } else {
        plain = loopWith(a.seconds / 2, nullptr);
        traced = loopWith(a.seconds / 2, &t);
    }
    for (size_t i = 0; i < plain.size(); i++)
        targetMs[pairs[pairOf(i)].second].push_back(plain[i]);

    for (size_t pi = 0; pi < pairs.size(); pi++) {
        if (!first[pi])
            continue;
        counts.addSim(first[pi]->stats, first[pi]->cycles);
        if (a.trace) {
            const auto [k, ti] = pairs[pi];
            SimResult ev = simulate(progs[k].compiled, progs[k].in,
                                    targets[ti], SimEngine::Event);
            if (!ev.ok() || ev.cycles != first[pi]->cycles)
                counts.engineMismatches++;
        }
    }

    std::printf("%-40s %6s %10s %14s\n", "target", "ops", "p50 ms",
                "cycles geomean");
    for (size_t ti = 0; ti < targets.size(); ti++) {
        std::vector<double> cyc;
        for (size_t pi = 0; pi < pairs.size(); pi++)
            if (pairs[pi].second == ti && first[pi])
                cyc.push_back(static_cast<double>(first[pi]->cycles));
        std::printf("%-40s %6zu %10.4f %14.2f\n", targets[ti].str().c_str(),
                    targetMs[ti].size(), median(targetMs[ti]), geomean(cyc));
    }

    if (!a.trace) {
        emitEndToEnd(r, plain, sumSeconds(plain), counts, setupS, rss);
        return;
    }
    lr.tracedOps = static_cast<int64_t>(traced.size());
    emitLayers(r, lr, t, rec, counts, a, plain, traced);
}

// ---------------------------------------------------------------------
// service-mix
// ---------------------------------------------------------------------

namespace {

constexpr int kClients = 3;
constexpr int kServerJobs = 3;
/** Generated (fuzz 'small') programs beside the kernels in the pool. */
constexpr size_t kServiceGenerated = 20;
/** Share of requests that repeat an earlier one (a cache hit). */
constexpr int kRepeatPct = 40;
/** Pre-generated request list; a run stops early if it is used up. */
constexpr size_t kServiceRequests = 60000;
/** Distinct requests replayed through the traced pipeline. */
constexpr size_t kReplayed = 48;
/**
 * Result-cache capacity: 4x the 64 recent requests a repeat may name,
 * so repeats still hit while misses evict, and memory stops growing
 * with the number of requests a run completes.
 */
constexpr size_t kServiceCacheEntries = 256;

enum class SvcKind { Compile, Simulate, Analyze };

struct SvcItem
{
    size_t distinct = 0; ///< Requests with one id are byte-identical.
    size_t base = 0;     ///< Pool program.
    SvcKind kind = SvcKind::Compile;
};

/** What one response said, extracted untimed. */
struct SvcOutcome
{
    double rttMs = 0;
    bool ok = false;
    bool cached = false;
    int64_t exit = -1;
    std::string simOutcome;
    int64_t simReturn = 0;
    int64_t cycles = 0;
    int64_t analysisErrors = 0;
    int64_t nodesFinal = 0;
    size_t bodyHash = 0;
};

const char*
kindOp(SvcKind k)
{
    return k == SvcKind::Compile    ? "compile"
           : k == SvcKind::Simulate ? "simulate"
                                    : "analyze";
}

/**
 * The seed's request list.  In every block of five requests two repeat
 * an earlier request (kRepeatPct), at seeded positions.  New requests
 * walk seeded permutations of the whole menu — every pool program
 * twice as compile, twice as simulate, once as analyze — so seeds
 * differ in order, not in mix: with an iid draw the median round trip
 * differs by up to 20% between seeds.
 */
std::vector<SvcItem>
serviceItems(uint64_t seed, size_t poolSize)
{
    std::vector<SvcItem> menu;
    for (size_t b = 0; b < poolSize; b++)
        for (SvcKind k : {SvcKind::Compile, SvcKind::Compile,
                          SvcKind::Simulate, SvcKind::Simulate,
                          SvcKind::Analyze})
            menu.push_back({0, b, k});
    const std::vector<uint64_t> rnd =
        seedStream(seed, 8, 2 * kServiceRequests);
    std::vector<SvcItem> items;
    std::vector<SvcItem> distinct;
    std::vector<size_t> introducedAt;
    std::vector<size_t> perm;
    size_t nextNew = 0;
    for (size_t i = 0; i < kServiceRequests; i++) {
        const size_t blockStart = i - i % 5;
        const bool repeatSlot =
            (i % 5 + rnd[2 * blockStart + 1]) % 5 < 2;
        // A repeat names a distinct request introduced at least 8
        // requests earlier (so, with 3 clients, it has been answered and
        // cached) and among the last 64 (so it is still cached).
        std::vector<size_t> eligible;
        for (size_t d = distinct.size(); d-- > 0 && distinct.size() - d <= 64;)
            if (introducedAt[d] + 8 <= i)
                eligible.push_back(d);
        if (repeatSlot && !eligible.empty()) {
            items.push_back(distinct[eligible[rnd[2 * i] % eligible.size()]]);
            continue;
        }
        if (nextNew == perm.size()) {
            perm = shuffledOrder(seed, 100 + distinct.size(), menu.size());
            nextNew = 0;
        }
        SvcItem it = menu[perm[nextNew++]];
        it.distinct = distinct.size();
        distinct.push_back(it);
        introducedAt.push_back(i);
        items.push_back(it);
    }
    return items;
}

Json
serviceRequest(const SvcItem& it, const std::vector<Input>& pool)
{
    const Input& p = pool[it.base];
    // A per-id comment makes each distinct request its own cache key
    // while compiling exactly the pool program.
    std::string source =
        p.source + "\n// request " + std::to_string(it.distinct) + "\n";
    Json options = Json::object();
    if (it.kind == SvcKind::Simulate)
        options.set("run", Json::string(p.runSpec()));
    return makeCompileRequest(kindOp(it.kind), source, options,
                              p.name + "#" + std::to_string(it.distinct));
}

SvcOutcome
readOutcome(const Json& resp)
{
    SvcOutcome o;
    o.ok = resp.getBool("ok");
    o.cached = resp.getBool("cached");
    const Json* body = resp.get("body");
    if (!o.ok || !body)
        return o;
    o.exit = body->getInt("exit", -1);
    if (const Json* sim = body->get("sim")) {
        o.simOutcome = sim->getString("outcome");
        o.simReturn = sim->getInt("return");
        o.cycles = sim->getInt("cycles");
    }
    if (const Json* an = body->get("analysis"))
        o.analysisErrors = an->getInt("errors");
    if (const Json* stats = body->get("stats"))
        if (const Json* compile = stats->get("compile"))
            o.nodesFinal = compile->getInt("ir.nodes.final");
    o.bodyHash = std::hash<std::string>()(body->dump());
    return o;
}

/** A started in-process server plus one connected client per caller. */
struct ServiceRig
{
    std::unique_ptr<ServiceServer> server;
    std::vector<std::unique_ptr<ServiceClient>> clients;

    ~ServiceRig() { stop(); }

    void
    stop()
    {
        clients.clear();
        if (server)
            server->stop();
        server.reset();
    }
};

} // namespace

void
runServiceMix(const Args& a, Report& r)
{
    std::printf("workload service-mix: closed loop, %d ServiceClient "
                "connections to an in-process ServiceServer (jobs=%d), "
                "each waiting for its reply; op = one round trip; "
                "compile/simulate/analyze 2:2:1 over the kernels and %zu "
                "generated programs in seeded order, %d%% repeats (cache "
                "hits), result cache of %zu entries\n",
                kClients, kServerJobs, kServiceGenerated, kRepeatPct,
                kServiceCacheEntries);

    std::vector<Input> pool;
    std::vector<SvcItem> items;
    ServiceRig rig;
    const std::string socketPath = ".bench_build/perfbench-" +
                                   std::to_string(::getpid()) + ".sock";
    auto setup = [&] {
        rig.stop();
        pool = suitePrograms();
        const fuzz::GenProfile prof = fuzz::GenProfile::byName("small");
        for (uint64_t g = 1; g <= kServiceGenerated; g++)
            pool.push_back(generatedProgram(prof, g));
        items = serviceItems(a.seed, pool.size());

        ServiceConfig cfg;
        cfg.socketPath = socketPath;
        cfg.jobs = kServerJobs;
        cfg.cacheEntries = kServiceCacheEntries;
        rig.server = std::make_unique<ServiceServer>(cfg);
        Status st = rig.server->start();
        if (!st)
            fatal("service-mix: " + st.message());
        for (int c = 0; c < kClients; c++) {
            rig.clients.push_back(std::make_unique<ServiceClient>());
            st = rig.clients.back()->connectWithRetry(socketPath);
            if (!st)
                fatal("service-mix: " + st.message());
            // Warm-up: a ping and one compile whose key never recurs.
            Json resp;
            (void)rig.clients.back()->ping();
            (void)rig.clients.back()->call(
                makeCompileRequest("compile", pool[static_cast<size_t>(c)]
                                                      .source +
                                                  "\n// warm-up\n"),
                &resp);
        }
    };
    const double setupS = medianSetupSeconds(a.trace ? 1 : kSetupReps, setup);
    const std::vector<Reference> refs = referenceReturns(pool, checkThreads());

    std::vector<SvcOutcome> outcomes(items.size());
    // Run the closed loop from request `begin` for `seconds`; returns
    // the index one past the last request sent and the loop wall time.
    auto runLoop = [&](size_t begin, double seconds, TraceRecorder* rec) {
        std::atomic<size_t> next{begin};
        std::atomic<bool> stop{false};
        const Clock::time_point start = Clock::now();
        std::vector<std::vector<std::pair<uint64_t, uint64_t>>> spans(
            kClients);
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; c++) {
            threads.emplace_back([&, c] {
                ServiceClient& client = *rig.clients[static_cast<size_t>(c)];
                try {
                    while (!stop.load()) {
                        const size_t i = next++;
                        if (i >= items.size())
                            break;
                        Json req = serviceRequest(items[i], pool);
                        Json resp;
                        const uint64_t us0 = rec ? rec->nowUs() : 0;
                        const Clock::time_point t0 = Clock::now();
                        Status st = client.call(std::move(req), &resp);
                        const double ms = msBetween(t0, Clock::now());
                        if (rec)
                            spans[static_cast<size_t>(c)].push_back(
                                {us0, rec->nowUs() - us0});
                        outcomes[i] = st ? readOutcome(resp) : SvcOutcome();
                        outcomes[i].rttMs = ms;
                        if (msBetween(start, Clock::now()) >= seconds * 1000)
                            stop = true;
                    }
                } catch (const std::exception&) {
                    // The request in flight keeps its failed outcome.
                    stop = true;
                }
            });
        }
        for (std::thread& th : threads)
            th.join();
        const double wallS = msBetween(start, Clock::now()) / 1000.0;
        if (rec) {
            for (int c = 0; c < kClients; c++) {
                rec->setTrackId(c + 1);
                for (const auto& [ts, dur] : spans[static_cast<size_t>(c)])
                    rec->completeEvent("round trip", "service", ts, dur);
            }
            rec->setTrackId(0);
        }
        return std::make_pair(std::min(next.load(), items.size()), wallS);
    };

    TraceRecorder rec;
    rec.enable();
    const auto [end1, wall1] =
        runLoop(0, a.trace ? a.seconds / 2 : a.seconds, nullptr);
    size_t end2 = end1;
    if (a.trace)
        end2 = runLoop(end1, a.seconds / 2, &rec).first;
    const double rss = peakRssMb();
    const StatSet m = rig.server->metrics();
    rig.stop();

    // Check every response; collect per-base deterministic values.
    std::vector<size_t> firstHash(items.size(), 0);
    std::vector<int64_t> baseNodes(pool.size(), -1);
    std::vector<int64_t> baseCycles(pool.size(), -1);
    std::vector<double> plain, traced;
    int64_t hits = 0;
    for (size_t i = 0; i < end2; i++) {
        const SvcItem& it = items[i];
        const SvcOutcome& o = outcomes[i];
        (i < end1 ? plain : traced).push_back(o.rttMs);
        r.attempted++;
        hits += o.cached ? 1 : 0;
        std::string why;
        if (!o.ok)
            why = "ok:false response";
        else if (o.exit != 0)
            why = "exit " + std::to_string(o.exit);
        else if (o.analysisErrors)
            why = "analysis error findings";
        else if (it.kind == SvcKind::Simulate) {
            if (o.simOutcome != "ok")
                why = "sim outcome " + o.simOutcome;
            else if (!refs[it.base].ok)
                why = refs[it.base].error;
            else if (static_cast<uint32_t>(o.simReturn) != refs[it.base].value)
                why = "returned " + std::to_string(o.simReturn) +
                      ", reference " + std::to_string(refs[it.base].value);
        }
        size_t& h = firstHash[it.distinct];
        if (why.empty() && h && h != o.bodyHash)
            why = "body differs from the first response of this request";
        if (!h)
            h = o.bodyHash;
        if (!why.empty()) {
            r.failOp(pool[it.base].name + " " + kindOp(it.kind) + ": " + why);
            continue;
        }
        if (baseNodes[it.base] < 0)
            baseNodes[it.base] = o.nodesFinal;
        if (it.kind == SvcKind::Simulate && baseCycles[it.base] < 0)
            baseCycles[it.base] = o.cycles;
    }
    Counts counts;
    for (size_t b = 0; b < pool.size(); b++) {
        if (baseNodes[b] >= 0) {
            counts.programs++;
            counts.nodesFinal += baseNodes[b];
        }
        if (baseCycles[b] >= 0) {
            counts.simulated++;
            counts.cycles.push_back(static_cast<double>(baseCycles[b]));
        }
    }
    std::printf("responses: %lld (%lld served from the result cache); "
                "server p50 %lld us, queue peak %lld, %lld batches\n",
                static_cast<long long>(end2), static_cast<long long>(hits),
                static_cast<long long>(m.get("svc.latency.p50_us")),
                static_cast<long long>(m.get("svc.queue.peak")),
                static_cast<long long>(m.get("svc.batches")));
    if (end2 == items.size())
        r.failCheck("request list exhausted before the run ended");

    if (!a.trace) {
        emitEndToEnd(r, plain, wall1, counts, setupS, rss);
        return;
    }

    // Attribute a miss's server-side work: replay the first distinct
    // requests in-process through the traced pipeline, and require the
    // library's bytes from it.
    Tracer t(rec);
    LayerReport lr;
    Counts replayCounts;
    std::vector<bool> seen(items.size(), false);
    for (size_t i = 0; i < items.size() &&
                       lr.tracedOps < static_cast<int64_t>(kReplayed);
         i++) {
        const SvcItem& it = items[i];
        if (seen[it.distinct])
            continue;
        seen[it.distinct] = true;
        SvcRequest sreq;
        Status st = parseSvcRequest(serviceRequest(it, pool), &sreq);
        if (!st) {
            r.failCheck("service-mix replay: " + st.message());
            continue;
        }
        DriverRequest d = sreq.driver;
        d.jobs = 1;
        std::string doc;
        DriverReply rep = tracedRequest(d, sreq.label, t, &doc);
        DriverReply lib = runDriverRequest(d);
        if (doc != renderReply(lib, d, sreq.label))
            r.failCheck("service-mix replay: traced pipeline output differs "
                        "from runDriverRequest for " + sreq.label);
        lr.tracedOps++;
        lr.addPassTimes(rep.compileStats);
        replayCounts.addCompile(rep.compileStats, rep.analysisErrors);
        if (rep.ranSim) {
            lr.simEventsTraced +=
                static_cast<double>(rep.simStats.get("sim.events"));
            replayCounts.addSim(rep.simStats, rep.cycles);
            CompileResult cr =
                compileSource(d.source, CompileOptions().jobs(1));
            SimResult ev =
                simulate(cr, pool[it.base], d.target, SimEngine::Event);
            if (!ev.ok() || ev.cycles != rep.cycles)
                replayCounts.engineMismatches++;
        }
    }
    // The server's latency percentiles cover both halves of the run.
    std::vector<double> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    lr.rttOverheadMs = median(all) -
                       static_cast<double>(m.get("svc.latency.p50_us")) /
                           1000.0;
    const double lookups = static_cast<double>(m.get("svc.cache.hits") +
                                               m.get("svc.cache.misses"));
    lr.cacheHitRatio =
        lookups > 0 ? static_cast<double>(m.get("svc.cache.hits")) / lookups
                    : 0;
    lr.queuePeak = static_cast<double>(m.get("svc.queue.peak"));
    std::printf("layer times below are per replayed distinct request "
                "(%lld of them), not per round trip\n",
                static_cast<long long>(lr.tracedOps));
    emitLayers(r, lr, t, rec, replayCounts, a, plain, traced);
}

} // namespace perfbench
