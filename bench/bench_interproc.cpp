/**
 * @file
 * Interprocedural dependence-graph slicing: how many cross-call token
 * edges the whole-program MOD/REF layer (analysis/modref.h +
 * interproc_token_pruning) removes, and what that buys in simulated
 * cycles.
 *
 * For every multi-function kernel in the suite the bench compiles at
 * opt=full with the interprocedural layer off (`ipo=off`: every call reads
 * and writes Top, the pre-PR model) and on (the default), counts the
 * direct token edges with a Call endpoint in the final graphs, and
 * runs both binaries on realistic dual-ported memory.  Three gates
 * make this a self-checking acceptance artifact:
 *
 *   1. on the dedicated multi-function kernels (helperdot, callchain,
 *      recsum) the layer must remove >= 30% of inter-call token edges;
 *   2. every pruned program must pass the full lint battery — with the
 *      independently rederived interprocedural checker model — with
 *      zero error findings (the --analyze-strict equivalent);
 *   3. a graph.corrupt-token canary injected into a pruned
 *      multi-function kernel must still be caught by the extended
 *      checker (the differential proof that pruning did not blunt it).
 *
 * Writes BENCH_interproc.json (schema cash-bench-v1).
 */
#include "bench_util.h"

#include "analysis/interproc.h"
#include "analysis/lint.h"
#include "analysis/ordering_checker.h"
#include "opt/opt_util.h"
#include "support/fault_injection.h"

using namespace cash;

namespace {

/**
 * Inter-call token edges: ordered call pairs (a before b by a token
 * path).  Counting the closure rather than raw graph edges makes the
 * metric independent of how fan-in happens to be represented
 * (combines vs. chains) — it is exactly the call-to-call
 * serialization the token graph imposes, which is what the MOD/REF
 * layer exists to cut.
 */
int64_t
interCallTokenEdges(const CompileResult& r)
{
    int64_t edges = 0;
    for (const auto& g : r.graphs) {
        // Closure queries only: no call effect is resolved, so the
        // checker needs no interprocedural model.
        OrderingChecker checker(*g, &r.cfg->oracle, r.layout.get(),
                                /*interproc=*/nullptr);
        for (const Node* a : checker.sideEffects())
            for (const Node* b : checker.sideEffects()) {
                if (a == b || a->kind != NodeKind::Call ||
                    b->kind != NodeKind::Call)
                    continue;
                if (checker.tokenReaches(a, b))
                    edges++;
            }
    }
    return edges;
}

/** Calls in the final graphs (multi-function kernel detector). */
int64_t
callNodes(const CompileResult& r)
{
    int64_t calls = 0;
    for (const auto& g : r.graphs)
        g->forEach([&](Node* n) {
            if (n->kind == NodeKind::Call)
                calls++;
        });
    return calls;
}

/** The --analyze-strict equivalent: full battery + interproc model. */
int64_t
lintErrors(const CompileResult& r)
{
    InterprocModel interproc(r.graphPtrs(), r.cfg->paramLocation,
                             *r.layout);
    LintContext ctx;
    ctx.oracle = &r.cfg->oracle;
    ctx.layout = r.layout.get();
    ctx.interproc = &interproc;
    return runLints(r.graphPtrs(), ctx).errors();
}

} // namespace

int
main()
{
    std::printf("Interprocedural token pruning: cross-call edges and "
                "cycles at opt=full,\nipo=off (calls read/write Top) vs. "
                "ipo=on (MOD/REF summaries)\n\n");
    std::printf("%-12s %6s %10s %10s %8s %10s %10s %8s\n", "kernel",
                "calls", "edges-off", "edges-on", "removed",
                "cyc-off", "cyc-on", "speedup");
    benchutil::rule(82);

    benchutil::BenchReport report("interproc");
    MemConfig mem = MemConfig::realistic(2);

    // The kernels the >= 30% acceptance gate is measured on.
    const std::vector<std::string> gated = {"helperdot", "callchain",
                                            "recsum"};
    int64_t gatedOff = 0, gatedOn = 0;
    int64_t lintErrorTotal = 0;
    int multiFunction = 0;

    for (const Kernel& k : benchutil::suiteForRun()) {
        CompileResult off = compileSource(
            k.source,
            CompileOptions().opt(OptLevel::Full).interprocOpt(false));
        if (callNodes(off) == 0)
            continue; // single-function kernel: nothing cross-call
        multiFunction++;

        CompileResult on = compileSource(
            k.source, CompileOptions().opt(OptLevel::Full));
        int64_t edgesOff = interCallTokenEdges(off);
        int64_t edgesOn = interCallTokenEdges(on);
        int64_t pruned = on.stats.get(
            "opt.interproc_token_pruning.pruned_edges");
        lintErrorTotal += lintErrors(on);

        DataflowSimulator simOff(off.graphPtrs(), *off.layout, mem);
        DataflowSimulator simOn(on.graphPtrs(), *on.layout, mem);
        SimResult ro = simOff.run(k.entry, k.args);
        SimResult rn = simOn.run(k.entry, k.args);
        if (ro.returnValue != rn.returnValue) {
            std::fprintf(stderr,
                         "FAIL %s: ipo=off returned %u, ipo=on %u\n",
                         k.name.c_str(), ro.returnValue,
                         rn.returnValue);
            return 1;
        }

        bool isGated = false;
        for (const std::string& g : gated)
            if (g == k.name)
                isGated = true;
        if (isGated) {
            gatedOff += edgesOff;
            gatedOn += edgesOn;
        }

        double speed = static_cast<double>(ro.cycles) /
                       static_cast<double>(rn.cycles ? rn.cycles : 1);
        std::printf("%-12s %6lld %10lld %10lld %8s %10llu %10llu "
                    "%7sx\n",
                    k.name.c_str(),
                    static_cast<long long>(callNodes(on)),
                    static_cast<long long>(edgesOff),
                    static_cast<long long>(edgesOn),
                    benchutil::pct(edgesOff - edgesOn, edgesOff)
                        .c_str(),
                    static_cast<unsigned long long>(ro.cycles),
                    static_cast<unsigned long long>(rn.cycles),
                    fmtDouble(speed, 2).c_str());
        report.addRow({{"kernel", k.name},
                       {"calls", callNodes(on)},
                       {"edges_ipo_off", edgesOff},
                       {"edges_ipo_on", edgesOn},
                       {"pass_pruned_edges", pruned},
                       {"cycles_ipo_off", ro.cycles},
                       {"cycles_ipo_on", rn.cycles},
                       {"speedup", speed},
                       {"gated", isGated}});
    }
    benchutil::rule(82);

    double removedPct =
        gatedOff ? 100.0 * static_cast<double>(gatedOff - gatedOn) /
                       static_cast<double>(gatedOff)
                 : 0.0;
    std::printf("\ngated kernels (helperdot, callchain, recsum): "
                "%lld -> %lld inter-call token\nedges (%s removed; "
                "acceptance gate: >= 30%%)\n",
                static_cast<long long>(gatedOff),
                static_cast<long long>(gatedOn),
                benchutil::pct(gatedOff - gatedOn, gatedOff).c_str());
    report.meta("gated_edges_ipo_off", gatedOff);
    report.meta("gated_edges_ipo_on", gatedOn);
    report.meta("gated_removed_pct", removedPct);
    report.meta("multi_function_kernels", multiFunction);
    report.meta("lint_errors_on_pruned", lintErrorTotal);

    // Canary differential: corrupt a token edge in a *pruned*
    // multi-function kernel and require the interprocedural checker
    // to flag it (detection must survive the sparser token graph).
    const Kernel& canaryKernel = kernelByName("callchain");
    FaultPlan plan =
        FaultPlan::parse("graph.corrupt-token:pass=dead_code,round=1");
    CompileResult corrupted = compileSource(
        canaryKernel.source, CompileOptions()
                                 .passes({"dead_code"})
                                 .verification(false)
                                 .inject(&plan));
    int64_t canaryErrors = lintErrors(corrupted);
    std::printf("canary: graph.corrupt-token on callchain -> %lld "
                "checker error(s)\n",
                static_cast<long long>(canaryErrors));
    report.meta("canary_errors", canaryErrors);
    report.write();

    if (gatedOff == 0 ||
        gatedOff - gatedOn <
            (gatedOff * 3 + 9) / 10) { // ceil(30%) without floats
        std::fprintf(stderr,
                     "FAIL: interprocedural layer removed < 30%% of "
                     "inter-call token edges\n");
        return 1;
    }
    if (lintErrorTotal != 0) {
        std::fprintf(stderr, "FAIL: pruned kernels are not clean "
                             "under the interprocedural checker\n");
        return 1;
    }
    if (canaryErrors == 0) {
        std::fprintf(stderr, "FAIL: injected token corruption escaped "
                             "the interprocedural checker\n");
        return 1;
    }
    return 0;
}
