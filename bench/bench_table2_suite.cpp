/**
 * @file
 * Reproduces Table 2: "Statistics of the program fragments compiled
 * and number of pragma statements introduced."
 *
 * The paper compiled selected functions of MediaBench and SPECint95;
 * this reproduction compiles the stand-in kernel suite.  Columns:
 * functions compiled, source lines, `#pragma independent` count, IR
 * nodes, and the mean wall time of one full compile per kernel — the
 * §7.1 compile-speed discussion.
 */
#include "bench_util.h"
#include "frontend/parser.h"

using namespace cash;

namespace {

int
sourceLines(const std::string& s)
{
    int n = 1;
    for (char c : s)
        if (c == '\n')
            n++;
    return n;
}

} // namespace

int
main()
{
    // Timed compiles per kernel (one in smoke mode, which CI runs to
    // validate the artifact).
    const int reps = benchutil::smokeMode() ? 1 : 20;
    std::printf("Table 2: compiled kernel suite "
                "(MediaBench/SPEC stand-ins)\n");
    std::printf("%-12s %-14s %6s %7s %8s %10s %11s\n", "Benchmark",
                "models", "Funcs", "Lines", "Pragmas", "IR nodes",
                "ms/compile");
    benchutil::rule(76);
    benchutil::BenchReport report("table2_suite");
    int tf = 0, tl = 0, tp = 0;
    int64_t tn = 0, fe = 0, op = 0;
    for (const Kernel& k : benchutil::suiteForRun()) {
        CompileResult r = benchutil::compileKernel(k, OptLevel::Full);
        int funcs = 0;
        for (const FuncDecl* f : r.ast->functions)
            if (f->body)
                funcs++;
        int lines = sourceLines(k.source);
        int64_t nodes = r.totalNodes();
        const int64_t t0 = benchutil::nowUs();
        for (int rep = 0; rep < reps; rep++)
            benchutil::compileKernel(k, OptLevel::Full);
        const double compileMs =
            static_cast<double>(benchutil::nowUs() - t0) / 1000.0 / reps;
        std::printf("%-12s %-14s %6d %7d %8d %10lld %11.2f\n",
                    k.name.c_str(), k.domain.c_str(), funcs, lines,
                    k.pragmas, static_cast<long long>(nodes), compileMs);
        report.addRow({{"kernel", k.name},
                       {"domain", k.domain},
                       {"functions", funcs},
                       {"lines", lines},
                       {"pragmas", k.pragmas},
                       {"ir_nodes", nodes},
                       {"compile_ms", compileMs}});
        tf += funcs;
        tl += lines;
        tp += k.pragmas;
        tn += nodes;
        fe += r.stats.get("time.frontend.us");
        op += r.stats.get("time.optimize.us");
    }
    benchutil::rule(76);
    std::printf("%-12s %-14s %6d %7d %8d %10lld\n", "Total", "", tf, tl,
                tp, static_cast<long long>(tn));
    std::printf("\nAs in the paper, only a handful of pragmas are "
                "needed, mostly declaring\nthat pointer arguments do "
                "not alias each other.\n\n");

    // §7.1: "About half the time spent in CASH is spent on the
    // optimizations" — our frontend/optimizer split.
    std::printf("compile-time split over the suite: frontend+build "
                "%lld us, optimizations %lld us (%s%% in opts; paper: "
                "~50%%)\n\n",
                static_cast<long long>(fe), static_cast<long long>(op),
                fmtDouble(100.0 * static_cast<double>(op) /
                              static_cast<double>(fe + op),
                          0)
                    .c_str());
    report.meta("time_frontend_us", fe);
    report.meta("time_optimize_us", op);
    report.meta("compile_reps", static_cast<int64_t>(reps));
    return report.write() ? 0 : 1;
}
