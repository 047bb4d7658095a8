/**
 * @file
 * Analyzer throughput: ordering-checker side-effect pairs screened
 * per wall-clock second over the benchsuite.
 *
 * The soundness checker (docs/ANALYSIS.md) builds a bitset transitive
 * closure over the token graph and then screens every side-effect
 * pair against it; this bench guards that construction against
 * accidental O(n³) regressions by reporting pairs/sec per kernel and
 * level.  It doubles as the clean-pipeline gate: any error-severity
 * finding on an uncorrupted compile is a bug, and the bench exits
 * nonzero so CI fails.
 */
#include <chrono>

#include "analysis/interproc.h"
#include "analysis/lint.h"
#include "analysis/ordering_checker.h"
#include "bench_util.h"

using namespace cash;
using namespace cash::benchutil;

namespace {

using Clock = std::chrono::steady_clock;

const OptLevel kLevels[] = {OptLevel::None, OptLevel::Medium,
                            OptLevel::Full};

} // namespace

int
main()
{
    BenchReport report("analyze_throughput");
    std::vector<Kernel> suite = suiteForRun();
    const int reps = smokeMode() ? 2 : 20;

    std::printf("%-16s %-7s %6s %6s %7s %8s %6s %12s\n", "kernel",
                "level", "tokens", "pairs", "conflic", "findings",
                "errors", "pairs/sec");
    rule(78);

    int64_t totalPairs = 0, totalErrors = 0;
    double totalUs = 0;
    for (const Kernel& k : suite) {
        for (OptLevel level : kLevels) {
            CompileResult r = compileKernel(k, level);

            // The interprocedural model runDriverRequest gives the
            // lints: without it every call is Top and the checker
            // flags the cross-call edges the pruning pass removed.
            InterprocModel interproc(r.graphPtrs(), r.cfg->paramLocation,
                                     *r.layout);

            // One lint run for the finding counts (all rules).
            LintContext lctx;
            lctx.oracle = &r.cfg->oracle;
            lctx.layout = r.layout.get();
            lctx.interproc = &interproc;
            LintReport lint = runLints(r.graphPtrs(), lctx);

            // Timed loop: the ordering checker alone, rebuilt from
            // scratch each rep (closure construction dominates).
            OrderingStats agg;
            Clock::time_point t0 = Clock::now();
            for (int rep = 0; rep < reps; rep++) {
                agg = OrderingStats();
                for (const Graph* g : r.graphPtrs()) {
                    OrderingChecker checker(g ? *g : *r.graphs[0],
                                            &r.cfg->oracle,
                                            r.layout.get(), &interproc);
                    std::vector<LintFinding> sink;
                    checker.check(sink);
                    agg.tokenNodes += checker.stats().tokenNodes;
                    agg.tokenEdges += checker.stats().tokenEdges;
                    agg.sideEffects += checker.stats().sideEffects;
                    agg.pairsConsidered +=
                        checker.stats().pairsConsidered;
                    agg.pairsConflicting +=
                        checker.stats().pairsConflicting;
                }
            }
            double us =
                static_cast<double>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - t0)
                        .count()) /
                reps;
            double pairsPerSec =
                us > 0 ? agg.pairsConsidered * 1e6 / us : 0;

            std::printf("%-16s %-7s %6lld %6lld %7lld %8lld %6lld %12.0f\n",
                        k.name.c_str(), optLevelName(level),
                        static_cast<long long>(agg.tokenNodes),
                        static_cast<long long>(agg.pairsConsidered),
                        static_cast<long long>(agg.pairsConflicting),
                        static_cast<long long>(lint.findings.size()),
                        static_cast<long long>(lint.errors()),
                        pairsPerSec);

            report.addRow(
                {{"kernel", k.name},
                 {"level", optLevelName(level)},
                 {"functions", static_cast<int64_t>(r.graphs.size())},
                 {"token_nodes", agg.tokenNodes},
                 {"token_edges", agg.tokenEdges},
                 {"side_effects", agg.sideEffects},
                 {"pairs", agg.pairsConsidered},
                 {"conflicting_pairs", agg.pairsConflicting},
                 {"findings", static_cast<int64_t>(lint.findings.size())},
                 {"errors", lint.errors()},
                 {"warnings", lint.warnings()},
                 {"infos", lint.infos()},
                 {"reps", static_cast<int64_t>(reps)},
                 {"wall_us", us},
                 {"pairs_per_sec", pairsPerSec}});
            totalPairs += agg.pairsConsidered;
            totalErrors += lint.errors();
            totalUs += us;
        }
    }

    report.meta("kernels", static_cast<int64_t>(suite.size()));
    report.meta("levels", static_cast<int64_t>(3));
    report.meta("reps", static_cast<int64_t>(reps));
    report.meta("total_pairs", totalPairs);
    report.meta("total_errors", totalErrors);
    report.meta("pairs_per_sec_overall",
                totalUs > 0 ? totalPairs * 1e6 / totalUs : 0.0);
    bool wrote = report.write();

    if (totalErrors > 0) {
        std::fprintf(stderr,
                     "bench_analyze_throughput: %lld error finding(s)"
                     " on a clean pipeline — soundness bug\n",
                     static_cast<long long>(totalErrors));
        return 1;
    }
    return wrote ? 0 : 1;
}
