/**
 * @file
 * Compiler throughput: functions optimized per wall-clock second at
 * -j1 versus -jN.
 *
 * CASH compiles every function to an independent Pegasus graph (§3),
 * so the optimization phase is embarrassingly parallel; this bench
 * pins down how well fork-join parallelFor() converts cores into
 * compile throughput, and cross-checks that the parallel compile is
 * byte-identical to the serial one (stats modulo wall-clock timing,
 * and per-graph IR shape).
 *
 * Workloads:
 *   - "suite": every Table-2 kernel compiled per job count (few
 *     functions each — the many-small-translation-units shape);
 *   - "wide": one synthetic translation unit with many independent
 *     loop-nest functions (the one-big-file shape that actually
 *     exercises per-function parallelism inside a single compile).
 *
 * Each -j1 row also reports `manager_share`: the share of
 * `time.optimize.us` spent outside pass bodies (the `opt.pass.*.time_us`
 * counters) — pass-manager overhead, verification included — and
 * `cleanup_share`: the share of pass-body time spent in the scalar
 * cleanup passes, `scalar_opts` and `dead_code`.  Being ratios of two
 * times measured in one process, they compare across machines, and
 * metas `manager_share_j1` and `cleanup_share_j1` (wide and suite
 * together) are what CI gates against
 * bench/baselines/BENCH_compile_throughput.json.
 *
 * Every row also reports `allocs_per_compile`: heap allocations per
 * compileSource() call, counted by a replacement of the global
 * operator new in this bench binary only.  A count, not a time, it is
 * the same on every runner; meta `allocs_per_compile_j1` (the -j1
 * rows, wide and suite together) is gated against the baseline too.
 */
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "bench_util.h"
#include "support/parallel.h"

namespace {

/** Heap allocations made by this process so far. */
std::atomic<int64_t> gAllocations{0};

} // namespace

// Counting global allocator: plain malloc/free plus a tally.  The
// array, nothrow and sized forms all forward to these two.
void*
operator new(std::size_t n)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

using namespace cash;

namespace {

using Clock = std::chrono::steady_clock;

/** One synthetic translation unit with @p functions loop kernels. */
std::string
wideSource(int functions)
{
    std::string src = "int data[512];\nint acc[512];\nint tab[64];\n";
    for (int f = 0; f < functions; f++) {
        std::string fn = std::to_string(f);
        src += "int work" + fn +
               "(int n) {\n"
               "    int i; int s = " + fn + ";\n"
               "    for (i = 0; i < n; i++) {\n"
               "        data[i] = i * " + std::to_string(f + 1) + ";\n"
               "        acc[i] = acc[i] + data[i] + tab[i & 63];\n"
               "        s = s + acc[i];\n"
               "    }\n"
               "    for (i = 1; i < n; i++)\n"
               "        acc[i] = acc[i] + acc[i - 1];\n"
               "    return s + acc[n - 1];\n"
               "}\n";
    }
    return src;
}

/** Stats minus wall-clock keys: must match across job counts. */
std::string
statsFingerprint(const StatSet& stats)
{
    std::string out;
    for (const auto& [k, v] : stats.all()) {
        if (isWallClockKey(k))
            continue;
        out += k + "=" + std::to_string(v) + ";";
    }
    return out;
}

struct Measurement
{
    int64_t functions = 0;   ///< Functions optimized over all reps.
    int64_t compiles = 0;    ///< compileSource() calls.
    int64_t allocations = 0; ///< Heap allocations over all of them.
    double wallUs = 0;
    std::string fingerprint; ///< Determinism cross-check.
    int64_t optimizeUs = 0;  ///< Sum of time.optimize.us.
    int64_t passBodyUs = 0;  ///< Sum of opt.pass.*.time_us.
    int64_t cleanupUs = 0;   ///< ...of which scalar_opts and dead_code.

    void
    addTimes(const StatSet& stats)
    {
        optimizeUs += stats.get("time.optimize.us");
        for (const auto& [k, v] : stats.all())
            if (k.rfind("opt.pass.", 0) == 0 && isWallClockKey(k))
                passBodyUs += v;
        cleanupUs += stats.get("opt.pass.scalar_opts.time_us") +
                     stats.get("opt.pass.dead_code.time_us");
    }

    void
    addSerialTimes(const Measurement& m)
    {
        optimizeUs += m.optimizeUs;
        passBodyUs += m.passBodyUs;
        cleanupUs += m.cleanupUs;
        compiles += m.compiles;
        allocations += m.allocations;
    }

    /** Heap allocations per compileSource() call. */
    double
    allocsPerCompile() const
    {
        return compiles > 0 ? static_cast<double>(allocations) /
                                  static_cast<double>(compiles)
                            : 0;
    }

    /** Share of optimize time outside pass bodies; 0 when unmeasured. */
    double
    managerShare() const
    {
        return optimizeUs > 0
                   ? static_cast<double>(optimizeUs - passBodyUs) /
                         static_cast<double>(optimizeUs)
                   : 0;
    }

    /** Share of pass-body time in the cleanup passes; 0 when
     *  unmeasured. */
    double
    cleanupShare() const
    {
        return passBodyUs > 0 ? static_cast<double>(cleanupUs) /
                                    static_cast<double>(passBodyUs)
                              : 0;
    }
};

Measurement
measureWide(const std::string& src, int jobs, int reps)
{
    Measurement m;
    const int64_t allocs0 = gAllocations.load();
    Clock::time_point t0 = Clock::now();
    for (int rep = 0; rep < reps; rep++) {
        CompileResult r = compileSource(
            src, CompileOptions().opt(OptLevel::Full).jobs(jobs));
        m.compiles++;
        m.functions += static_cast<int64_t>(r.graphs.size());
        m.addTimes(r.stats);
        if (rep == 0)
            m.fingerprint = statsFingerprint(r.stats);
    }
    m.wallUs = std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0)
                   .count();
    m.allocations = gAllocations.load() - allocs0;
    return m;
}

Measurement
measureSuite(int jobs, int reps)
{
    Measurement m;
    std::vector<Kernel> suite = benchutil::suiteForRun();
    const int64_t allocs0 = gAllocations.load();
    Clock::time_point t0 = Clock::now();
    for (int rep = 0; rep < reps; rep++) {
        for (const Kernel& k : suite) {
            CompileResult r = compileSource(
                k.source,
                CompileOptions().opt(OptLevel::Full).jobs(jobs));
            m.compiles++;
            m.functions += static_cast<int64_t>(r.graphs.size());
            m.addTimes(r.stats);
            if (rep == 0)
                m.fingerprint += statsFingerprint(r.stats);
        }
    }
    m.wallUs = std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0)
                   .count();
    m.allocations = gAllocations.load() - allocs0;
    return m;
}

void
reportRows(benchutil::BenchReport& report, const std::string& workload,
           int jobs, const Measurement& m, double baselineUs)
{
    double perSec = m.wallUs > 0
                        ? 1e6 * static_cast<double>(m.functions) /
                              m.wallUs
                        : 0;
    double speedup = m.wallUs > 0 ? baselineUs / m.wallUs : 0;
    // Pass bodies of concurrent workers overlap in wall time: the
    // share only means something serially.
    double share = jobs == 1 ? m.managerShare() : 0;
    double cleanup = jobs == 1 ? m.cleanupShare() : 0;
    report.addRow({{"workload", workload},
                   {"jobs", jobs},
                   {"functions", m.functions},
                   {"wall_us", static_cast<int64_t>(m.wallUs)},
                   {"funcs_per_sec", perSec},
                   {"speedup_vs_j1", speedup},
                   {"manager_share", share},
                   {"cleanup_share", cleanup},
                   {"allocs_per_compile", m.allocsPerCompile()}});
    std::printf("%-8s %5d %10lld %12.0f %14.0f %10.2fx %9.3f %9.3f %10.0f\n",
                workload.c_str(), jobs,
                static_cast<long long>(m.functions), m.wallUs, perSec,
                speedup, share, cleanup, m.allocsPerCompile());
}

} // namespace

int
main()
{
    const bool smoke = benchutil::smokeMode();
    const int hw = hardwareThreads();
    const int wideFuncs = smoke ? 8 : 48;
    const int wideReps = smoke ? 1 : 5;
    const int suiteReps = smoke ? 1 : 3;

    std::vector<int> jobCounts = {1};
    for (int j = 2; j < hw; j *= 2)
        jobCounts.push_back(j);
    if (hw > 1)
        jobCounts.push_back(hw);

    std::printf("Compile throughput: per-function optimization, "
                "fork-join at -j1..-jN\n");
    std::printf("(%d hardware threads; wide = one %d-function unit, "
                "suite = Table-2 kernels)\n\n",
                hw, wideFuncs);
    std::printf("%-8s %5s %10s %12s %14s %11s %9s %9s %10s\n", "workload",
                "jobs", "functions", "wall_us", "funcs/sec", "speedup",
                "mgr_share", "cln_share", "allocs");
    benchutil::rule(97);

    benchutil::BenchReport report("compile_throughput");
    report.meta("hardware_threads", hw);
    report.meta("wide_functions", wideFuncs);
    report.meta("wide_reps", wideReps);
    report.meta("suite_reps", suiteReps);

    const std::string wide = wideSource(wideFuncs);
    // Warm-up (first-touch allocations, kernel-suite construction).
    measureWide(wide, 1, 1);

    std::string wantWide, wantSuite;
    double baseWideUs = 0, baseSuiteUs = 0;
    Measurement serial;  ///< The -j1 optimize and pass-body times.
    for (int jobs : jobCounts) {
        Measurement mw = measureWide(wide, jobs, wideReps);
        if (jobs == 1) {
            baseWideUs = mw.wallUs;
            wantWide = mw.fingerprint;
            serial.addSerialTimes(mw);
        } else if (mw.fingerprint != wantWide) {
            std::fprintf(stderr,
                         "bench: -j%d wide compile diverged from -j1\n",
                         jobs);
            return 1;
        }
        reportRows(report, "wide", jobs, mw, baseWideUs);
    }
    for (int jobs : jobCounts) {
        Measurement ms = measureSuite(jobs, suiteReps);
        if (jobs == 1) {
            baseSuiteUs = ms.wallUs;
            wantSuite = ms.fingerprint;
            serial.addSerialTimes(ms);
        } else if (ms.fingerprint != wantSuite) {
            std::fprintf(stderr,
                         "bench: -j%d suite compile diverged from -j1\n",
                         jobs);
            return 1;
        }
        reportRows(report, "suite", jobs, ms, baseSuiteUs);
    }

    report.meta("manager_share_j1", serial.managerShare());
    report.meta("cleanup_share_j1", serial.cleanupShare());
    report.meta("allocs_per_compile_j1", serial.allocsPerCompile());
    std::printf("\npass-manager share of -j1 optimize time: %.3f\n",
                serial.managerShare());
    std::printf("cleanup (scalar_opts + dead_code) share of -j1 pass-body "
                "time: %.3f\n",
                serial.cleanupShare());
    std::printf("heap allocations per -j1 compile: %.0f\n",
                serial.allocsPerCompile());
    report.write();
    return 0;
}
