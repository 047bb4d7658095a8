/**
 * @file
 * Shared types of the request benchmark (README.md): arguments, the
 * program corpus, reference answers, the result report, timing
 * helpers and the traced re-composition of one driver request.
 *
 * Everything here calls only the repository's public entry points;
 * nothing under src/ knows the benchmark exists.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "driver/driver_lib.h"
#include "fuzz/generator.h"
#include "support/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b);

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
};

// ---------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------

/** One program a workload compiles or simulates. */
struct Input
{
    std::string name;   ///< Kernel name, or "<profile>-<generator seed>".
    std::string source;
    std::string entry;
    std::vector<uint32_t> args;
    bool isKernel = false;

    /** "entry(a,b)" — the DriverRequest::runSpec form. */
    std::string runSpec() const;
};

/** The 23 Table-2 kernels, in suite order. */
std::vector<Input> suitePrograms();

/** fuzz::generateProgram(genSeed, profile), entered as
 *  run(genSeed % 64 + 1). */
Input generatedProgram(const cash::fuzz::GenProfile& profile,
                       uint64_t genSeed);

/**
 * @p n values drawn from stream @p stream of workload seed @p seed.
 * Different streams of one seed are independent; the same (seed,
 * stream) always yields the same values.
 */
std::vector<uint64_t> seedStream(uint64_t seed, uint64_t stream,
                                 size_t n);

/** A seeded permutation of 0..n-1. */
std::vector<size_t> shuffledOrder(uint64_t seed, uint64_t stream,
                                  size_t n);

/**
 * The answer a correct compilation must return, from a path that
 * shares no optimizer or simulator-timing code with the request under
 * test: the golden interpreter for kernels; for generated programs
 * (which the interpreter rejects — Pegasus division is total) the
 * unoptimized (-O0) compile on the event engine with perfect memory.
 */
struct Reference
{
    bool ok = false;
    uint32_t value = 0;
    std::string error;
};
Reference referenceReturn(const Input& p);

/**
 * fn(0) .. fn(n-1) on @p threads threads (the caller is one of them);
 * the first exception is rethrown on the caller after all joined.
 */
void parallelFor(size_t n, int threads,
                 const std::function<void(size_t)>& fn);

/** referenceReturn over @p programs on up to @p threads workers. */
std::vector<Reference> referenceReturns(const std::vector<Input>& programs,
                                        int threads);

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one benchmark run prints as its last stdout line. */
struct Report
{
    int64_t attempted = 0;
    int64_t failed = 0;
    /** A check outside the op count failed (reference, byte identity). */
    bool checksFailed = false;
    std::vector<Metric> metrics;

    void add(const std::string& name, double value,
             const std::string& unit);
    /** Count one failed op and log why (first few only). */
    void failOp(const std::string& why);
    /** Record a failed whole-run check and log why. */
    void failCheck(const std::string& why);

    bool correct() const { return failed == 0 && !checksFailed; }
    std::string json() const;
};

/** q-quantile (0..1) of @p v by linear interpolation; 0 when empty. */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double>& v);
/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/**
 * Run @p setup @p reps times and return the median wall seconds; the
 * last repetition's state is the one the workload keeps.
 */
double medianSetupSeconds(int reps, const std::function<void()>& setup);

/**
 * Call @p op(i) for i = 0, 1, ... until the summed wall time of the
 * calls reaches @p seconds, timing each call; @p after(i) runs
 * untimed after each call (checks, bookkeeping).  Returns the per-op
 * milliseconds.
 */
std::vector<double> timedLoop(double seconds,
                              const std::function<void(size_t)>& op,
                              const std::function<void(size_t)>& after);

/** Print op_ms_p50/p95, ops_per_s into @p r from per-op times. */
void addLatencyMetrics(Report& r, const std::vector<double>& opMs,
                       double wallSeconds);

// ---------------------------------------------------------------------
// Deterministic counts of a workload's corpus
// ---------------------------------------------------------------------

/**
 * Counters summed over every distinct compiled program and every
 * distinct simulated (program, target) of one run.  They depend only
 * on the seed and the commit, never on timing.
 */
struct Counts
{
    int64_t programs = 0;
    int64_t nodesInitial = 0;
    int64_t nodesFinal = 0;
    int64_t passRuns = 0;
    int64_t passChanged = 0;
    int64_t rollbacks = 0;
    int64_t analysisErrors = 0;

    int64_t simulated = 0;
    std::vector<double> cycles;
    int64_t events = 0;
    int64_t heapOps = 0;
    int64_t memAccesses = 0;
    int64_t l1Misses = 0;
    int64_t lsqPortStalls = 0;
    int64_t fabricCut = 0;
    int64_t fabricHopCycles = 0;
    int64_t engineMismatches = 0;

    /** Fold in one compiled program's (wall-clock free) stats. */
    void addCompile(const cash::StatSet& stats, int64_t errors);
    /** Fold in one simulation's stats and cycle count. */
    void addSim(const cash::StatSet& stats, uint64_t cycles);

    double cyclesGeomean() const { return geomean(cycles); }
    /** One line naming the counts that must repeat exactly. */
    std::string line() const;
};

// ---------------------------------------------------------------------
// Tracing (--trace 1)
// ---------------------------------------------------------------------

/**
 * Spans recorded from the benchmark's own code around each public
 * layer call.  Spans nest (one stack per Tracer, so one Tracer per
 * thread); each span's self time is its duration minus its children's,
 * accumulated per layer.  Every span also goes to a TraceRecorder for
 * the Chrome trace file.
 */
class Tracer
{
  public:
    explicit Tracer(cash::TraceRecorder& rec) : rec_(rec) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** One span; records nothing when the tracer is null. */
    class Span
    {
      public:
        Span(Tracer* t, const char* name, const char* layer);
        Span(Tracer& t, const char* name, const char* layer)
            : Span(&t, name, layer)
        {
        }
        ~Span();
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

      private:
        Tracer* t_;
    };

    /** Summed self time per layer, ms. */
    const std::map<std::string, double>& layerSelfMs() const
    {
        return layerSelf_;
    }
    /** Summed duration of spans named @p name, ms. */
    double total(const std::string& name) const;
    /** Summed self time of spans named @p name, ms. */
    double self(const std::string& name) const;

  private:
    struct Open
    {
        const char* name;
        const char* layer;
        Clock::time_point start;
        uint64_t startUs;
        double childMs = 0;
    };
    cash::TraceRecorder& rec_;
    std::vector<Open> stack_;
    std::map<std::string, double> total_;
    std::map<std::string, double> self_;
    std::map<std::string, double> layerSelf_;
};

/**
 * runDriverRequest() re-composed from the stage calls of
 * compileSource() (parse+sema+layout, lower, points-to, MOD/REF,
 * Pegasus build, per-function verify and optimizeGraph, on the serial
 * jobs=1 schedule), runLints, placeAll, DataflowSimulator and
 * statsJsonDocument, one span each, inside a "request" span.  Renders
 * the deterministic stats document (renderReply with @p label) into
 * @p rendered.
 */
cash::DriverReply tracedRequest(const cash::DriverRequest& req,
                                const std::string& label, Tracer& t,
                                std::string* rendered);

/** The deterministic cash-stats-v1 document of @p rep (op output). */
std::string renderReply(const cash::DriverReply& rep,
                        const cash::DriverRequest& req,
                        const std::string& label);

/**
 * Per-layer metrics every --trace 1 run prints, filled from a Tracer
 * (times per traced op), Counts and workload-specific values.
 */
struct LayerReport
{
    int64_t tracedOps = 0;
    double untracedP50 = 0;
    double tracedP50 = 0;
    double passBodyMs = 0;          ///< Σ opt.pass.*.time_us over traced ops, ms.
    double transitiveReductionMs = 0;
    double simEventsTraced = 0;     ///< sim.events over traced ops.
    double rttOverheadMs = 0;
    double cacheHitRatio = 0;
    double queuePeak = 0;

    void addPassTimes(const cash::StatSet& compileStats);
    void emit(Report& r, const Tracer& t, const Counts& c) const;
};

/** Write the Chrome trace and print the per-layer self-time table. */
void writeTrace(const cash::TraceRecorder& rec, const Tracer& t,
                const std::string& workload, uint64_t seed,
                int64_t tracedOps);

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

void runSuite(const Args& a, Report& r);
void runGenCompile(const Args& a, Report& r);
void runSimSweep(const Args& a, Report& r);
void runServiceMix(const Args& a, Report& r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
