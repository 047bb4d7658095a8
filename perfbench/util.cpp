#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "baseline/interpreter.h"
#include "bench.h"
#include "benchsuite/kernels.h"
#include "frontend/layout.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "sim/dataflow_sim.h"

namespace perfbench {

using namespace cash;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------

std::string
Input::runSpec() const
{
    std::string s = entry + "(";
    for (size_t i = 0; i < args.size(); i++)
        s += (i ? "," : "") + std::to_string(args[i]);
    return s + ")";
}

std::vector<Input>
suitePrograms()
{
    std::vector<Input> out;
    for (const Kernel& k : kernelSuite()) {
        Input p;
        p.name = k.name;
        p.source = k.source;
        p.entry = k.entry;
        p.args = k.args;
        p.isKernel = true;
        out.push_back(std::move(p));
    }
    return out;
}

Input
generatedProgram(const fuzz::GenProfile& profile, uint64_t genSeed)
{
    Input p;
    p.name = profile.name + "-" + std::to_string(genSeed);
    p.source = fuzz::generateProgram(genSeed, profile).render();
    p.entry = fuzz::GenProgram::entryName();
    p.args = {static_cast<uint32_t>(genSeed % 64 + 1)};
    return p;
}

std::vector<uint64_t>
seedStream(uint64_t seed, uint64_t stream, size_t n)
{
    // Hash the seed first: splitmix64 steps its state by a constant, so
    // plain seed arithmetic would make seed s+1 replay seed s shifted.
    fuzz::Rng mixer(seed);
    fuzz::Rng rng(mixer.next() ^ (stream * 0xd1b54a32d192ed03ull));
    std::vector<uint64_t> out(n);
    for (uint64_t& v : out)
        v = rng.next() >> 16; // generator seeds stay printable
    return out;
}

std::vector<size_t>
shuffledOrder(uint64_t seed, uint64_t stream, size_t n)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; i++)
        order[i] = i;
    std::vector<uint64_t> r = seedStream(seed, stream, n);
    for (size_t i = n; i > 1; i--)
        std::swap(order[i - 1], order[r[i - 1] % i]);
    return order;
}

Reference
referenceReturn(const Input& p)
{
    Reference ref;
    try {
        if (p.isKernel) {
            cash::Program ast = parseProgram(p.source);
            analyzeProgram(ast);
            MemoryLayout layout;
            layout.build(ast);
            Interpreter interp(ast, layout);
            ref.value = interp.call(p.entry, p.args).returnValue;
            ref.ok = true;
        } else {
            CompileResult r = compileSource(
                p.source, CompileOptions().opt(OptLevel::None).jobs(1));
            DataflowSimulator sim(r.graphPtrs(), *r.layout,
                                  MemConfig::perfectMemory(),
                                  SimEngine::Event);
            SimResult out = sim.run(p.entry, p.args);
            ref.ok = out.ok() && r.ok();
            ref.value = out.returnValue;
            if (!ref.ok)
                ref.error = "-O0 reference: " + (out.ok() ? std::string(
                                                    "pass rollback")
                                                          : out.error);
        }
    } catch (const FatalError& e) {
        ref.error = std::string("reference: ") + e.what();
    }
    return ref;
}

void
parallelFor(size_t n, int threads, const std::function<void(size_t)>& fn)
{
    std::atomic<size_t> next{0};
    std::mutex errorMu;
    std::exception_ptr error;
    auto work = [&] {
        try {
            for (size_t i; (i = next++) < n;)
                fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMu);
            if (!error)
                error = std::current_exception();
            next = n;
        }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; t++)
        pool.emplace_back(work);
    work();
    for (std::thread& t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

std::vector<Reference>
referenceReturns(const std::vector<Input>& programs, int threads)
{
    std::vector<Reference> out(programs.size());
    parallelFor(programs.size(), threads,
                [&](size_t i) { out[i] = referenceReturn(programs[i]); });
    return out;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

void
Report::add(const std::string& name, double value, const std::string& unit)
{
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void
Report::failOp(const std::string& why)
{
    if (failed++ < 5)
        std::fprintf(stderr, "perfbench: FAILED op: %s\n", why.c_str());
}

void
Report::failCheck(const std::string& why)
{
    checksFailed = true;
    std::fprintf(stderr, "perfbench: FAILED check: %s\n", why.c_str());
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); i++) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double logSum = 0;
    for (double x : v)
        logSum += std::log(std::max(x, 1.0));
    return std::exp(logSum / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double
medianSetupSeconds(int reps, const std::function<void()>& setup)
{
    std::vector<double> s;
    for (int i = 0; i < reps; i++) {
        Clock::time_point t0 = Clock::now();
        setup();
        s.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }
    return median(s);
}

std::vector<double>
timedLoop(double seconds, const std::function<void(size_t)>& op,
          const std::function<void(size_t)>& after)
{
    std::vector<double> ms;
    double timedMs = 0;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0;; i++) {
        Clock::time_point t0 = Clock::now();
        op(i);
        double m = msBetween(t0, Clock::now());
        ms.push_back(m);
        timedMs += m;
        after(i);
        // The second bound only matters if untimed checks get slow.
        if (timedMs >= seconds * 1000 ||
            msBetween(start, Clock::now()) >= seconds * 2000)
            break;
    }
    return ms;
}

void
addLatencyMetrics(Report& r, const std::vector<double>& opMs,
                  double wallSeconds)
{
    r.add("op_ms_p50", quantile(opMs, 0.50), "ms");
    r.add("op_ms_p95", quantile(opMs, 0.95), "ms");
    r.add("ops_per_s",
          wallSeconds > 0 ? static_cast<double>(opMs.size()) / wallSeconds
                          : 0,
          "ops/s");
    std::printf("ops: %zu in %.3f s; p50 %.3f ms, p95 %.3f ms "
                "(%zu samples above p95)\n",
                opMs.size(), wallSeconds, quantile(opMs, 0.50),
                quantile(opMs, 0.95), opMs.size() / 20);
}

// ---------------------------------------------------------------------
// Counts
// ---------------------------------------------------------------------

namespace {

bool
endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

void
Counts::addCompile(const StatSet& stats, int64_t errors)
{
    programs++;
    nodesInitial += stats.get("ir.nodes.initial");
    nodesFinal += stats.get("ir.nodes.final");
    rollbacks += stats.get("opt.rollbacks");
    analysisErrors += errors;
    for (const auto& [k, v] : stats.all()) {
        if (k.rfind("opt.pass.", 0) == 0) {
            if (endsWith(k, ".runs"))
                passRuns += v;
        } else if (k.rfind("opt.", 0) == 0 && endsWith(k, ".changed")) {
            passChanged += v;
        }
    }
}

void
Counts::addSim(const StatSet& stats, uint64_t simCycles)
{
    simulated++;
    cycles.push_back(static_cast<double>(simCycles));
    events += stats.get("sim.events");
    heapOps += stats.get("sim.queue.heap_ops");
    memAccesses += stats.get("sim.mem.accesses");
    l1Misses += stats.get("sim.mem.l1.misses");
    lsqPortStalls += stats.get("sim.mem.lsq.portStalls");
    fabricCut += stats.get("fabric.edges.cut");
    fabricHopCycles += stats.get("fabric.hop_cycles");
}

std::string
Counts::line() const
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "deterministic counts (two runs of one commit with this "
                  "seed must repeat them exactly): programs=%lld "
                  "ir_nodes_final=%lld sim_cycles_geomean=%.6f "
                  "simulated=%lld opt.pass_runs=%lld opt.rollbacks=%lld "
                  "analysis.errors=%lld sim.events=%lld",
                  static_cast<long long>(programs),
                  static_cast<long long>(nodesFinal), cyclesGeomean(),
                  static_cast<long long>(simulated),
                  static_cast<long long>(passRuns),
                  static_cast<long long>(rollbacks),
                  static_cast<long long>(analysisErrors),
                  static_cast<long long>(events));
    return buf;
}

} // namespace perfbench
