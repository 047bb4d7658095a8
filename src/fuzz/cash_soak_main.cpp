/**
 * @file
 * `cash-soak` — the traffic-scale fuzz/soak driver (docs/FUZZING.md).
 *
 * Generates seeded Mini-C programs (fuzz/generator.h), pushes each
 * through the differential-oracle matrix (fuzz/oracles.h) on `-j`
 * worker threads, auto-minimizes every violation into a grammar-reduced
 * reproducer (fuzz/minimize.h), and writes corpus artifacts plus a
 * `BENCH_soak.json` report (throughput, latency percentiles, outcome
 * histograms) so reliability is a per-PR trend line.
 *
 * Exit codes: 0 all oracles held (canary mode: every canary was
 * caught), 1 violations (or a missed canary), 2 usage errors.
 */
#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "fuzz/oracles.h"
#include "support/parallel.h"

#include "bench/bench_util.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace cash;
using namespace cash::fuzz;

int
usage(const char* msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "cash-soak: %s\n\n", msg);
    std::fprintf(stderr,
        "usage: cash-soak [options]\n"
        "\n"
        "Campaign:\n"
        "  --seeds A..B        inclusive seed range (default 1..100)\n"
        "  --profile NAME      small|medium|large|calls|mixed\n"
        "                      (default mixed; calls = interprocedural\n"
        "                      stress: many helpers + recursion)\n"
        "  -j, --jobs N        worker threads (default: hardware)\n"
        "  --stop-after N      stop scheduling after N violations\n"
        "\n"
        "Oracles:\n"
        "  --max-events N      per-run simulator event budget\n"
        "                      (default 5000000)\n"
        "  --fabric SPEC       fabric target of the matrix (default\n"
        "                      2x2; 'none' disables it)\n"
        "  --no-jobs-oracle    skip the -j1-vs-jN byte-identity check\n"
        "  --via-socket PATH   soak a running cashd instead of the\n"
        "                      in-process pipeline\n"
        "  --canary            fault-injection canary campaign: every\n"
        "                      seed gets graph.corrupt-token injected\n"
        "                      and the checker oracle must catch it\n"
        "\n"
        "Corpus:\n"
        "  --corpus DIR        reproducer directory (default\n"
        "                      soak_corpus)\n"
        "  --no-minimize       keep original reproducers only\n"
        "  --minimize-cap N    minimize at most N violations\n"
        "                      (default 5)\n"
        "  --replay FILE.c     run the oracle matrix once on FILE.c\n"
        "                      (with --seed N for the run spec)\n"
        "  --seed N            seed used by --replay (default 1)\n"
        "\n"
        "Report:\n"
        "  --report NAME       write BENCH_<NAME>.json (default soak)\n");
    return 2;
}

bool
parseSeedRange(const std::string& text, uint64_t* lo, uint64_t* hi)
{
    size_t dots = text.find("..");
    if (dots == std::string::npos)
        return false;
    try {
        *lo = std::stoull(text.substr(0, dots));
        *hi = std::stoull(text.substr(dots + 2));
    } catch (...) {
        return false;
    }
    return *lo <= *hi;
}

int64_t
percentile(std::vector<int64_t>& sorted, double p)
{
    if (sorted.empty())
        return 0;
    size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

/** One minimized (or original) reproducer written to the corpus. */
void
writeReproducer(const std::string& corpusDir, const CaseReport& rc,
                const std::string& profile, bool canary,
                const std::string& origSource,
                const std::string& minSource,
                const MinimizeStats* min)
{
    std::error_code ec;
    std::filesystem::create_directories(corpusDir, ec);
    const std::string base =
        corpusDir + "/seed" + std::to_string(rc.seed);

    std::ofstream(base + ".orig.c") << origSource;
    if (!minSource.empty())
        std::ofstream(base + ".min.c") << minSource;

    std::ostringstream repro;
    repro << "# category: "
          << (rc.category.empty() ? "canary-detected" : rc.category)
          << "\n";
    if (!rc.detail.empty())
        repro << "# detail: " << rc.detail << "\n";
    if (min)
        repro << "# minimized: " << min->beforeStmts << " -> "
              << min->afterStmts << " statements in " << min->evals
              << " evaluations\n";
    repro << "cash-soak --seeds " << rc.seed << ".." << rc.seed
          << " --profile " << profile << (canary ? " --canary" : "")
          << "\n";
    std::ofstream(base + ".repro") << repro.str();

    std::printf("  reproducer: %s.{orig.c%s,repro}\n", base.c_str(),
                minSource.empty() ? "" : ",min.c");
}

} // namespace

int
main(int argc, char** argv)
{
    uint64_t seedLo = 1, seedHi = 100;
    std::string profileName = "mixed";
    int jobs = 0;
    int64_t stopAfter = 0;
    std::string corpusDir = "soak_corpus";
    std::string reportName = "soak";
    std::string replayFile;
    uint64_t replaySeed = 1;
    bool minimize = true;
    int64_t minimizeCap = 5;
    SoakConfig cfg;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "cash-soak: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seeds") {
            if (!parseSeedRange(value("--seeds"), &seedLo, &seedHi))
                return usage("bad --seeds (want A..B with A <= B)");
        } else if (arg == "--profile") {
            profileName = value("--profile");
        } else if (arg == "-j" || arg == "--jobs") {
            jobs = std::atoi(value("--jobs"));
        } else if (arg == "--stop-after") {
            stopAfter = std::atoll(value("--stop-after"));
        } else if (arg == "--max-events") {
            cfg.maxEvents = std::strtoull(value("--max-events"),
                                          nullptr, 10);
        } else if (arg == "--fabric") {
            cfg.fabric = value("--fabric");
            if (cfg.fabric == "none")
                cfg.fabric.clear();
        } else if (arg == "--no-jobs-oracle") {
            cfg.checkJobs = false;
        } else if (arg == "--via-socket") {
            cfg.viaSocket = value("--via-socket");
        } else if (arg == "--canary") {
            cfg.canary = true;
        } else if (arg == "--corpus") {
            corpusDir = value("--corpus");
        } else if (arg == "--no-minimize") {
            minimize = false;
        } else if (arg == "--minimize-cap") {
            minimizeCap = std::atoll(value("--minimize-cap"));
        } else if (arg == "--replay") {
            replayFile = value("--replay");
        } else if (arg == "--seed") {
            replaySeed = std::strtoull(value("--seed"), nullptr, 10);
        } else if (arg == "--report") {
            reportName = value("--report");
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            return usage(("unknown option '" + arg + "'").c_str());
        }
    }
    if (cfg.canary && !cfg.viaSocket.empty())
        return usage("--canary needs the in-process pipeline "
                     "(the service refuses fault injection)");

    GenProfile profile;
    try {
        profile = GenProfile::byName(profileName);
    } catch (const FatalError& e) {
        return usage(e.what());
    }
    cfg.profile = profileName;

    // ------------------------------------------------------------------
    // Replay mode: one source file through the matrix, verbose result.
    // ------------------------------------------------------------------
    if (!replayFile.empty()) {
        std::ifstream in(replayFile);
        if (!in)
            return usage(("cannot read " + replayFile).c_str());
        std::stringstream ss;
        ss << in.rdbuf();
        CaseReport rc = runCaseOnSource(ss.str(), replaySeed, cfg);
        std::printf("replay %s (seed %llu):\n", replayFile.c_str(),
                    static_cast<unsigned long long>(rc.seed));
        for (const std::string& o : rc.outcomes)
            std::printf("  %s\n", o.c_str());
        if (cfg.canary)
            std::printf("  canary: %s\n",
                        rc.canaryDetected ? "detected" : "MISSED");
        if (rc.violation()) {
            std::printf("  VIOLATION %s: %s\n", rc.category.c_str(),
                        rc.detail.c_str());
            return 1;
        }
        std::printf("  %s\n",
                    rc.inconclusive ? "inconclusive" : "clean");
        return 0;
    }

    // ------------------------------------------------------------------
    // Campaign: the seed range on `-j` worker threads.
    // ------------------------------------------------------------------
    const size_t n = static_cast<size_t>(seedHi - seedLo + 1);
    std::vector<CaseReport> results(n);
    std::vector<char> skipped(n, 0);
    std::atomic<int64_t> violationCount{0};

    auto t0 = std::chrono::steady_clock::now();
    parallelFor(n, jobs, [&](size_t i) {
        if (stopAfter > 0 &&
            violationCount.load(std::memory_order_relaxed) >= stopAfter) {
            skipped[i] = 1;
            return;
        }
        results[i] = runCase(seedLo + i, cfg);
        if (results[i].violation())
            violationCount.fetch_add(1, std::memory_order_relaxed);
    });
    auto elapsedMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();

    // Aggregate.
    int64_t programs = 0, functions = 0, runs = 0, inconclusive = 0;
    int64_t skippedCount = 0, canariesCaught = 0;
    std::vector<int64_t> latencies;
    std::map<std::string, int64_t> histogram;
    std::vector<const CaseReport*> violations;
    for (size_t i = 0; i < n; ++i) {
        if (skipped[i]) {
            ++skippedCount;
            continue;
        }
        const CaseReport& rc = results[i];
        ++programs;
        functions += rc.functions;
        runs += rc.runs;
        if (rc.inconclusive)
            ++inconclusive;
        if (rc.canaryDetected)
            ++canariesCaught;
        if (rc.violation())
            violations.push_back(&rc);
        latencies.insert(latencies.end(), rc.latenciesUs.begin(),
                         rc.latenciesUs.end());
        for (const std::string& o : rc.outcomes)
            ++histogram[o];
    }
    std::sort(latencies.begin(), latencies.end());

    std::printf("cash-soak: %lld programs (%lld functions, %lld "
                "pipeline runs) in %lld ms\n",
                static_cast<long long>(programs),
                static_cast<long long>(functions),
                static_cast<long long>(runs),
                static_cast<long long>(elapsedMs));
    if (cfg.canary)
        std::printf("  canaries caught: %lld/%lld\n",
                    static_cast<long long>(canariesCaught),
                    static_cast<long long>(programs));
    std::printf("  violations: %zu, inconclusive: %lld, skipped: "
                "%lld\n",
                violations.size(),
                static_cast<long long>(inconclusive),
                static_cast<long long>(skippedCount));
    for (const auto& [label, count] : histogram)
        std::printf("  %-28s %lld\n", label.c_str(),
                    static_cast<long long>(count));

    // ------------------------------------------------------------------
    // Minimize + write reproducers.
    // ------------------------------------------------------------------
    int64_t minimized = 0;
    for (const CaseReport* v : violations) {
        std::printf("violation seed=%llu %s: %s\n",
                    static_cast<unsigned long long>(v->seed),
                    v->category.c_str(), v->detail.c_str());
        GenProgram prog = generateProgram(v->seed, profile);
        std::string orig = prog.render();
        std::string minSource;
        MinimizeStats stats;
        bool haveStats = false;
        if (minimize && minimized < minimizeCap) {
            std::string wantCategory = v->category;
            stats = minimizeProgram(
                &prog,
                [&](const std::string& src) {
                    return runCaseOnSource(src, v->seed, cfg)
                               .category == wantCategory;
                });
            minSource = prog.render();
            haveStats = true;
            ++minimized;
        }
        writeReproducer(corpusDir, *v, profileName, cfg.canary, orig,
                        minSource, haveStats ? &stats : nullptr);
    }

    // Canary acceptance artifact: the first *caught* canary is also
    // minimized, proving detection survives grammar reduction.
    if (cfg.canary && violations.empty() && minimize && programs > 0) {
        for (size_t i = 0; i < n; ++i) {
            if (skipped[i] || !results[i].canaryDetected)
                continue;
            const CaseReport& rc = results[i];
            GenProgram prog = generateProgram(rc.seed, profile);
            std::string orig = prog.render();
            MinimizeStats stats = minimizeProgram(
                &prog, [&](const std::string& src) {
                    return runCaseOnSource(src, rc.seed, cfg)
                        .canaryDetected;
                });
            writeReproducer(corpusDir, rc, profileName, true, orig,
                            prog.render(), &stats);
            break;
        }
    }

    // ------------------------------------------------------------------
    // BENCH_soak.json
    // ------------------------------------------------------------------
    benchutil::BenchReport report(reportName);
    report.meta("seeds", std::to_string(seedLo) + ".." +
                             std::to_string(seedHi));
    report.meta("profile", profileName);
    report.meta("mode", cfg.canary
                            ? "canary"
                            : (cfg.viaSocket.empty() ? "in-process"
                                                     : "via-socket"));
    report.meta("programs", programs);
    report.meta("functions", functions);
    report.meta("pipeline_runs", runs);
    report.meta("violations",
                static_cast<int64_t>(violations.size()));
    report.meta("inconclusive", inconclusive);
    report.meta("skipped", skippedCount);
    if (cfg.canary)
        report.meta("canaries_caught", canariesCaught);
    report.meta("elapsed_ms", elapsedMs);
    report.meta("funcs_per_sec",
                elapsedMs > 0 ? static_cast<double>(functions) *
                                    1000.0 /
                                    static_cast<double>(elapsedMs)
                              : 0.0);
    report.meta("latency_p50_us", percentile(latencies, 0.50));
    report.meta("latency_p99_us", percentile(latencies, 0.99));
    for (const auto& [label, count] : histogram) {
        benchutil::JsonRow row;
        row.emplace_back("outcome", label);
        row.emplace_back("count", count);
        report.addRow(std::move(row));
    }
    report.write();

    if (!violations.empty())
        return 1;
    if (cfg.canary && canariesCaught != programs)
        return 1;
    return 0;
}
