/**
 * @file
 * perfbench — the request benchmark of the CASH toolchain (README.md).
 *
 *   perfbench --workload <suite|gen-compile|sim-sweep|service-mix>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * Prints a human-readable account of the run, then, as the last stdout
 * line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones.  Exits non-zero without a result line on bad arguments or an
 * internal error.
 */
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<suite|gen-compile|sim-sweep|service-mix> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    return 2;
}

bool
parseNumber(const char* s, double* out)
{
    char* end = nullptr;
    *out = std::strtod(s, &end);
    return end != s && *end == '\0';
}

bool
parseSeed(const char* s, uint64_t* out)
{
    if (*s < '0' || *s > '9')
        return false;
    char* end = nullptr;
    errno = 0;
    *out = std::strtoull(s, &end, 10);
    return errno == 0 && *end == '\0';
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Args a;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char* v = argv[++i];
        double num = 0;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed" && parseSeed(v, &a.seed)) {
        } else if (flag == "--seconds" && parseNumber(v, &num) && num > 0 &&
                   num <= 600) {
            a.seconds = num;
        } else if (flag == "--trace" &&
                   (std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0)) {
            a.trace = v[0] == '1';
        } else {
            return usage(("bad argument " + flag + " " + v).c_str());
        }
    }

    perfbench::Report r;
    std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0);
    try {
        if (a.workload == "suite")
            perfbench::runSuite(a, r);
        else if (a.workload == "gen-compile")
            perfbench::runGenCompile(a, r);
        else if (a.workload == "sim-sweep")
            perfbench::runSimSweep(a, r);
        else if (a.workload == "service-mix")
            perfbench::runServiceMix(a, r);
        else
            return usage(("unknown workload '" + a.workload + "'").c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
    if (r.attempted == 0) {
        std::fprintf(stderr, "perfbench: no operation ran\n");
        return 1;
    }
    std::printf("%s\n", r.json().c_str());
    return 0;
}
