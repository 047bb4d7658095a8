/**
 * @file
 * `cashd` — the persistent compile service (docs/SERVICE.md): serves
 * compile/analyze/simulate requests over a Unix-domain socket using
 * the `cash-svc-v1` protocol, with a content-addressed result cache
 * and a set of request workers that each serve one request at a time.
 *
 * Usage:
 *   cashd [options]
 *     --socket PATH      socket path (default $CASH_SOCKET or
 *                        /tmp/cashd.sock)
 *     -j N, --jobs N     request workers (default: one per hardware
 *                        thread)
 *     --cache-entries N  result-cache entry cap (default 4096)
 *     --cache-mb N       result-cache size cap in MiB (default 256)
 *     --max-queue N      pending-request cap (default 4096)
 *     --stats-json FILE  write the final svc.* metrics on exit
 *     --trace FILE       write a Chrome trace (one span per request)
 *     --version          print version + protocol level and exit
 *     --verbose          debug logging to stderr
 *
 * Runs in the foreground (use your service manager to daemonize).
 * SIGTERM/SIGINT — or a client `shutdown` request — trigger a
 * graceful stop: in-flight requests finish and their responses are
 * written before the process exits 0.
 */
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "driver/driver_lib.h"
#include "service/server.h"
#include "support/trace.h"

using namespace cash;

namespace {

volatile std::sig_atomic_t gSignal = 0;

void
onSignal(int sig)
{
    gSignal = sig;
}

int
usage()
{
    std::cerr <<
        "usage: cashd [--socket PATH] [-j N] [--cache-entries N]\n"
        "             [--cache-mb N] [--max-queue N]"
        " [--stats-json FILE]\n"
        "             [--max-events-cap N] [--sim-wall-ms N]\n"
        "             [--trace FILE] [--version] [--verbose]\n";
    return 2;
}

std::string
defaultSocketPath()
{
    const char* env = std::getenv("CASH_SOCKET");
    return env && *env ? env : "/tmp/cashd.sock";
}

} // namespace

int
main(int argc, char** argv)
{
    ServiceConfig cfg;
    cfg.socketPath = defaultSocketPath();
    std::string statsJsonFile;
    std::string traceFile;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            cfg.socketPath = argv[++i];
        } else if ((arg == "-j" || arg == "--jobs") && i + 1 < argc) {
            cfg.jobs = std::atoi(argv[++i]);
        } else if (arg == "--cache-entries" && i + 1 < argc) {
            cfg.cacheEntries =
                static_cast<size_t>(std::atoll(argv[++i]));
        } else if (arg == "--cache-mb" && i + 1 < argc) {
            cfg.cacheBytes =
                static_cast<size_t>(std::atoll(argv[++i])) << 20;
        } else if (arg == "--max-queue" && i + 1 < argc) {
            cfg.maxQueueDepth =
                static_cast<size_t>(std::atoll(argv[++i]));
        } else if (arg == "--max-events-cap" && i + 1 < argc) {
            cfg.maxEventsCap =
                static_cast<uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--sim-wall-ms" && i + 1 < argc) {
            cfg.simWallMs = std::atoll(argv[++i]);
        } else if (arg == "--stats-json" && i + 1 < argc) {
            statsJsonFile = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            traceFile = argv[++i];
        } else if (arg == "--version") {
            std::cout << versionString("cashd") << "\n";
            return 0;
        } else if (arg == "--verbose" || arg == "-v") {
            traceLevel++;
        } else {
            return usage();
        }
    }

    TraceRecorder& tracer = globalTracer();
    if (!traceFile.empty()) {
        tracer.enable();
        cfg.tracer = &tracer;
    }

    ServiceServer server(cfg);
    Status st = server.start();
    if (!st) {
        std::cerr << "cashd: " << st.message() << "\n";
        return 1;
    }
    std::cerr << versionString("cashd") << " listening on "
              << server.socketPath() << "\n";

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    // The signal handler can only set a flag, so poll it alongside
    // the server's own stop request (the client `shutdown` op).
    while (!gSignal && !server.waitForStopRequest(200)) {
    }
    if (gSignal)
        std::cerr << "cashd: caught signal " << gSignal
                  << ", draining\n";
    server.stop();

    StatSet m = server.metrics();
    std::cerr << "cashd: served "
              << m.get("svc.requests.total") << " request(s), "
              << m.get("svc.cache.hits") << " cache hit(s), exiting\n";

    if (!statsJsonFile.empty()) {
        std::ofstream os(statsJsonFile);
        if (!os) {
            std::cerr << "cashd: cannot write " << statsJsonFile
                      << "\n";
            return 1;
        }
        os << "{\n  \"schema\": \"cash-svc-metrics-v1\",\n"
           << "  \"server\": \"cashd\",\n"
           << "  \"version\": \"" << kCashVersion << "\",\n"
           << "  \"metrics\": " << statSetJson(m, 2) << "\n}\n";
    }
    if (!traceFile.empty()) {
        std::ofstream os(traceFile);
        if (!os) {
            std::cerr << "cashd: cannot write " << traceFile << "\n";
            return 1;
        }
        tracer.writeChromeTrace(os);
    }
    return 0;
}
