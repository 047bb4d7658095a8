/**
 * @file
 * `cashc` — command-line driver: compile a Mini-C file to Pegasus,
 * optionally dump the graph (text or dot) and run it on the spatial
 * simulator.  It is an in-process call of the compile service's
 * request/response path (docs/SERVICE.md): the shared request flags
 * fill a DriverRequest, runDriverRequest() does the work, and the
 * reply is encoded as the service result body (svcResultBody) and
 * printed by the renderer `cash` uses too (renderResultBody).
 *
 * Usage:
 *   cashc [request flags] [local flags] file.c
 *   Request flags — --target, --passes, --run, --max-events, --strict,
 *   --verify-each-pass, --no-verify, --analyze[=rules],
 *   --analyze-strict, --dump-cfg, --dump-graph, --dot — are documented
 *   at parseRequestFlag() (driver_lib.h).  Local flags:
 *     -j N, --jobs N        optimization worker threads (default: one
 *                           per hardware thread; output is identical
 *                           at any N)
 *     --dump-summaries      print the whole-program MOD/REF summaries
 *                           (per-function sets + per-call-site resolved
 *                           effects; also adds `analysis.summaries` to
 *                           --stats-json, docs/SCHEMAS.md)
 *     --list-passes         print registered pass names and exit
 *     --list-lints          print registered lint rule names and exit
 *     --inject=SPEC         deterministic fault injection (testing);
 *                           see docs/ROBUSTNESS.md for the syntax
 *     --stats               print compile + run statistics
 *     --stats-json FILE     write compile + run statistics as JSON
 *     --trace FILE          write a Chrome trace-event file (Perfetto)
 *     --version             print version + wire-protocol level, exit
 *     --verbose             debug logging to stderr (repeat for more)
 *
 * Exit status: 0 on a fully healthy run; 1 when compilation recorded
 * diagnostics (rolled-back passes), the simulation degraded (deadlock,
 * event limit, ...) or a fatal error occurred; 2 on usage errors and
 * on error-severity findings under --analyze-strict.
 * Observability artifacts (--stats-json, --trace) are flushed on every
 * exit path — a failed run still produces its partial stats and trace.
 */
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/lint.h"
#include "driver/driver_lib.h"
#include "service/protocol.h"
#include "support/fault_injection.h"
#include "support/trace.h"

using namespace cash;

namespace {

int
usage()
{
    std::cerr << "usage: cashc [request flags] [local flags] file.c\n"
                 "request flags:\n"
              << kRequestFlagUsage
              << "local flags:\n"
                 "  [-j N] [--dump-summaries] [--list-passes]"
                 " [--list-lints]\n"
                 "  [--inject=SPEC] [--stats] [--stats-json out.json]"
                 " [--trace out.json]\n"
                 "  [--version] [--verbose]\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string file;
    std::string traceFile;
    std::string statsJsonFile;
    std::string injectSpec;
    bool showStats = false;
    DriverRequest req;

    for (int i = 1; i < argc; i++) {
        std::string error;
        RequestFlag r = parseRequestFlag(argc, argv, &i, &req, &error);
        if (r == RequestFlag::Bad) {
            std::cerr << "cashc: " << error << "\n";
            return usage();
        }
        if (r == RequestFlag::Consumed)
            continue;
        std::string arg = argv[i];
        if (arg == "-j" || arg == "--jobs") {
            if (i + 1 >= argc)
                return usage();
            req.jobs = std::atoi(argv[++i]);
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2 &&
                   std::isdigit(static_cast<unsigned char>(arg[2]))) {
            req.jobs = std::atoi(arg.c_str() + 2);
        } else if (arg == "--list-passes") {
            for (const std::string& n : PassRegistry::global().names())
                std::cout << n << "\n";
            return 0;
        } else if (arg == "--list-lints") {
            for (const std::string& n : LintRegistry::global().names())
                std::cout << n << "\n";
            return 0;
        } else if (arg == "--version") {
            std::cout << versionString("cashc") << "\n";
            return 0;
        } else if (arg == "--dump-summaries") {
            req.dumpSummaries = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            traceFile = argv[++i];
        } else if (arg == "--stats-json" && i + 1 < argc) {
            statsJsonFile = argv[++i];
        } else if (arg == "--verbose" || arg == "-v") {
            traceLevel++;
        } else if (arg == "--stats") {
            showStats = true;
        } else if (arg.rfind("--inject=", 0) == 0) {
            injectSpec = arg.substr(9);
        } else if (arg == "--inject" && i + 1 < argc) {
            injectSpec = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            file = arg;
        }
    }
    if (file.empty())
        return usage();

    std::ifstream in(file);
    if (!in) {
        std::cerr << "cashc: cannot open " << file << "\n";
        return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    req.source = buf.str();

    FaultPlan plan;
    if (!injectSpec.empty()) {
        try {
            plan = FaultPlan::parse(injectSpec);
        } catch (const FatalError& e) {
            std::cerr << "cashc: " << e.what() << "\n";
            return usage();
        }
        req.faults = &plan;
    }

    TraceRecorder& tracer = globalTracer();
    if (!traceFile.empty()) {
        tracer.enable();
        req.tracer = &tracer;
    }

    DriverReply rep = runDriverRequest(req);

    // The service's request/response path, in process: encode the
    // reply as the result body and print it with the shared renderer,
    // between the local extras (summaries are not part of the body;
    // printed first, they keep the run line last).  Observability
    // artifacts are written on every exit path: a degraded or failed
    // run still flushes whatever it recorded.
    std::cout << rep.summariesText;
    SvcRequest svcReq;
    svcReq.op = SvcOp::Compile;
    svcReq.driver = req;
    Json body;
    Status parsed = Json::parse(svcResultBody(svcReq, rep), &body);
    CASH_ASSERT(parsed.isOk(), "result body must be valid JSON");
    int exitCode = renderResultBody(body, "cashc", std::cout, std::cerr);
    if (showStats)
        std::cout << rep.simStats.str() << rep.compileStats.str();

    if (!statsJsonFile.empty()) {
        std::ofstream os(statsJsonFile);
        if (!os) {
            std::cerr << "cashc: cannot write " << statsJsonFile << "\n";
            if (exitCode == 0)
                exitCode = 1;
        } else {
            os << statsJsonDocument(rep, statsJsonMeta(req, file));
        }
    }
    if (!traceFile.empty()) {
        std::ofstream os(traceFile);
        if (!os) {
            std::cerr << "cashc: cannot write " << traceFile << "\n";
            if (exitCode == 0)
                exitCode = 1;
        } else {
            tracer.writeChromeTrace(os);
        }
    }
    return exitCode;
}
