/**
 * @file
 * `cashc` — command-line driver: compile a Mini-C file to Pegasus,
 * optionally dump the graph (text or dot) and run it on the spatial
 * simulator.  All the actual work happens in the shared driver
 * library (driver_lib.h), which `cashd` (docs/SERVICE.md) reuses;
 * this file only translates argv → DriverRequest and
 * DriverReply → stdout/stderr/artifacts.
 *
 * Usage:
 *   cashc [options] file.c
 *     -O none|medium|full   optimization level (default full);
 *                           -O0/-O1/-O2/-O3 alias none/medium/full/full
 *     -j N, --jobs N        optimization worker threads (default: one
 *                           per hardware thread; output is identical
 *                           at any N)
 *     --passes=a,b,c        custom pass pipeline (PassRegistry names)
 *                           instead of the -O standard pipeline
 *     --list-passes         print registered pass names and exit
 *     --dump-cfg            print the three-address CFG
 *     --dump-graph          print the Pegasus graphs (text)
 *     --dump-summaries      print the whole-program MOD/REF summaries
 *                           (per-function sets + per-call-site resolved
 *                           effects; also adds `analysis.summaries` to
 *                           --stats-json, docs/SCHEMAS.md)
 *     --dot                 print Graphviz dot for all graphs
 *     --run f(a,b,...)      simulate calling f with integer args
 *     --target SPEC         the full compile/simulate target in one
 *                           spec (driver/target_spec.h):
 *                           opt=O2,mem=real2,engine=macro,fabric=4x4:hop2
 *                           Fields may repeat/combine with the flags
 *                           below; the last setting of a field wins.
 *     --fabric SPEC         tiled fabric for --run (docs/FABRIC.md),
 *                           e.g. 4x4, 2x2:hop3:credit8; alias for
 *                           --target fabric=SPEC (default 1x1: the
 *                           paper's idealized fabric)
 *     --mem perfect|real1|real2|real4   memory system for --run
 *                           (deprecated alias for --target mem=...)
 *     --engine event|macro  simulation engine for --run (default
 *                           macro: compiled super-operators, same
 *                           cycles/results as event, faster;
 *                           deprecated alias for --target engine=...)
 *     --max-events N        simulator event budget (livelock guard)
 *     --strict              fail fast: pass failures raise immediately
 *                           instead of rollback + quarantine
 *     --verify-each-pass    run the graph verifier AND the memory-
 *                           ordering soundness checker after every
 *                           pass that changed the graph (errors roll
 *                           the pass back; an unchanged graph that
 *                           already passed is not checked again)
 *     --no-verify           skip graph verification entirely
 *     --analyze[=r1,r2]     run the lint rules over the final graphs
 *                           (default: all rules; see docs/ANALYSIS.md)
 *     --analyze-strict      exit 2 on error-severity findings and skip
 *                           simulation (implies --analyze)
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
#include "support/fault_injection.h"
#include "support/strings.h"
#include "support/trace.h"

using namespace cash;

namespace {

int
usage()
{
    std::cerr <<
        "usage: cashc [-O none|medium|full | -O0..-O3] [-j N]\n"
        "             [--passes=a,b,c]\n"
        "             [--list-passes] [--dump-cfg] [--dump-graph]"
        " [--dump-summaries] [--dot]\n"
        "             [--run 'f(1,2)'] [--mem perfect|real1|real2|real4]"
        " [--stats]\n"
        "             [--engine event|macro]"
        " [--target opt=..,mem=..,engine=..,fabric=..]\n"
        "             [--fabric RxC[:hopL][:capN][:creditK]]\n"
        "             [--max-events N] [--strict] [--verify-each-pass]"
        " [--no-verify]\n"
        "             [--analyze[=rule,...]] [--analyze-strict]"
        " [--list-lints]\n"
        "             [--inject=SPEC] [--stats-json out.json]"
        " [--trace out.json]\n"
        "             [--version] [--verbose] file.c\n";
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

    // Every target-shaped flag — the canonical --target and the
    // deprecated -O/--mem/--engine/--fabric aliases — funnels through
    // TargetSpec::setField, so each value is parsed exactly once and
    // the CLI can never drift from the service's options.target path.
    auto setTarget = [&](const std::string& key,
                         const std::string& value) {
        Status st = req.target.setField(key, value);
        if (!st)
            std::cerr << "cashc: " << st.message() << "\n";
        return st.isOk();
    };

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "-O" && i + 1 < argc) {
            if (!setTarget("opt", argv[++i]))
                return usage();
        } else if (arg.rfind("-O", 0) == 0 && arg.size() == 3) {
            if (!setTarget("opt", arg.substr(1)))
                return usage();
        } else if (arg == "-j" || arg == "--jobs") {
            if (i + 1 >= argc)
                return usage();
            req.jobs = std::atoi(argv[++i]);
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2 &&
                   std::isdigit(static_cast<unsigned char>(arg[2]))) {
            req.jobs = std::atoi(arg.c_str() + 2);
        } else if (arg.rfind("--passes=", 0) == 0) {
            for (const std::string& s : split(arg.substr(9), ','))
                if (!trim(s).empty())
                    req.passNames.push_back(trim(s));
        } else if (arg == "--passes" && i + 1 < argc) {
            for (const std::string& s : split(argv[++i], ','))
                if (!trim(s).empty())
                    req.passNames.push_back(trim(s));
        } else if (arg == "--list-passes") {
            for (const std::string& n : PassRegistry::global().names())
                std::cout << n << "\n";
            return 0;
        } else if (arg == "--version") {
            std::cout << versionString("cashc") << "\n";
            return 0;
        } else if (arg == "--dump-cfg") {
            req.wantCfg = true;
        } else if (arg == "--dump-graph") {
            req.wantGraphText = true;
        } else if (arg == "--dump-summaries") {
            req.dumpSummaries = true;
        } else if (arg == "--dot") {
            req.wantDot = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            traceFile = argv[++i];
        } else if (arg == "--stats-json" && i + 1 < argc) {
            statsJsonFile = argv[++i];
        } else if (arg == "--verbose" || arg == "-v") {
            traceLevel++;
        } else if (arg == "--stats") {
            showStats = true;
        } else if (arg == "--strict") {
            req.strict = true;
        } else if (arg == "--verify-each-pass") {
            req.verify = true;
            req.orderingChecks = true;
        } else if (arg == "--no-verify") {
            req.verify = false;
        } else if (arg == "--analyze") {
            req.analyze = true;
        } else if (arg.rfind("--analyze=", 0) == 0) {
            req.analyze = true;
            for (const std::string& s : split(arg.substr(10), ','))
                if (!trim(s).empty())
                    req.analyzeRules.push_back(trim(s));
        } else if (arg == "--analyze-strict") {
            req.analyze = true;
            req.analyzeStrict = true;
        } else if (arg == "--list-lints") {
            for (const std::string& n : LintRegistry::global().names())
                std::cout << n << "\n";
            return 0;
        } else if (arg == "--max-events" && i + 1 < argc) {
            req.maxEvents = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg.rfind("--inject=", 0) == 0) {
            injectSpec = arg.substr(9);
        } else if (arg == "--inject" && i + 1 < argc) {
            injectSpec = argv[++i];
        } else if (arg == "--run" && i + 1 < argc) {
            req.runSpec = argv[++i];
        } else if (arg == "--mem" && i + 1 < argc) {
            if (!setTarget("mem", argv[++i]))
                return usage();
        } else if (arg == "--engine" && i + 1 < argc) {
            if (!setTarget("engine", argv[++i]))
                return usage();
        } else if (arg.rfind("--engine=", 0) == 0) {
            if (!setTarget("engine", arg.substr(9)))
                return usage();
        } else if (arg == "--fabric" && i + 1 < argc) {
            if (!setTarget("fabric", argv[++i]))
                return usage();
        } else if (arg.rfind("--fabric=", 0) == 0) {
            if (!setTarget("fabric", arg.substr(9)))
                return usage();
        } else if (arg == "--target" && i + 1 < argc) {
            Status st = req.target.merge(argv[++i]);
            if (!st) {
                std::cerr << "cashc: " << st.message() << "\n";
                return usage();
            }
        } else if (arg.rfind("--target=", 0) == 0) {
            Status st = req.target.merge(arg.substr(9));
            if (!st) {
                std::cerr << "cashc: " << st.message() << "\n";
                return usage();
            }
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

    // Render the reply.  Observability artifacts are written on every
    // exit path: a degraded or failed run still flushes whatever it
    // recorded.
    if (!rep.fatal.empty())
        std::cerr << "cashc: " << rep.fatal << "\n";
    for (const PassFailure& d : rep.diagnostics)
        std::cerr << "cashc: " << d.str() << "\n";
    if (!rep.diagnostics.empty())
        std::cerr << "cashc: " << rep.diagnostics.size()
                  << " pass failure(s) rolled back; output may be"
                     " less optimized\n";

    std::cout << rep.cfgText << rep.graphText << rep.summariesText
              << rep.dot;

    if (rep.ranAnalysis) {
        for (const LintFinding& f : rep.findings)
            std::cout << f.str() << "\n";
        std::cerr << "cashc: analysis: " << rep.analysisErrors
                  << " error(s), " << rep.analysisWarnings
                  << " warning(s), " << rep.analysisInfos
                  << " info(s)\n";
        if (rep.analysisBlockedRun)
            std::cerr << "cashc: --analyze-strict: error findings;"
                         " skipping simulation\n";
    }

    if (rep.ranSim) {
        if (rep.simOutcome == SimOutcome::Ok) {
            std::cout << req.runSpec.substr(0, req.runSpec.find('('))
                      << " returned " << rep.returnValue << " in "
                      << rep.cycles << " cycles (" << rep.memName
                      << " memory)\n";
        } else {
            std::cerr << "cashc: simulation failed ("
                      << simOutcomeName(rep.simOutcome)
                      << "): " << rep.simError << "\n";
            if (!rep.deadlockText.empty())
                std::cerr << rep.deadlockText << "\n";
        }
        if (showStats)
            std::cout << rep.simStats.str();
    }
    if (showStats)
        std::cout << rep.compileStats.str();

    int exitCode = rep.exitCode;
    if (!statsJsonFile.empty()) {
        std::ofstream os(statsJsonFile);
        if (!os) {
            std::cerr << "cashc: cannot write " << statsJsonFile << "\n";
            if (exitCode == 0)
                exitCode = 1;
        } else {
            StatsJsonMeta meta;
            meta.file = file;
            meta.run = req.runSpec;
            meta.mem = req.target.mem;
            meta.level = req.target.level;
            // Only non-default targets surface the target string, so
            // idealized-fabric documents keep their historical bytes.
            if (!req.target.fabric.trivial() || !req.target.interproc)
                meta.target = req.target.str();
            os << statsJsonDocument(rep, meta);
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
