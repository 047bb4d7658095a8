#include "driver/driver_lib.h"

#include <chrono>
#include <cstdlib>
#include <sstream>

#include "analysis/interproc.h"
#include "pegasus/dot.h"
#include "service/protocol.h"
#include "support/strings.h"
#include "support/trace.h"

namespace cash {

std::string
versionString(const std::string& tool)
{
    return tool + " " + kCashVersion + " (" + kSvcSchema +
           ", protocol " + std::to_string(kSvcProtocolVersion) + ")";
}

const char* const kRequestFlagUsage =
    "  [--target opt=..,mem=..,engine=..,fabric=..,ipo=..]\n"
    "  [--passes a,b,c] [--run 'f(1,2)'] [--max-events N]\n"
    "  [--strict] [--verify-each-pass] [--no-verify]\n"
    "  [--analyze[=rule,...]] [--analyze-strict]\n"
    "  [--dump-cfg] [--dump-graph] [--dot]\n";

namespace {

std::vector<std::string>
splitList(const std::string& csv)
{
    std::vector<std::string> out;
    for (const std::string& s : split(csv, ','))
        if (!trim(s).empty())
            out.push_back(trim(s));
    return out;
}

/** The request flags that take a value ("--flag V" or "--flag=V"). */
RequestFlag
parseValueFlag(int argc, char** argv, int* i, DriverRequest* req,
               std::string* error)
{
    const std::string arg = argv[*i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    if (name != "--target" && name != "--passes" && name != "--run" &&
        name != "--max-events")
        return RequestFlag::NotMine;
    std::string value;
    if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
    } else if (*i + 1 < argc) {
        value = argv[++*i];
    } else {
        *error = name + " needs a value";
        return RequestFlag::Bad;
    }

    Status st = Status::ok();
    if (name == "--target") {
        st = req->target.merge(value);
    } else if (name == "--passes") {
        for (std::string& p : splitList(value))
            req->passNames.push_back(std::move(p));
    } else if (name == "--run") {
        std::string fn;
        std::vector<uint32_t> args;
        st = parseRunSpec(value, &fn, &args);
        req->runSpec = value;
    } else {
        char* end = nullptr;
        req->maxEvents = std::strtoull(value.c_str(), &end, 10);
        if (value.empty() || value[0] == '-' || *end != '\0')
            st = Status::error(ErrorCode::InternalError,
                               "--max-events wants a non-negative"
                               " integer, got '" + value + "'");
    }
    if (!st) {
        *error = st.message();
        return RequestFlag::Bad;
    }
    return RequestFlag::Consumed;
}

} // namespace

RequestFlag
parseRequestFlag(int argc, char** argv, int* i, DriverRequest* req,
                 std::string* error)
{
    const std::string arg = argv[*i];
    if (arg == "--strict") {
        req->strict = true;
    } else if (arg == "--verify-each-pass") {
        req->verify = true;
        req->orderingChecks = true;
    } else if (arg == "--no-verify") {
        req->verify = false;
    } else if (arg == "--analyze") {
        req->analyze = true;
    } else if (arg.rfind("--analyze=", 0) == 0) {
        req->analyze = true;
        for (std::string& r : splitList(arg.substr(10)))
            req->analyzeRules.push_back(std::move(r));
    } else if (arg == "--analyze-strict") {
        req->analyze = true;
        req->analyzeStrict = true;
    } else if (arg == "--dump-cfg") {
        req->wantCfg = true;
    } else if (arg == "--dump-graph") {
        req->wantGraphText = true;
    } else if (arg == "--dot") {
        req->wantDot = true;
    } else {
        return parseValueFlag(argc, argv, i, req, error);
    }
    return RequestFlag::Consumed;
}

Status
parseRunSpec(const std::string& spec, std::string* function,
             std::vector<uint32_t>* args)
{
    function->clear();
    args->clear();
    size_t open = spec.find('(');
    if (open == std::string::npos) {
        *function = trim(spec);
    } else {
        size_t close = spec.rfind(')');
        if (close == std::string::npos || close < open)
            return Status::error(ErrorCode::InternalError,
                                 "bad run spec '" + spec +
                                     "': unbalanced parentheses");
        *function = trim(spec.substr(0, open));
        std::string inner = spec.substr(open + 1, close - open - 1);
        for (const std::string& s : split(inner, ',')) {
            std::string t = trim(s);
            if (t.empty())
                continue;
            const char* c = t.c_str();
            char* end = nullptr;
            long long v = std::strtoll(c, &end, 10);
            if (end == c || *end != '\0')
                return Status::error(ErrorCode::InternalError,
                                     "bad run spec '" + spec +
                                         "': argument '" + t +
                                         "' is not an integer");
            args->push_back(static_cast<uint32_t>(v));
        }
    }
    if (function->empty())
        return Status::error(ErrorCode::InternalError,
                             "bad run spec '" + spec +
                                 "': empty function name");
    return Status::ok();
}

StatSet
stripWallClock(const StatSet& stats)
{
    StatSet out;
    for (const auto& [k, v] : stats.all()) {
        if (k.rfind("time.", 0) == 0)
            continue;
        if (k.size() > 8 && k.compare(k.size() - 8, 8, ".time_us") == 0)
            continue;
        if (stats.isGauge(k))
            out.set(k, v);
        else
            out.add(k, v);
    }
    return out;
}

DriverReply
runDriverRequest(const DriverRequest& req)
{
    DriverReply rep;

    CompileOptions opts;
    opts.level = req.target.level;
    opts.verify = req.verify;
    opts.numJobs = req.jobs;
    opts.passNames = req.passNames;
    opts.strict = req.strict;
    opts.orderingChecks = req.orderingChecks;
    opts.faults = req.faults;
    opts.tracer = req.tracer;
    opts.interproc = req.target.interproc;

    try {
        CompileResult r = compileSource(req.source, opts);
        rep.compileStats = r.stats;
        rep.diagnostics = r.diagnostics;
        if (!r.ok())
            rep.exitCode = 1;

        if (req.wantCfg)
            for (const auto& fn : r.cfg->functions)
                rep.cfgText += fn->str();
        if (req.wantGraphText)
            for (const auto& g : r.graphs)
                rep.graphText += toText(*g);
        if (req.wantDot)
            for (const auto& g : r.graphs)
                rep.dot += toDot(*g);
        if (req.dumpSummaries && r.summaries) {
            rep.summariesText = r.summaries->dump();
            rep.summariesJson = r.summaries->json();
        }

        if (req.analyze) {
            using Clock = std::chrono::steady_clock;
            const Clock::time_point t0 = Clock::now();
            // Fresh interprocedural model over the *final* graphs: the
            // checker-side re-derivation that independently re-proves
            // every pruned cross-call edge (analysis/interproc.h).
            InterprocModel interprocModel(
                r.graphPtrs(), r.cfg->paramLocation, *r.layout);
            LintContext lctx;
            lctx.oracle = &r.cfg->oracle;
            lctx.layout = r.layout.get();
            lctx.stats = &rep.compileStats;
            lctx.interproc = &interprocModel;
            if (req.tracer && req.tracer->enabled())
                lctx.tracer = req.tracer;
            LintReport report =
                runLints(r.graphPtrs(), lctx, req.analyzeRules);
            // Analysis wall time: the interprocedural model plus the
            // lint rules.
            rep.compileStats.set(
                "time.analysis.us",
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - t0)
                    .count());
            rep.findings = report.findings;
            rep.ranAnalysis = true;
            rep.analysisErrors = report.errors();
            rep.analysisWarnings = report.warnings();
            rep.analysisInfos = report.infos();
            if (req.analyzeStrict && report.errors() > 0) {
                rep.exitCode = 2;
                rep.analysisBlockedRun = true;
            }
        }

        if (!req.runSpec.empty() && !rep.analysisBlockedRun) {
            std::string fname;
            std::vector<uint32_t> args;
            Status st = parseRunSpec(req.runSpec, &fname, &args);
            if (!st) {
                rep.fatal = st.message();
                rep.exitCode = 1;
                return rep;
            }
            MemConfig mc = MemConfig::realistic(2);
            SimEngine engine = SimEngine::Macro;
            st = req.target.resolve(&mc, &engine);
            if (!st) {
                rep.fatal = st.message();
                rep.exitCode = 1;
                return rep;
            }
            rep.memName = mc.name;

            // Tiled fabric (docs/FABRIC.md): place every graph onto
            // the grid; a trivial (1x1) fabric costs nothing and is
            // byte-identical to the idealized-fabric path.
            FabricSession fabric;
            const FabricSession* fabricPtr = nullptr;
            if (!req.target.fabric.trivial()) {
                fabric = placeAll(r.graphPtrs(), req.target.fabric);
                fabricPtr = &fabric;
            }

            // Simulation wall time (time.sim.*): construction (index
            // build, region compile) and the run itself.
            using Clock = std::chrono::steady_clock;
            auto us = [](Clock::time_point a, Clock::time_point b) {
                return static_cast<int64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        b - a)
                        .count());
            };
            const Clock::time_point t0 = Clock::now();
            DataflowSimulator sim(r.graphPtrs(), *r.layout, mc,
                                  engine, fabricPtr);
            const Clock::time_point t1 = Clock::now();
            if (req.tracer && req.tracer->enabled())
                sim.setTracer(req.tracer);
            if (req.maxEvents)
                sim.setMaxEvents(req.maxEvents);
            if (req.simWallMs)
                sim.setWallBudgetMs(req.simWallMs);
            if (req.faults && !req.faults->empty())
                sim.setFaultPlan(req.faults);
            SimResult out = sim.run(fname, args);
            const Clock::time_point t2 = Clock::now();
            rep.ranSim = true;
            rep.simOutcome = out.outcome;
            rep.returnValue = out.returnValue;
            rep.cycles = out.cycles;
            rep.simStats = out.stats;
            rep.simStats.set("time.sim.setup.us", us(t0, t1));
            rep.simStats.set("time.sim.run.us", us(t1, t2));
            if (out.ok()) {
                rep.simStats.set("sim.returnValue",
                                 static_cast<int64_t>(out.returnValue));
            } else {
                rep.simError = out.error;
                if (out.outcome == SimOutcome::Deadlock)
                    rep.deadlockText = out.deadlock.str();
                rep.exitCode = 1;
            }
        }
    } catch (const FatalError& e) {
        rep.fatal = e.what();
        rep.exitCode = 1;
    }
    return rep;
}

namespace {

/** One compile diagnostic as a JSON object (docs/SCHEMAS.md). */
std::string
diagnosticJson(const PassFailure& d)
{
    return std::string("{\"function\": \"") + jsonEscape(d.function) +
           "\", \"pass\": \"" + jsonEscape(d.pass) +
           "\", \"round\": " + std::to_string(d.round) +
           ", \"code\": \"" + errorCodeName(d.code) +
           "\", \"message\": \"" + jsonEscape(d.message) + "\"}";
}

} // namespace

StatsJsonMeta
statsJsonMeta(const DriverRequest& req, const std::string& file)
{
    StatsJsonMeta meta;
    meta.file = file;
    meta.run = req.runSpec;
    meta.mem = req.target.mem;
    meta.level = req.target.level;
    // Only non-default targets surface the target string, so
    // idealized-fabric documents keep their historical bytes.
    if (!req.target.fabric.trivial() || !req.target.interproc)
        meta.target = req.target.str();
    return meta;
}

std::string
statsJsonDocument(const DriverReply& rep, const StatsJsonMeta& meta,
                  bool deterministic)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"cash-stats-v1\",\n"
       << "  \"meta\": {\n"
       << "    \"file\": \"" << jsonEscape(meta.file) << "\",\n"
       << "    \"opt_level\": \"" << optLevelName(meta.level) << "\",\n"
       << "    \"mem\": \"" << jsonEscape(meta.mem) << "\",\n";
    if (!meta.target.empty())
        os << "    \"target\": \"" << jsonEscape(meta.target)
           << "\",\n";
    os << "    \"run\": \"" << jsonEscape(meta.run) << "\",\n"
       << "    \"exit\": " << rep.exitCode;
    if (!rep.fatal.empty())
        os << ",\n    \"error\": \"" << jsonEscape(rep.fatal) << "\"";
    if (!rep.simError.empty())
        os << ",\n    \"sim_error\": \"" << jsonEscape(rep.simError)
           << "\"";
    os << "\n  },\n";
    if (!rep.diagnostics.empty()) {
        os << "  \"diagnostics\": [\n";
        for (size_t d = 0; d < rep.diagnostics.size(); d++)
            os << "    " << diagnosticJson(rep.diagnostics[d])
               << (d + 1 < rep.diagnostics.size() ? ",\n" : "\n");
        os << "  ],\n";
    }
    if (rep.ranAnalysis || !rep.summariesJson.empty()) {
        os << "  \"analysis\": {";
        bool needComma = false;
        if (rep.ranAnalysis) {
            os << "\n    \"findings\": [";
            for (size_t f = 0; f < rep.findings.size(); f++)
                os << (f ? ",\n      " : "\n      ")
                   << rep.findings[f].json();
            os << (rep.findings.empty() ? "]" : "\n    ]");
            needComma = true;
        }
        if (!rep.summariesJson.empty()) {
            // Pre-rendered ModRefSummaries::json() object body
            // (docs/SCHEMAS.md, `analysis.summaries`).
            os << (needComma ? ",\n    " : "\n    ")
               << "\"summaries\": " << rep.summariesJson;
        }
        os << "\n  },\n";
    }
    const StatSet compile =
        deterministic ? stripWallClock(rep.compileStats)
                      : rep.compileStats;
    os << "  \"compile\": " << statSetJson(compile, 2);
    if (rep.ranSim) {
        const StatSet sim = deterministic ? stripWallClock(rep.simStats)
                                          : rep.simStats;
        os << ",\n  \"sim\": " << statSetJson(sim, 2);
    }
    os << "\n}\n";
    return os.str();
}

} // namespace cash
