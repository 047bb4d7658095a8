#include "fuzz/oracles.h"

#include "driver/driver_lib.h"
#include "service/client.h"
#include "support/fault_injection.h"

#include <chrono>

namespace cash {
namespace fuzz {

namespace {

/** Engine-agnostic view of one pipeline run (in-process or socket). */
struct Observed
{
    std::string label;
    bool ok = false;          ///< Transport/fatal layer succeeded.
    bool transport = false;   ///< Error is transport, not compile.
    std::string error;        ///< Transport or fatal message.
    int exitCode = 0;
    int64_t verifierDiags = 0;
    int64_t checkerErrors = 0;
    bool ranAnalysis = false;
    bool ranSim = false;
    std::string outcome;      ///< simOutcomeName spelling.
    int64_t returnValue = 0;
    int64_t firings = -1;     ///< -1 = not reported.
};

int64_t
nowUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The per-case simulation spec: entry arg varies with the seed. */
std::string
runSpecFor(uint64_t seed)
{
    return "run(" + std::to_string(seed % 17) + ")";
}

/** One compile+sim target of the differential matrix. */
struct TargetCase
{
    std::string label;
    TargetSpec spec;
    bool analyze = false;
};

Status
buildMatrix(const SoakConfig& cfg, std::vector<TargetCase>* out)
{
    TargetCase base;
    base.spec.mem = "real2";
    base.spec.engine = "macro";

    TargetCase o0 = base;
    o0.label = "O0-macro";
    o0.spec.level = OptLevel::None;
    out->push_back(o0);

    TargetCase o3 = base;
    o3.label = "O3-macro";
    o3.spec.level = OptLevel::Full;
    o3.analyze = true;  // Oracle B reads this target's findings.
    out->push_back(o3);

    TargetCase ev = o3;
    ev.label = "O3-event";
    ev.spec.engine = "event";
    ev.analyze = false;
    out->push_back(ev);

    // Pruning-on vs. pruning-off differential: the interprocedural
    // token pruning (default-on at Full) must never change results.
    TargetCase noipo = o3;
    noipo.label = "O3-noipo";
    noipo.spec.interproc = false;
    noipo.analyze = false;
    out->push_back(noipo);

    if (!cfg.fabric.empty()) {
        TargetCase fb = o3;
        fb.label = "O3-fabric";
        fb.analyze = false;
        Status st = fb.spec.setField("fabric", cfg.fabric);
        if (!st)
            return st;
        out->push_back(fb);
    }
    return Status::ok();
}

DriverRequest
baseRequest(const std::string& source, const SoakConfig& cfg,
            const std::string& runSpec)
{
    DriverRequest req;
    req.source = source;
    req.jobs = 1;
    req.runSpec = runSpec;
    req.maxEvents = cfg.maxEvents;
    return req;
}

/** The request both oracle-A paths run: in process and via cashd. */
DriverRequest
targetRequest(const std::string& source, const SoakConfig& cfg,
              const TargetCase& t, const std::string& runSpec)
{
    DriverRequest req = baseRequest(source, cfg, runSpec);
    req.target = t.spec;
    req.analyze = t.analyze;
    return req;
}

Observed
observeReply(const std::string& label, const DriverReply& rep)
{
    Observed o;
    o.label = label;
    o.ok = rep.fatal.empty();
    o.error = rep.fatal;
    o.exitCode = rep.exitCode;
    o.verifierDiags = static_cast<int64_t>(rep.diagnostics.size());
    o.checkerErrors = rep.analysisErrors;
    o.ranAnalysis = rep.ranAnalysis;
    o.ranSim = rep.ranSim;
    if (rep.ranSim) {
        o.outcome = simOutcomeName(rep.simOutcome);
        o.returnValue = static_cast<int64_t>(rep.returnValue);
        o.firings = rep.simStats.get("sim.firings");
    }
    return o;
}

Observed
runInProcess(const std::string& source, const SoakConfig& cfg,
             const TargetCase& t, const std::string& runSpec,
             CaseReport* rc)
{
    int64_t t0 = nowUs();
    DriverReply rep =
        runDriverRequest(targetRequest(source, cfg, t, runSpec));
    rc->latenciesUs.push_back(nowUs() - t0);
    rc->runs++;
    return observeReply(t.label, rep);
}

Observed
runViaSocket(ServiceClient* client, const std::string& source,
             const SoakConfig& cfg, const TargetCase& t,
             const std::string& runSpec, CaseReport* rc,
             std::string* bodyDump, bool* cached)
{
    Observed o;
    o.label = t.label;

    Json req = makeCompileRequest(
        "simulate", source,
        svcRequestOptions(targetRequest(source, cfg, t, runSpec)));

    Json resp;
    int64_t t0 = nowUs();
    Status st = client->call(std::move(req), &resp);
    rc->latenciesUs.push_back(nowUs() - t0);
    rc->runs++;
    if (!st) {
        o.transport = true;
        o.error = "service call failed: " + st.message();
        return o;
    }
    if (!resp.getBool("ok")) {
        const Json* err = resp.get("error");
        o.transport = true;
        o.error = "service error: " +
                  (err ? err->getString("message") : resp.dump());
        return o;
    }
    const Json* body = resp.get("body");
    if (!body) {
        o.transport = true;
        o.error = "service response without body";
        return o;
    }
    if (bodyDump)
        *bodyDump = body->dump();
    if (cached)
        *cached = resp.getBool("cached");

    o.ok = body->get("fatal") == nullptr;
    o.error = body->getString("fatal");
    o.exitCode = static_cast<int>(body->getInt("exit"));
    if (const Json* stats = body->get("stats")) {
        if (const Json* diags = stats->get("diagnostics"))
            o.verifierDiags =
                static_cast<int64_t>(diags->items().size());
        if (const Json* sim = stats->get("sim"))
            o.firings = sim->getInt("sim.firings", -1);
    }
    if (const Json* analysis = body->get("analysis")) {
        o.ranAnalysis = true;
        o.checkerErrors = analysis->getInt("errors");
    }
    if (const Json* sim = body->get("sim")) {
        o.ranSim = true;
        o.outcome = sim->getString("outcome");
        o.returnValue = sim->getInt("return");
    }
    return o;
}

void
flag(CaseReport* rc, const std::string& category,
     const std::string& detail)
{
    if (rc->violation())
        return; // first violation names the case
    rc->category = category;
    rc->detail = detail;
}

/** Oracles A and B over the per-target observations. */
void
judge(CaseReport* rc, const std::vector<Observed>& obs)
{
    for (const Observed& o : obs) {
        if (!o.ok) {
            flag(rc, "frontend-reject", o.label + ": " + o.error);
            return;
        }
        rc->outcomes.push_back(o.label + "=" +
                               (o.ranSim ? o.outcome : "none"));
    }

    // Oracle B: both soundness judges clean on a clean program.
    for (const Observed& o : obs) {
        if (o.verifierDiags > 0)
            flag(rc, "oracle-b:verifier",
                 o.label + ": structural verifier reported " +
                     std::to_string(o.verifierDiags) +
                     " pass failure(s) on a generated program");
        if (o.ranAnalysis && o.checkerErrors > 0)
            flag(rc, "oracle-b:checker",
                 o.label + ": ordering checker reported " +
                     std::to_string(o.checkerErrors) +
                     " error finding(s) on a generated program");
    }
    if (rc->violation())
        return;

    // A simulator budget trip exits non-zero too; it makes the case
    // inconclusive, not a violation (budgets are engine-specific, so
    // oracle A is meaningless).  Reaching here means no fatal and no
    // pass diagnostics, so the trip is the whole story.
    for (const Observed& o : obs) {
        const bool budgetTrip =
            o.ranSim &&
            (o.outcome == "event_limit" || o.outcome == "timeout");
        if (budgetTrip) {
            rc->inconclusive = true;
        } else if (o.exitCode != 0) {
            flag(rc, "compile-exit",
                 o.label + ": exit " + std::to_string(o.exitCode) +
                     " on a generated program");
            return;
        }
    }
    if (rc->inconclusive)
        return;

    // Oracle A: engine/level/fabric agreement on semantics.
    const Observed* first = nullptr;
    for (const Observed& o : obs) {
        if (!o.ranSim)
            continue;
        if (!first) {
            first = &o;
            continue;
        }
        if (o.outcome != first->outcome) {
            flag(rc, "oracle-a:outcome",
                 first->label + "=" + first->outcome + " but " +
                     o.label + "=" + o.outcome);
            return;
        }
    }
    if (first && first->outcome != "ok") {
        flag(rc, "oracle-a:" + first->outcome,
             "every target reports '" + first->outcome +
                 "' on a terminating generated program");
        return;
    }
    for (const Observed& o : obs) {
        if (!o.ranSim || &o == first)
            continue;
        if (o.returnValue != first->returnValue) {
            flag(rc, "oracle-a:return",
                 first->label + " returned " +
                     std::to_string(first->returnValue) + " but " +
                     o.label + " returned " +
                     std::to_string(o.returnValue));
            return;
        }
    }

    // The macro exactness contract: same level, same firings.
    const Observed* macro3 = nullptr;
    const Observed* event3 = nullptr;
    for (const Observed& o : obs) {
        if (o.label == "O3-macro")
            macro3 = &o;
        if (o.label == "O3-event")
            event3 = &o;
    }
    if (macro3 && event3 && macro3->firings >= 0 &&
        event3->firings >= 0 && macro3->firings != event3->firings) {
        flag(rc, "oracle-a:firings",
             "O3 macro fired " + std::to_string(macro3->firings) +
                 " ops but event fired " +
                 std::to_string(event3->firings));
    }
}

/** Oracle C (in-process): -j1 vs -jN byte identity. */
void
judgeJobs(const std::string& source, const SoakConfig& cfg,
          const std::string& runSpec, CaseReport* rc)
{
    DriverRequest req = baseRequest(source, cfg, runSpec);
    req.target.level = OptLevel::Full;
    req.wantGraphText = true;
    req.wantDot = true;

    const StatsJsonMeta meta = statsJsonMeta(req, "soak");

    std::string docs[2], dots[2], graphs[2];
    const int jobs[2] = {1, cfg.jobsHigh};
    for (int i = 0; i < 2; ++i) {
        req.jobs = jobs[i];
        int64_t t0 = nowUs();
        DriverReply rep = runDriverRequest(req);
        rc->latenciesUs.push_back(nowUs() - t0);
        rc->runs++;
        if (!rep.fatal.empty()) {
            flag(rc, "frontend-reject", "jobs run: " + rep.fatal);
            return;
        }
        docs[i] = statsJsonDocument(rep, meta, /*deterministic=*/true);
        dots[i] = rep.dot;
        graphs[i] = rep.graphText;
    }
    if (docs[0] != docs[1])
        flag(rc, "oracle-c:stats",
             "-j1 and -j" + std::to_string(cfg.jobsHigh) +
                 " deterministic stats documents differ");
    else if (graphs[0] != graphs[1])
        flag(rc, "oracle-c:graph",
             "-j1 and -j" + std::to_string(cfg.jobsHigh) +
                 " graph dumps differ");
    else if (dots[0] != dots[1])
        flag(rc, "oracle-c:dot",
             "-j1 and -j" + std::to_string(cfg.jobsHigh) +
                 " DOT renderings differ");
}

/**
 * Oracle C (via socket): the service pins jobs=1, so determinism is
 * judged by replaying the identical request — the replay must be a
 * cache hit with a byte-identical body.
 */
void
judgeReplay(ServiceClient* client, const std::string& source,
            const SoakConfig& cfg, const std::string& runSpec,
            CaseReport* rc)
{
    TargetCase t;
    t.label = "replay";
    t.spec.level = OptLevel::Full;
    std::string body0, body1;
    bool cached0 = false, cached1 = false;
    Observed a = runViaSocket(client, source, cfg, t, runSpec, rc,
                              &body0, &cached0);
    if (!a.error.empty()) {
        flag(rc, "service-error", a.error);
        return;
    }
    Observed b = runViaSocket(client, source, cfg, t, runSpec, rc,
                              &body1, &cached1);
    if (!b.error.empty()) {
        flag(rc, "service-error", b.error);
        return;
    }
    if (body0 != body1)
        flag(rc, "oracle-c:replay",
             "replayed request returned a different body");
    else if (!cached1)
        flag(rc, "oracle-c:cache",
             "replayed request missed the result cache");
}

/** Canary mode: injected corruption must trip the checker oracle. */
void
runCanary(const std::string& source, const SoakConfig&,
          CaseReport* rc)
{
    // Mirror the CI differential proof (cli.analyze.inject): a short
    // verify-off pipeline so the corruption survives to analysis,
    // where only the independent §4 checker can catch it.
    FaultPlan plan = FaultPlan::parse(
        "graph.corrupt-token:pass=dead_code,round=1");

    DriverRequest req;
    req.source = source;
    req.jobs = 1;
    req.passNames = {"dead_code"};
    req.verify = false;
    req.analyze = true;
    req.faults = &plan;

    int64_t t0 = nowUs();
    DriverReply rep = runDriverRequest(req);
    rc->latenciesUs.push_back(nowUs() - t0);
    rc->runs++;
    if (!rep.fatal.empty()) {
        flag(rc, "frontend-reject", "canary: " + rep.fatal);
        return;
    }
    rc->canaryDetected = rep.analysisErrors > 0;
    if (!rc->canaryDetected)
        flag(rc, "canary-missed",
             "graph.corrupt-token injected but the ordering checker "
             "reported no error finding");
}

} // namespace

CaseReport
runCaseOnSource(const std::string& source, uint64_t seed,
                const SoakConfig& cfg)
{
    CaseReport rc;
    rc.seed = seed;
    const std::string runSpec = runSpecFor(seed);

    if (cfg.canary) {
        runCanary(source, cfg, &rc);
        return rc;
    }

    std::vector<TargetCase> matrix;
    Status st = buildMatrix(cfg, &matrix);
    if (!st) {
        flag(&rc, "config-error", st.message());
        return rc;
    }

    if (!cfg.viaSocket.empty()) {
        ServiceClient client;
        st = client.connect(cfg.viaSocket);
        if (!st) {
            flag(&rc, "service-error",
                 "connect " + cfg.viaSocket + ": " + st.message());
            return rc;
        }
        std::vector<Observed> obs;
        for (const TargetCase& t : matrix)
            obs.push_back(runViaSocket(&client, source, cfg, t,
                                       runSpec, &rc, nullptr,
                                       nullptr));
        for (const Observed& o : obs) {
            if (o.transport) {
                flag(&rc, "service-error", o.label + ": " + o.error);
                return rc;
            }
        }
        judge(&rc, obs);
        if (cfg.checkJobs && !rc.violation() && !rc.inconclusive)
            judgeReplay(&client, source, cfg, runSpec, &rc);
        return rc;
    }

    std::vector<Observed> obs;
    for (const TargetCase& t : matrix)
        obs.push_back(runInProcess(source, cfg, t, runSpec, &rc));
    judge(&rc, obs);
    if (cfg.checkJobs && !rc.violation() && !rc.inconclusive)
        judgeJobs(source, cfg, runSpec, &rc);
    return rc;
}

CaseReport
runCase(uint64_t seed, const SoakConfig& cfg)
{
    GenProgram prog =
        generateProgram(seed, GenProfile::byName(cfg.profile));
    CaseReport rc = runCaseOnSource(prog.render(), seed, cfg);
    rc.functions = prog.functionCount();
    return rc;
}

} // namespace fuzz
} // namespace cash
