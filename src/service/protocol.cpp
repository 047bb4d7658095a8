#include "service/protocol.h"

#include <cerrno>
#include <cstring>
#include <ostream>
#include <utility>

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "support/strings.h"
#include "support/trace.h"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace cash {

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

namespace {

/** recv() exactly @p n bytes; returns bytes read (< n on EOF/error). */
ssize_t
recvAll(int fd, char* buf, size_t n)
{
    size_t got = 0;
    while (got < n) {
        ssize_t r = ::recv(fd, buf + got, n - got, 0);
        if (r == 0)
            break;
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        got += static_cast<size_t>(r);
    }
    return static_cast<ssize_t>(got);
}

} // namespace

Status
readFrame(int fd, std::string* payload, bool* cleanEof,
          uint32_t maxBytes)
{
    payload->clear();
    *cleanEof = false;

    unsigned char hdr[4];
    ssize_t got = recvAll(fd, reinterpret_cast<char*>(hdr), 4);
    if (got == 0) {
        *cleanEof = true;
        return Status::ok();
    }
    if (got < 0)
        return Status::error(ErrorCode::InternalError,
                             std::string("recv: ") +
                                 std::strerror(errno));
    if (got < 4)
        return Status::error(ErrorCode::ParseError,
                             "truncated frame header");

    uint32_t len = (static_cast<uint32_t>(hdr[0]) << 24) |
                   (static_cast<uint32_t>(hdr[1]) << 16) |
                   (static_cast<uint32_t>(hdr[2]) << 8) |
                   static_cast<uint32_t>(hdr[3]);
    if (len > maxBytes)
        return Status::error(ErrorCode::ParseError,
                             "frame of " + std::to_string(len) +
                                 " bytes exceeds the " +
                                 std::to_string(maxBytes) +
                                 "-byte limit");
    payload->resize(len);
    if (len > 0) {
        got = recvAll(fd, payload->data(), len);
        if (got < 0)
            return Status::error(ErrorCode::InternalError,
                                 std::string("recv: ") +
                                     std::strerror(errno));
        if (static_cast<uint32_t>(got) < len)
            return Status::error(ErrorCode::ParseError,
                                 "truncated frame payload (" +
                                     std::to_string(got) + " of " +
                                     std::to_string(len) + " bytes)");
    }
    return Status::ok();
}

Status
writeFrame(int fd, const std::string& payload)
{
    if (payload.size() > 0xFFFFFFFFull)
        return Status::error(ErrorCode::InternalError,
                             "frame payload too large");
    uint32_t len = static_cast<uint32_t>(payload.size());
    unsigned char hdr[4] = {
        static_cast<unsigned char>(len >> 24),
        static_cast<unsigned char>(len >> 16),
        static_cast<unsigned char>(len >> 8),
        static_cast<unsigned char>(len),
    };
    std::string buf(reinterpret_cast<char*>(hdr), 4);
    buf += payload;

    size_t sent = 0;
    while (sent < buf.size()) {
        ssize_t w =
            ::send(fd, buf.data() + sent, buf.size() - sent,
                   MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return Status::error(ErrorCode::InternalError,
                                 std::string("send: ") +
                                     std::strerror(errno));
        }
        sent += static_cast<size_t>(w);
    }
    return Status::ok();
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

const char*
svcOpName(SvcOp op)
{
    switch (op) {
      case SvcOp::Ping: return "ping";
      case SvcOp::Compile: return "compile";
      case SvcOp::Analyze: return "analyze";
      case SvcOp::Simulate: return "simulate";
      case SvcOp::Metrics: return "metrics";
      case SvcOp::Shutdown: return "shutdown";
    }
    return "?";
}

namespace {

Status
badRequest(const std::string& msg)
{
    return Status::error(ErrorCode::ParseError, msg);
}

/** The boolean request options: wire key → DriverRequest field. */
const std::pair<const char*, bool DriverRequest::*> kBoolOptions[] = {
    {"verify", &DriverRequest::verify},
    {"ordering_checks", &DriverRequest::orderingChecks},
    {"strict", &DriverRequest::strict},
    {"analyze", &DriverRequest::analyze},
    {"analyze_strict", &DriverRequest::analyzeStrict},
    {"cfg", &DriverRequest::wantCfg},
    {"graph", &DriverRequest::wantGraphText},
    {"dot", &DriverRequest::wantDot},
};

Status
parseStringList(const Json& opts, const char* key,
                std::vector<std::string>* out)
{
    const Json* v = opts.get(key);
    if (!v)
        return Status::ok();
    if (!v->isArray())
        return badRequest(std::string("options.") + key +
                          " must be an array of strings");
    for (const Json& e : v->items()) {
        if (!e.isString())
            return badRequest(std::string("options.") + key +
                              " must be an array of strings");
        out->push_back(e.asString());
    }
    return Status::ok();
}

} // namespace

Status
parseSvcRequest(const Json& j, SvcRequest* out)
{
    *out = SvcRequest();
    if (!j.isObject())
        return badRequest("request must be a JSON object");

    const Json* opv = j.get("op");
    if (!opv || !opv->isString())
        return badRequest("missing string field 'op'");
    const std::string& op = opv->asString();
    if (op == "ping")
        out->op = SvcOp::Ping;
    else if (op == "compile")
        out->op = SvcOp::Compile;
    else if (op == "analyze")
        out->op = SvcOp::Analyze;
    else if (op == "simulate")
        out->op = SvcOp::Simulate;
    else if (op == "metrics")
        out->op = SvcOp::Metrics;
    else if (op == "shutdown")
        out->op = SvcOp::Shutdown;
    else
        return badRequest("unknown op '" + op + "'");

    const Json* idv = j.get("id");
    if (idv) {
        if (!idv->isNumber())
            return badRequest("'id' must be a number");
        out->id = idv->asInt();
    }
    out->label = j.getString("label");

    if (!out->isCompileFamily())
        return Status::ok();

    const Json* src = j.get("source");
    if (!src || !src->isString())
        return badRequest("missing string field 'source'");
    out->driver.source = src->asString();

    const Json* optsv = j.get("options");
    if (optsv && !optsv->isObject())
        return badRequest("'options' must be an object");
    static const Json kEmpty = Json::object();
    const Json& opts = optsv ? *optsv : kEmpty;

    DriverRequest& d = out->driver;
    // One target field from a JSON string; @p where names it in
    // errors, @p prefix goes in front of a bad value's message.
    auto setTargetField = [&](const char* key, const Json& v,
                              const std::string& where,
                              const std::string& prefix) {
        if (!v.isString())
            return badRequest(where + key + " must be a string");
        Status st = d.target.setField(key, v.asString());
        return st ? st : badRequest(prefix + st.message());
    };
    // Legacy per-field target keys; options.target (below) wins.
    for (const char* key : {"opt", "mem", "engine"}) {
        if (const Json* v = opts.get(key)) {
            Status ts = setTargetField(key, *v, "options.", "");
            if (!ts)
                return ts;
        }
    }
    Status st = parseStringList(opts, "passes", &d.passNames);
    if (!st)
        return st;
    if (const Json* v = opts.get("jobs")) {
        if (!v->isNumber())
            return badRequest("options.jobs must be a number");
        d.jobs = static_cast<int>(v->asInt());
    }
    for (const auto& [key, field] : kBoolOptions) {
        if (const Json* v = opts.get(key)) {
            if (!v->isBool())
                return badRequest(std::string("options.") + key +
                                  " must be a boolean");
            d.*field = v->asBool();
        }
    }
    st = parseStringList(opts, "analyze_rules", &d.analyzeRules);
    if (!st)
        return st;
    if (d.analyzeStrict || !d.analyzeRules.empty())
        d.analyze = true;
    if (const Json* v = opts.get("run")) {
        if (!v->isString())
            return badRequest("options.run must be a string");
        d.runSpec = v->asString();
    }
    // options.target: the unified TargetSpec (docs/SCHEMAS.md) —
    // either the canonical spec string or an object with per-field
    // strings.  Validated by the same TargetSpec code path as `cashc
    // --target`, and applied after the legacy options above so its
    // fields win (field-level last-setting-wins, like the CLI).
    if (const Json* v = opts.get("target")) {
        if (v->isString()) {
            Status ts = d.target.merge(v->asString());
            if (!ts)
                return badRequest("options.target: " + ts.message());
        } else if (v->isObject()) {
            for (const char* key :
                 {"opt", "mem", "engine", "fabric", "ipo"}) {
                const Json* f = v->get(key);
                if (!f)
                    continue;
                Status ts = setTargetField(key, *f, "options.target.",
                                           "options.target: ");
                if (!ts)
                    return ts;
            }
        } else {
            return badRequest(
                "options.target must be a string or an object");
        }
    }
    if (const Json* v = opts.get("max_events")) {
        if (!v->isNumber() || v->asInt() < 0)
            return badRequest(
                "options.max_events must be a non-negative number");
        d.maxEvents = static_cast<uint64_t>(v->asInt());
    }

    if (out->op == SvcOp::Analyze)
        d.analyze = true;
    if (out->op == SvcOp::Simulate && d.runSpec.empty())
        return badRequest("op 'simulate' requires options.run");
    if (!d.runSpec.empty()) {
        std::string fn;
        std::vector<uint32_t> args;
        Status rs = parseRunSpec(d.runSpec, &fn, &args);
        if (!rs)
            return badRequest(rs.message());
    }
    return Status::ok();
}

Json
svcRequestOptions(const DriverRequest& req)
{
    auto list = [](const std::vector<std::string>& items) {
        Json arr = Json::array();
        for (const std::string& s : items)
            arr.push(Json::string(s));
        return arr;
    };
    Json o = Json::object();
    o.set("target", Json::string(req.target.str()));
    o.set("passes", list(req.passNames));
    o.set("jobs", Json::number(int64_t{req.jobs}));
    for (const auto& [key, field] : kBoolOptions)
        o.set(key, Json::boolean(req.*field));
    o.set("analyze_rules", list(req.analyzeRules));
    o.set("run", Json::string(req.runSpec));
    o.set("max_events", Json::number(static_cast<int64_t>(req.maxEvents)));
    return o;
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

std::string
svcHello()
{
    Json h = Json::object();
    h.set("schema", Json::string(kSvcSchema));
    h.set("protocol", Json::number(int64_t{kSvcProtocolVersion}));
    h.set("server", Json::string("cashd"));
    h.set("version", Json::string(kCashVersion));
    return h.dump();
}

std::string
fnv1a64Hex(const std::string& data)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 1099511628211ull;
    }
    static const char* hex = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; i--) {
        out[static_cast<size_t>(i)] = hex[h & 0xF];
        h >>= 4;
    }
    return out;
}

std::string
svcCacheKey(const SvcRequest& req)
{
    const DriverRequest& d = req.driver;
    std::string key;
    key += std::string("v=") + kCashVersion + ";";
    key += "proto=" + std::to_string(kSvcProtocolVersion) + ";";
    // One canonical fragment for the whole target (opt/mem/engine/
    // fabric): TargetSpec::str() round-trips, so the CLI flags, a
    // --target spec and the service's options.target forms all
    // content-address identically.
    key += "target=" + d.target.str() + ";";
    key += "passes=" + join(d.passNames, ",") + ";";
    key += "verify=" + std::to_string(d.verify) + ";";
    key += "ordering=" + std::to_string(d.orderingChecks) + ";";
    key += "strict=" + std::to_string(d.strict) + ";";
    key += "analyze=" + std::to_string(d.analyze) + ";";
    key += "analyze_strict=" + std::to_string(d.analyzeStrict) + ";";
    key += "rules=" + join(d.analyzeRules, ",") + ";";
    key += "run=" + d.runSpec + ";";
    key += "max_events=" + std::to_string(d.maxEvents) + ";";
    key += "cfg=" + std::to_string(d.wantCfg) + ";";
    key += "graph=" + std::to_string(d.wantGraphText) + ";";
    key += "dot=" + std::to_string(d.wantDot) + ";";
    key += "source=" + d.source;
    return key;
}

std::string
svcResultBody(const SvcRequest& req, const DriverReply& rep)
{
    const std::string digest = fnv1a64Hex(svcCacheKey(req));

    // The cached body must not depend on the requester: label the
    // stats document with the content address, not the client's name.
    Json statsDoc;
    Status st = Json::parse(
        statsJsonDocument(rep, statsJsonMeta(req.driver, "svc:" + digest),
                          /*deterministic=*/true),
        &statsDoc);
    CASH_ASSERT(st.isOk(), "stats document must be valid JSON");

    Json body = Json::object();
    body.set("exit", Json::number(int64_t{rep.exitCode}));
    body.set("key", Json::string(digest));
    if (!rep.fatal.empty())
        body.set("fatal", Json::string(rep.fatal));
    body.set("stats", std::move(statsDoc));
    if (rep.ranAnalysis) {
        Json a = Json::object();
        a.set("errors", Json::number(rep.analysisErrors));
        a.set("warnings", Json::number(rep.analysisWarnings));
        a.set("infos", Json::number(rep.analysisInfos));
        a.set("blocked_run", Json::boolean(rep.analysisBlockedRun));
        body.set("analysis", std::move(a));
    }
    if (rep.ranSim) {
        Json s = Json::object();
        s.set("outcome",
              Json::string(simOutcomeName(rep.simOutcome)));
        s.set("return",
              Json::number(static_cast<int64_t>(rep.returnValue)));
        s.set("cycles",
              Json::number(static_cast<int64_t>(rep.cycles)));
        s.set("mem", Json::string(rep.memName));
        if (!rep.simError.empty())
            s.set("error", Json::string(rep.simError));
        if (!rep.deadlockText.empty())
            s.set("deadlock", Json::string(rep.deadlockText));
        body.set("sim", std::move(s));
    }
    if (req.driver.wantCfg)
        body.set("cfg", Json::string(rep.cfgText));
    if (req.driver.wantGraphText)
        body.set("graph", Json::string(rep.graphText));
    if (req.driver.wantDot)
        body.set("dot", Json::string(rep.dot));
    return body.dump();
}

namespace {

/** Inverse of @p nameOf over the enum values [0, @p last]. */
template <typename E>
E
enumFromName(const std::string& name, E last, const char* (*nameOf)(E))
{
    for (int v = 0; v < static_cast<int>(last); v++)
        if (name == nameOf(static_cast<E>(v)))
            return static_cast<E>(v);
    return last;
}

} // namespace

int
renderResultBody(const Json& body, const std::string& tool,
                 std::ostream& out, std::ostream& err)
{
    static const Json kEmpty = Json::object();
    const std::string prefix = tool + ": ";
    const Json* statsv = body.get("stats");
    const Json& stats = statsv ? *statsv : kEmpty;

    if (const Json* fatal = body.get("fatal"))
        err << prefix << fatal->asString() << "\n";
    // Structs decoded back from the stats document, so the line
    // formats stay PassFailure::str() and LintFinding::str().
    if (const Json* diags = stats.get("diagnostics")) {
        for (const Json& d : diags->items()) {
            PassFailure f;
            f.function = d.getString("function");
            f.pass = d.getString("pass");
            f.round = static_cast<int>(d.getInt("round"));
            f.code = enumFromName(d.getString("code"),
                                  ErrorCode::InternalError,
                                  errorCodeName);
            f.message = d.getString("message");
            err << prefix << f.str() << "\n";
        }
        if (!diags->items().empty())
            err << prefix << diags->items().size()
                << " pass failure(s) rolled back; output may be"
                   " less optimized\n";
    }

    for (const char* artifact : {"cfg", "graph", "dot"})
        if (const Json* text = body.get(artifact))
            out << text->asString();

    if (const Json* analysis = body.get("analysis")) {
        const Json* sa = stats.get("analysis");
        const Json* findings = sa ? sa->get("findings") : nullptr;
        static const std::vector<Json> kNone;
        for (const Json& j : findings ? findings->items() : kNone) {
            LintFinding f;
            f.rule = j.getString("rule");
            f.severity = enumFromName(j.getString("severity"),
                                      LintSeverity::Error,
                                      lintSeverityName);
            f.func = j.getString("function");
            f.nodeA = static_cast<int>(j.getInt("nodeA", -1));
            f.nodeB = static_cast<int>(j.getInt("nodeB", -1));
            f.location = j.getString("location");
            f.explanation = j.getString("explanation");
            out << f.str() << "\n";
        }
        err << prefix << "analysis: " << analysis->getInt("errors")
            << " error(s), " << analysis->getInt("warnings")
            << " warning(s), " << analysis->getInt("infos")
            << " info(s)\n";
        if (analysis->getBool("blocked_run"))
            err << prefix
                << "--analyze-strict: error findings; skipping"
                   " simulation\n";
    }

    if (const Json* sim = body.get("sim")) {
        const std::string outcome = sim->getString("outcome");
        if (outcome == "ok") {
            const Json* meta = stats.get("meta");
            const std::string run = meta ? meta->getString("run") : "";
            out << run.substr(0, run.find('(')) << " returned "
                << sim->getInt("return") << " in "
                << sim->getInt("cycles") << " cycles ("
                << sim->getString("mem") << " memory)\n";
        } else {
            err << prefix << "simulation failed (" << outcome
                << "): " << sim->getString("error") << "\n";
            if (const Json* dl = sim->get("deadlock"))
                err << dl->asString() << "\n";
        }
    }
    return static_cast<int>(body.getInt("exit", 1));
}

std::string
svcResponse(const SvcRequest& req, bool cached, const std::string& body)
{
    std::string out = "{\"schema\":\"";
    out += kSvcSchema;
    out += "\",\"protocol\":";
    out += std::to_string(kSvcProtocolVersion);
    out += ",\"id\":";
    out += std::to_string(req.id);
    out += ",\"op\":\"";
    out += svcOpName(req.op);
    out += "\"";
    if (!req.label.empty()) {
        out += ",\"label\":\"";
        out += jsonEscape(req.label);
        out += "\"";
    }
    out += ",\"ok\":true,\"cached\":";
    out += cached ? "true" : "false";
    out += ",\"body\":";
    out += body;
    out += "}";
    return out;
}

std::string
svcErrorResponse(int64_t id, const std::string& op,
                 const std::string& code, const std::string& message)
{
    Json err = Json::object();
    err.set("code", Json::string(code));
    err.set("message", Json::string(message));
    Json resp = Json::object();
    resp.set("schema", Json::string(kSvcSchema));
    resp.set("protocol", Json::number(int64_t{kSvcProtocolVersion}));
    resp.set("id", Json::number(id));
    resp.set("op", Json::string(op));
    resp.set("ok", Json::boolean(false));
    resp.set("error", std::move(err));
    return resp.dump();
}

} // namespace cash
