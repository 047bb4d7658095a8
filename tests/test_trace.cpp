/**
 * @file
 * Observability layer: TraceRecorder / ScopedTimer spans, JSON
 * escaping and well-formedness of the Chrome-trace export, stats-delta
 * capture, and the end-to-end guarantee that a full compile records
 * one trace event per optimization-pass run.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>

#include "benchsuite/kernels.h"
#include "driver/compiler.h"
#include "driver/driver_lib.h"
#include "sim/dataflow_sim.h"
#include "support/stats.h"
#include "support/trace.h"
#include "test_util.h"

using namespace cash;

namespace {

// ---------------------------------------------------------------------
// A minimal JSON well-formedness checker (syntax only), so the tests
// can assert that the Chrome-trace export would load in Perfetto
// without depending on an external JSON library.
// ---------------------------------------------------------------------

struct JsonChecker
{
    const std::string& s;
    size_t i = 0;

    explicit JsonChecker(const std::string& text) : s(text) {}

    void ws()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t' ||
                                s[i] == '\n' || s[i] == '\r'))
            i++;
    }

    bool literal(const char* lit)
    {
        size_t n = std::strlen(lit);
        if (s.compare(i, n, lit) != 0)
            return false;
        i += n;
        return true;
    }

    bool string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        i++;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                i++;
                if (i >= s.size())
                    return false;
                char c = s[i];
                if (c == 'u') {
                    for (int k = 0; k < 4; k++)
                        if (++i >= s.size() || !std::isxdigit(
                                static_cast<unsigned char>(s[i])))
                            return false;
                } else if (!std::strchr("\"\\/bfnrt", c)) {
                    return false;
                }
            } else if (static_cast<unsigned char>(s[i]) < 0x20) {
                return false;  // raw control char inside a string
            }
            i++;
        }
        if (i >= s.size())
            return false;
        i++;  // closing quote
        return true;
    }

    bool number()
    {
        size_t start = i;
        if (i < s.size() && s[i] == '-')
            i++;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '+' || s[i] == '-'))
            i++;
        return i > start;
    }

    bool value()
    {
        ws();
        if (i >= s.size())
            return false;
        switch (s[i]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        i++;  // '{'
        ws();
        if (i < s.size() && s[i] == '}') {
            i++;
            return true;
        }
        while (true) {
            ws();
            if (!string())
                return false;
            ws();
            if (i >= s.size() || s[i] != ':')
                return false;
            i++;
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                i++;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != '}')
            return false;
        i++;
        return true;
    }

    bool array()
    {
        i++;  // '['
        ws();
        if (i < s.size() && s[i] == ']') {
            i++;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                i++;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != ']')
            return false;
        i++;
        return true;
    }

    bool wellFormed()
    {
        bool ok = value();
        ws();
        return ok && i == s.size();
    }
};

bool
validJson(const std::string& text)
{
    JsonChecker c(text);
    return c.wellFormed();
}

TEST(JsonChecker, SelfTest)
{
    EXPECT_TRUE(validJson("{\"a\": [1, 2.5, -3], \"b\": \"x\\ny\"}"));
    EXPECT_TRUE(validJson("[]"));
    EXPECT_FALSE(validJson("{\"a\": }"));
    EXPECT_FALSE(validJson("[1, 2"));
    EXPECT_FALSE(validJson("{\"a\" 1}"));
}

// ---------------------------------------------------------------------
// JSON escaping
// ---------------------------------------------------------------------

TEST(Trace, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(jsonEscape(std::string("ctl\x01") + "x"), "ctl\\u0001x");
    EXPECT_EQ(jsonEscape("\r\b\f"), "\\r\\b\\f");
}

TEST(Trace, HistBucket)
{
    EXPECT_EQ(histBucket(0), "0");
    EXPECT_EQ(histBucket(1), "1");
    EXPECT_EQ(histBucket(2), "2");
    EXPECT_EQ(histBucket(3), "le4");
    EXPECT_EQ(histBucket(4), "le4");
    EXPECT_EQ(histBucket(5), "le8");
    EXPECT_EQ(histBucket(100), "le128");
    EXPECT_EQ(histBucket(1024), "le1024");
    EXPECT_EQ(histBucket(5000), "gt1024");
}

// ---------------------------------------------------------------------
// Timers and the recorder
// ---------------------------------------------------------------------

TEST(Trace, DisabledRecorderDropsEverything)
{
    TraceRecorder rec;  // disabled by default
    {
        ScopedTimer t(&rec, "outer", "test");
    }
    rec.counterEvent("c", 0, 1);
    EXPECT_TRUE(rec.events().empty());
}

TEST(Trace, TimerNesting)
{
    TraceRecorder rec;
    rec.enable();
    {
        ScopedTimer outer(&rec, "outer", "test");
        {
            ScopedTimer inner(&rec, "inner", "test");
            inner.arg("k", static_cast<int64_t>(7));
        }
    }
    ASSERT_EQ(rec.events().size(), 2u);
    // Inner closes first, so it is recorded first.
    const TraceEvent& inner = rec.events()[0];
    const TraceEvent& outer = rec.events()[1];
    EXPECT_EQ(inner.name, "inner");
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(inner.phase, 'X');
    // Containment: the inner span lies within the outer span.
    EXPECT_GE(inner.ts, outer.ts);
    EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur);
    ASSERT_EQ(inner.args.size(), 1u);
    EXPECT_EQ(inner.args[0].key, "k");
    EXPECT_EQ(inner.args[0].i, 7);
}

TEST(Trace, MaxEventsCapCountsDrops)
{
    TraceRecorder rec;
    rec.enable();
    rec.setMaxEvents(3);
    for (int i = 0; i < 10; i++)
        rec.counterEvent("c", i, i);
    EXPECT_EQ(rec.events().size(), 3u);
    EXPECT_EQ(rec.dropped(), 7u);
    rec.clear();
    EXPECT_TRUE(rec.events().empty());
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Trace, ChromeTraceIsWellFormedJson)
{
    TraceRecorder rec;
    rec.enable();
    {
        // Hostile names exercise the escaper through the writer.
        ScopedTimer t(&rec, "name \"with\" quotes\n", "cat\\slash");
        t.arg("str", std::string("v\t1"));
        t.arg("num", static_cast<int64_t>(-5));
    }
    rec.counterEvent("sim.lsq.occupancy", 42, 3);
    rec.instantEvent("marker", "test", 7);
    std::string json = rec.chromeTraceJson();
    EXPECT_TRUE(validJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Stats deltas
// ---------------------------------------------------------------------

TEST(Trace, StatsDeltaCapture)
{
    StatSet before;
    before.add("opt.dead_code.removed", 3);
    before.add("untouched", 1);
    StatSet after = before;
    after.add("opt.dead_code.removed", 2);
    after.add("fresh.counter", 5);

    StatSet d = after.diff(before);
    EXPECT_EQ(d.get("opt.dead_code.removed"), 2);
    EXPECT_EQ(d.get("fresh.counter"), 5);
    EXPECT_FALSE(d.has("untouched"));

    // A counter only present in the snapshot shows up negated.
    StatSet empty;
    StatSet d2 = empty.diff(before);
    EXPECT_EQ(d2.get("untouched"), -1);
}

TEST(Trace, StatSetJsonIsWellFormed)
{
    StatSet s;
    s.add("sim.cycles", 100);
    s.add("weird\"name", 1);
    EXPECT_TRUE(validJson(statSetJson(s)));
    EXPECT_TRUE(validJson(statSetJson(StatSet{})));
}

// ---------------------------------------------------------------------
// End-to-end: compile + simulate under a tracer
// ---------------------------------------------------------------------

const char* kProgram = R"(
int a[64];
int sum(int n) {
    int s = 0; int i;
    for (i = 0; i < n; i++) s += a[i];
    return s;
}
int run(int n) {
    int i;
    for (i = 0; i < n; i++) a[i] = i;
    return sum(n);
}
)";

TEST(Trace, OneEventPerPassRun)
{
    TraceRecorder rec;
    rec.enable();
    CompileResult r = compileSource(
        kProgram, CompileOptions().opt(OptLevel::Full).trace(&rec));

    // The pass manager bumps opt.pass.<name>.runs once per pass run
    // and records exactly one "opt"-category span for each.
    int64_t runs = 0;
    for (const auto& [k, v] : r.stats.all())
        if (k.rfind("opt.pass.", 0) == 0 &&
            k.size() > 5 && k.compare(k.size() - 5, 5, ".runs") == 0)
            runs += v;
    ASSERT_GT(runs, 0);
    EXPECT_EQ(static_cast<int64_t>(rec.byCategory("opt").size()), runs);

    // Every span carries the IR-shape args.
    for (const TraceEvent* ev : rec.byCategory("opt")) {
        bool sawNodes = false, sawRound = false;
        for (const TraceArg& a : ev->args) {
            sawNodes |= a.key == "nodes_before";
            sawRound |= a.key == "round";
        }
        EXPECT_TRUE(sawNodes) << ev->name;
        EXPECT_TRUE(sawRound) << ev->name;
    }

    // Frontend phases and the per-graph optimize spans are present.
    EXPECT_FALSE(rec.byCategory("frontend").empty());
    EXPECT_EQ(rec.byCategory("opt.graph").size(), r.graphs.size());

    // Per-pass wall time was accumulated in the stats alongside.
    EXPECT_TRUE(r.stats.has("opt.pass.dead_code.time_us"));
    EXPECT_TRUE(r.stats.has("opt.pass.dead_code.nodes_removed"));
}

// Pegasus construction has its own wall-clock key, inside the
// frontend's, and like every time.* key it stays out of the
// deterministic stats document.
TEST(Trace, BuildTimeIsASubSpanOfTheFrontend)
{
    DriverRequest req;
    req.source = kernelByName("saxpy").source;
    req.jobs = 1;
    DriverReply rep = runDriverRequest(req);
    ASSERT_EQ(rep.exitCode, 0);
    const int64_t build = rep.compileStats.get("time.build.us");
    EXPECT_GT(build, 0);
    EXPECT_LE(build, rep.compileStats.get("time.frontend.us"));
    const std::string doc = statsJsonDocument(
        rep, statsJsonMeta(req, "saxpy"), /*deterministic=*/true);
    EXPECT_EQ(doc.find("time.build.us"), std::string::npos);
    EXPECT_NE(statsJsonDocument(rep, statsJsonMeta(req, "saxpy"))
                  .find("time.build.us"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// One timer per request layer: every layer key of runDriverRequest is
// written by the ScopedTimer that owns the layer's span.
// ---------------------------------------------------------------------

/** A disjoint request layer: its key, its span and its map. */
struct LayerKey
{
    const char* key;
    const char* span;
    bool inSim;  ///< In DriverReply::simStats, else compileStats.
};

/**
 * The disjoint layers; they sum to at most time.request.us.  The first
 * kFrontendPhases nest inside time.frontend.us.
 */
constexpr size_t kFrontendPhases = 6;
const LayerKey kLayerKeys[] = {
    {"time.parse.us", "parse+sema", false},
    {"time.layout.us", "layout", false},
    {"time.lower.us", "lower", false},
    {"time.points_to.us", "points-to", false},
    {"time.modref.us", "modref", false},
    {"time.build.us", "build-pegasus", false},
    {"time.optimize.us", "optimize", false},
    {"time.analysis.us", "analysis", false},
    {"time.fabric.place.us", "fabric.place", true},
    {"time.sim.setup.us", "sim.setup", true},
    {"time.sim.run.us", "sim.run", true},
};

/** A request that reaches every layer: analysis, fabric, simulation. */
DriverRequest
everyLayerRequest()
{
    const Kernel& k = kernelByName("saxpy");
    DriverRequest req;
    req.source = k.source;
    req.jobs = 1;
    req.analyze = true;
    EXPECT_TRUE(req.target.merge("fabric=2x2").isOk());
    req.runSpec = k.entry + "(";
    for (size_t i = 0; i < k.args.size(); i++) {
        if (i)
            req.runSpec += ",";
        req.runSpec += std::to_string(k.args[i]);
    }
    req.runSpec += ")";
    return req;
}

int64_t
layerValue(const DriverReply& rep, const LayerKey& l)
{
    return (l.inSim ? rep.simStats : rep.compileStats).get(l.key);
}

TEST(Trace, LayerKeysCoverTheRequest)
{
    const DriverRequest req = everyLayerRequest();
    double bestShare = 0;
    for (int run = 0; run < 5; run++) {
        const auto t0 = std::chrono::steady_clock::now();
        DriverReply rep = runDriverRequest(req);
        const auto wallNs =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        ASSERT_EQ(rep.exitCode, 0) << rep.fatal << rep.simError;
        ASSERT_TRUE(rep.ranSim && rep.ranAnalysis);

        int64_t sum = 0;
        for (const LayerKey& l : kLayerKeys) {
            const StatSet& map = l.inSim ? rep.simStats : rep.compileStats;
            EXPECT_TRUE(map.has(l.key)) << l.key;
            sum += map.get(l.key);
        }
        for (const char* nested :
             {"time.frontend.us", "time.verify.us", "time.request.us"})
            EXPECT_TRUE(rep.compileStats.has(nested)) << nested;

        // Each timer rounds its two clock reads to whole microseconds,
        // so disjoint layers sum to at most their enclosing request,
        // and the request to at most the wall rounded up.
        const int64_t request = rep.compileStats.get("time.request.us");
        EXPECT_LE(sum, request);
        EXPECT_LE(request, (wallNs + 999) / 1000);
        const int64_t frontend = rep.compileStats.get("time.frontend.us");
        int64_t phases = 0;
        for (size_t i = 0; i < kFrontendPhases; i++)
            phases += layerValue(rep, kLayerKeys[i]);
        EXPECT_LE(phases, frontend);
        EXPECT_LE(frontend + rep.compileStats.get("time.optimize.us"),
                  request);
        if (request > 0)
            bestShare = std::max(bestShare, static_cast<double>(sum) /
                                                static_cast<double>(request));
    }
    EXPECT_GE(bestShare, 0.9);
}

TEST(Trace, LayerKeyEqualsItsSpan)
{
    const DriverRequest base = everyLayerRequest();
    // Many runs: a key measured by clock reads of its own would agree
    // with the span's whole microseconds only by chance, once in a
    // while, not on every run.
    for (int run = 0; run < 10; run++) {
        TraceRecorder rec;
        rec.enable();
        DriverRequest req = base;
        req.tracer = &rec;
        DriverReply rep = runDriverRequest(req);
        ASSERT_EQ(rep.exitCode, 0) << rep.fatal << rep.simError;

        auto spanDur = [&](const std::string& name) -> int64_t {
            const TraceEvent* found = nullptr;
            for (const TraceEvent& ev : rec.events()) {
                if (ev.phase != 'X' || ev.pid != kTraceWallPid ||
                    ev.name != name)
                    continue;
                EXPECT_EQ(found, nullptr) << "two spans named " << name;
                found = &ev;
            }
            EXPECT_NE(found, nullptr) << "no span named " << name;
            return found ? static_cast<int64_t>(found->dur) : -1;
        };
        for (const LayerKey& l : kLayerKeys)
            EXPECT_EQ(layerValue(rep, l), spanDur(l.span)) << l.key;
        EXPECT_EQ(rep.compileStats.get("time.frontend.us"),
                  spanDur("frontend"));
        EXPECT_EQ(rep.compileStats.get("time.request.us"),
                  spanDur("request"));
    }
}

TEST(Trace, SimulatorRecordsActivationsAndCounters)
{
    TraceRecorder rec;
    rec.enable();
    CompileResult r = compileSource(
        kProgram, CompileOptions().opt(OptLevel::Full).trace(&rec));

    DataflowSimulator sim(r.graphPtrs(), *r.layout,
                          MemConfig::realistic(2));
    sim.setTracer(&rec);
    SimResult out = sim.run("run", {16});
    EXPECT_EQ(out.returnValue, 120u);

    // One activation span per procedure call: run + the sum callee.
    EXPECT_EQ(rec.byCategory("sim.activation").size(), 2u);
    // LSQ occupancy counter samples, one per memory access.
    size_t counters = 0;
    for (const TraceEvent& ev : rec.events())
        if (ev.phase == 'C' && ev.name == "sim.lsq.occupancy")
            counters++;
    EXPECT_EQ(counters,
              static_cast<size_t>(out.stats.get("sim.mem.accesses")));

    // New simulator counter families.
    EXPECT_GT(out.stats.get("sim.fire.load"), 0);
    EXPECT_GT(out.stats.get("sim.fire.store"), 0);
    int64_t occHist = 0, latHist = 0;
    for (const auto& [k, v] : out.stats.all()) {
        if (k.rfind("sim.mem.lsq.occHist.", 0) == 0)
            occHist += v;
        if (k.rfind("sim.mem.latencyHist.", 0) == 0)
            latHist += v;
    }
    EXPECT_EQ(occHist, out.stats.get("sim.mem.accesses"));
    EXPECT_EQ(latHist, out.stats.get("sim.mem.accesses"));

    // The whole trace still serializes to well-formed JSON.
    EXPECT_TRUE(validJson(rec.chromeTraceJson()));
}

} // namespace
