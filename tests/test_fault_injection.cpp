// Deterministic fault injection: corrupting any single pass yields a
// structured diagnostic and a rollback, everything else keeps
// compiling and simulating to golden results at any job count, and
// simulator failures degrade to reported outcomes instead of aborts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "opt/pass.h"
#include "pegasus/dot.h"
#include "pegasus/verifier.h"
#include "support/fault_injection.h"
#include "test_util.h"

using namespace cash;

namespace {

const char* kMultiSrc =
    "int a[8];"
    "int sum(int n) { int s = 0; int i;"
    " for (i = 0; i < n; i++) s += i; return s; }"
    "int fill(int n) { int i;"
    " for (i = 0; i < n; i++) a[i & 7] = i + 2; return a[0]; }"
    "int both(int n) { return sum(n) + fill(n); }";

/** Deterministic stats only (drop wall-clock keys), as in
 *  test_parallel_compile.cpp. */
std::string
statsFingerprint(const StatSet& stats)
{
    std::string out;
    for (const auto& [k, v] : stats.all()) {
        if (isWallClockKey(k))
            continue;
        out += k + "=" + std::to_string(v) + "\n";
    }
    return out;
}

std::string
graphDot(const CompileResult& r, const std::string& name)
{
    const Graph* g = r.graph(name);
    return g ? toDot(*g) : "";
}

uint64_t
runCycles(const CompileResult& r, const std::string& fn, uint32_t arg)
{
    DataflowSimulator sim(r.graphPtrs(), *r.layout,
                          MemConfig::perfectMemory());
    SimResult out = sim.run(fn, {arg});
    EXPECT_TRUE(out.ok()) << out.error;
    return out.cycles;
}

TEST(FaultInjection, SpecParsing)
{
    FaultPlan p = FaultPlan::parse(
        "graph.corrupt-token:pass=dead_code,func=f,round=2,seed=7;"
        "pass.throw:pass=scalar_opts;sim.drop-event:seq=41");
    ASSERT_EQ(p.specs().size(), 3u);
    EXPECT_EQ(p.specs()[0].point, "graph.corrupt-token");
    EXPECT_EQ(p.specs()[0].pass, "dead_code");
    EXPECT_EQ(p.specs()[0].func, "f");
    EXPECT_EQ(p.specs()[0].round, 2);
    EXPECT_EQ(p.specs()[0].seed, 7u);
    EXPECT_TRUE(p.dropEvent(41));
    EXPECT_FALSE(p.dropEvent(40));

    // A typo must never silently disable the fault.
    EXPECT_THROW(FaultPlan::parse("no.such.point"), FatalError);
    EXPECT_THROW(FaultPlan::parse("pass.throw:bogus=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("sim.drop-event:seq=zzz"),
                 FatalError);
}

TEST(FaultInjection, SpecParsingErrorPaths)
{
    // Every malformed spec dies loudly — the point of $CASH_INJECT /
    // --inject is that a fault you asked for always happens.
    EXPECT_THROW(FaultPlan::parse("pass.throw:pass"), FatalError);
    EXPECT_THROW(FaultPlan::parse("pass.throw:round="), FatalError);
    EXPECT_THROW(FaultPlan::parse("pass.throw:round=-1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("pass.throw:seed=1x"), FatalError);
    // Overflows a uint64 by one digit.
    EXPECT_THROW(FaultPlan::parse("sim.drop-event:seq="
                                  "184467440737095516160"),
                 FatalError);
    EXPECT_THROW(FaultPlan::parse("pass.throw;oops"), FatalError);
    // An empty point name is unknown, not skipped.
    EXPECT_THROW(FaultPlan::parse(":pass=x"), FatalError);

    // Benign slack: empty specs/segments and stray whitespace parse
    // to exactly what remains.
    EXPECT_TRUE(FaultPlan::parse("").specs().empty());
    EXPECT_TRUE(FaultPlan::parse(" ; ;").specs().empty());
    FaultPlan p = FaultPlan::parse(
        "  pass.throw : pass = dce , , round = 3 ;");
    ASSERT_EQ(p.specs().size(), 1u);
    EXPECT_EQ(p.specs()[0].pass, "dce");
    EXPECT_EQ(p.specs()[0].round, 3);

    // str() is a parseable round trip (repro commands rely on it).
    FaultPlan q = FaultPlan::parse(p.str());
    EXPECT_EQ(q.str(), p.str());
}

TEST(FaultInjection, EnvPlanIsStableAndMatchesSelectively)
{
    // The suite never sets $CASH_INJECT, so the process-wide plan is
    // empty — and fromEnv() is latched, returning the same object on
    // every call.
    const FaultPlan& env = FaultPlan::fromEnv();
    EXPECT_TRUE(env.specs().empty());
    EXPECT_EQ(&env, &FaultPlan::fromEnv());

    // match() treats absent keys as wildcards and set keys exactly.
    FaultPlan p = FaultPlan::parse(
        "pass.throw:pass=dce,func=f,round=2;graph.corrupt-token");
    EXPECT_NE(p.match("graph.corrupt-token", "g", "any", 9), nullptr);
    EXPECT_NE(p.match("pass.throw", "f", "dce", 2), nullptr);
    EXPECT_EQ(p.match("pass.throw", "f", "dce", 3), nullptr);
    EXPECT_EQ(p.match("pass.throw", "g", "dce", 2), nullptr);
    EXPECT_EQ(p.match("sim.drop-event", "f", "dce", 2), nullptr);
}

TEST(FaultInjection, CorruptAnyPassRollsBackAndOthersStayGolden)
{
    // Golden reference: clean compile, cycles for the untouched
    // functions.
    CompileResult clean = compileSource(kMultiSrc, {});
    ASSERT_TRUE(clean.ok());
    const uint64_t goldenSum = runCycles(clean, "sum", 10);
    const uint32_t goldenFill =
        testutil::interpret(kMultiSrc, "fill", {10});

    std::set<std::string> names;
    for (const std::string& n :
         standardPipelineNames(OptLevel::Full))
        names.insert(n);

    for (const std::string& pass : names) {
        FaultPlan plan = FaultPlan::parse(
            "graph.corrupt-token:pass=" + pass + ",func=fill,round=1");
        CompileResult r = compileSource(
            kMultiSrc, CompileOptions().inject(&plan));

        // The verifier caught the corruption; the pass was rolled
        // back and quarantined, and the diagnostic names it.
        ASSERT_FALSE(r.ok()) << pass;
        for (const PassFailure& d : r.diagnostics) {
            EXPECT_EQ(d.function, "fill") << pass;
            EXPECT_EQ(d.pass, pass);
            EXPECT_EQ(static_cast<int>(d.code),
                      static_cast<int>(ErrorCode::VerifyError));
            EXPECT_FALSE(d.str().empty());
        }
        EXPECT_GT(r.stats.get("opt.rollbacks"), 0) << pass;
        EXPECT_GT(r.stats.get("opt.quarantined_passes"), 0) << pass;

        // Rolled-back graphs still verify and still compute the right
        // answer.
        for (const auto& g : r.graphs)
            EXPECT_TRUE(verifyGraph(*g).empty()) << pass << "/"
                                                 << g->name;
        DataflowSimulator sim(r.graphPtrs(), *r.layout,
                              MemConfig::perfectMemory());
        SimResult out = sim.run("fill", {10});
        ASSERT_TRUE(out.ok()) << pass << ": " << out.error;
        EXPECT_EQ(out.returnValue, goldenFill) << pass;

        // Functions the fault never touched are byte-identical to the
        // clean compile and simulate to golden cycle counts.
        EXPECT_EQ(graphDot(r, "sum"), graphDot(clean, "sum")) << pass;
        EXPECT_EQ(runCycles(r, "sum", 10), goldenSum) << pass;
    }
}

TEST(FaultInjection, DiagnosticsDeterministicAcrossJobCounts)
{
    FaultPlan plan = FaultPlan::parse(
        "graph.corrupt-token:pass=dead_code,func=fill,round=1");
    CompileResult serial = compileSource(
        kMultiSrc, CompileOptions().inject(&plan).jobs(1));
    CompileResult parallel = compileSource(
        kMultiSrc, CompileOptions().inject(&plan).jobs(8));

    ASSERT_EQ(serial.diagnostics.size(), parallel.diagnostics.size());
    for (size_t i = 0; i < serial.diagnostics.size(); i++)
        EXPECT_EQ(serial.diagnostics[i].str(),
                  parallel.diagnostics[i].str());
    EXPECT_EQ(statsFingerprint(serial.stats),
              statsFingerprint(parallel.stats));
    for (const auto& g : serial.graphs)
        EXPECT_EQ(toDot(*g), graphDot(parallel, g->name));
    EXPECT_EQ(runCycles(serial, "both", 6),
              runCycles(parallel, "both", 6));
}

TEST(FaultInjection, PassThrowIsIsolated)
{
    FaultPlan plan = FaultPlan::parse(
        "pass.throw:pass=scalar_opts,func=sum,round=1");
    CompileResult r =
        compileSource(kMultiSrc, CompileOptions().inject(&plan));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].function, "sum");
    EXPECT_EQ(r.diagnostics[0].pass, "scalar_opts");
    EXPECT_EQ(static_cast<int>(r.diagnostics[0].code),
              static_cast<int>(ErrorCode::PassError));
    EXPECT_TRUE(r.diagnostics[0].message.find("injected") !=
                std::string::npos);

    // The thrown-into function still compiles (unoptimized by that
    // pass) and runs correctly.
    DataflowSimulator sim(r.graphPtrs(), *r.layout,
                          MemConfig::perfectMemory());
    SimResult out = sim.run("sum", {10});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.returnValue,
              testutil::interpret(kMultiSrc, "sum", {10}));
}

TEST(FaultInjection, StrictModeFailsFast)
{
    FaultPlan plan = FaultPlan::parse(
        "pass.throw:pass=scalar_opts,func=sum,round=1");
    EXPECT_THROW(
        compileSource(kMultiSrc,
                      CompileOptions().inject(&plan).strictMode(true)),
        FatalError);
}

TEST(FaultInjection, DroppedEventDeadlocksWithDiagnostic)
{
    const char* src = "int f(int n) { int s = 0; int i;"
                      " for (i = 0; i < n; i++) s += i * 3;"
                      " return s; }";
    CompileResult r = compileSource(src, {});
    ASSERT_TRUE(r.ok());

    // Find a delivery whose loss starves the graph: dropping event
    // seq=K is deterministic, so scan K upward until the run
    // deadlocks.
    int deadlockSeq = -1;
    SimResult first;
    for (int seq = 0; seq < 64 && deadlockSeq < 0; seq++) {
        FaultPlan plan = FaultPlan::parse(
            "sim.drop-event:seq=" + std::to_string(seq));
        DataflowSimulator sim(r.graphPtrs(), *r.layout,
                              MemConfig::perfectMemory());
        sim.setMaxEvents(2000000);
        sim.setFaultPlan(&plan);
        SimResult out = sim.run("f", {10});
        if (out.outcome == SimOutcome::Deadlock) {
            deadlockSeq = seq;
            first = std::move(out);
        }
    }
    ASSERT_GE(deadlockSeq, 0)
        << "no single dropped event caused a deadlock";

    // The deadlock dump names at least one starved node and the
    // inputs it waits on.
    EXPECT_EQ(first.stats.get("sim.outcome.deadlock"), 1);
    EXPECT_EQ(first.stats.get("sim.events.dropped"), 1);
    ASSERT_FALSE(first.deadlock.stuck.empty());
    EXPECT_FALSE(first.deadlock.stuck[0].node.empty());
    EXPECT_FALSE(first.deadlock.stuck[0].waitingOn.empty());
    EXPECT_TRUE(first.error.find("deadlock") != std::string::npos);

    // Same spec, same failure: the report reproduces byte for byte.
    FaultPlan plan = FaultPlan::parse(
        "sim.drop-event:seq=" + std::to_string(deadlockSeq));
    DataflowSimulator sim(r.graphPtrs(), *r.layout,
                          MemConfig::perfectMemory());
    sim.setMaxEvents(2000000);
    sim.setFaultPlan(&plan);
    SimResult again = sim.run("f", {10});
    EXPECT_EQ(static_cast<int>(again.outcome),
              static_cast<int>(SimOutcome::Deadlock));
    EXPECT_EQ(again.deadlock.str(), first.deadlock.str());
}

TEST(FaultInjection, MissingGraphIsAnOutcomeNotAnAbort)
{
    CompileResult r = compileSource(
        "int g(int n) { return n + 1; }"
        "int f(int n) { return g(n) * 2; }",
        {});

    // Unknown entry point.
    DataflowSimulator all(r.graphPtrs(), *r.layout,
                          MemConfig::perfectMemory());
    SimResult miss = all.run("nope", {});
    EXPECT_EQ(static_cast<int>(miss.outcome),
              static_cast<int>(SimOutcome::MissingGraph));
    EXPECT_EQ(miss.stats.get("sim.outcome.missing_graph"), 1);

    // Callee graph withheld: the call fires and degrades instead of
    // aborting the process.
    std::vector<const Graph*> only = {r.graph("f")};
    DataflowSimulator part(only, *r.layout,
                           MemConfig::perfectMemory());
    SimResult out = part.run("f", {3});
    EXPECT_EQ(static_cast<int>(out.outcome),
              static_cast<int>(SimOutcome::MissingGraph));
    EXPECT_TRUE(out.error.find("'g'") != std::string::npos);
}

TEST(FaultInjection, HandBuiltTokenSelfLoopDeadlockNamesStarvedNode)
{
    // A Load whose token input can only come from its own token
    // output: the address arrives (wired from the initial token), the
    // token never does.  The deadlock report must name the load and
    // the starved token input.
    Graph g;
    g.name = "stuck";
    g.numParams = 0;
    Node* it = g.newNode(NodeKind::InitialToken, VT::Token, 0);
    g.initialToken = it;
    Node* pred = g.newConst(1, VT::Pred, 0);
    Node* ld = g.newNode(NodeKind::Load, VT::Word, 0);
    g.addInput(ld, {pred, 0});
    g.addInput(ld, {ld, 1});  // token self-loop: never satisfied
    g.addInput(ld, {it, 0});  // address: arrives at t=0
    Node* ret = g.newNode(NodeKind::Return, VT::Word, 0);
    g.addInput(ret, {pred, 0});
    g.addInput(ret, {ld, 1});
    g.addInput(ret, {ld, 0});
    g.returnNodes.push_back(ret);

    MemoryLayout layout;
    DataflowSimulator sim({&g}, layout, MemConfig::perfectMemory());
    SimResult out = sim.run("stuck", {});
    ASSERT_EQ(static_cast<int>(out.outcome),
              static_cast<int>(SimOutcome::Deadlock));
    ASSERT_FALSE(out.deadlock.stuck.empty());
    const StuckNode& s = out.deadlock.stuck[0];
    EXPECT_EQ(s.function, "stuck");
    EXPECT_TRUE(s.node.find("load") != std::string::npos) << s.node;
    ASSERT_EQ(s.waitingOn.size(), 1u);
    EXPECT_EQ(s.waitingOn[0], "in1 (token)");
    EXPECT_EQ(out.deadlock.lsqOccupancy, 0u);
    EXPECT_TRUE(out.deadlock.str().find("load") != std::string::npos);
}

TEST(FaultInjection, CorruptTokenCaughtByAnalysisBeforeSimulation)
{
    // Differential proof for the ordering checker (docs/ANALYSIS.md):
    // with the structural verifier OFF, the independent checker alone
    // must catch a corrupted token edge in any pass, roll the pass
    // back and keep the simulation golden.  The checker shares no
    // code with the verifier, so this is a second, independent line
    // of defense in front of the simulator.
    const uint32_t goldenFill =
        testutil::interpret(kMultiSrc, "fill", {10});
    for (const std::string& pass :
         standardPipelineNames(OptLevel::Full)) {
        FaultPlan plan = FaultPlan::parse(
            "graph.corrupt-token:pass=" + pass + ",func=fill,round=1");
        CompileResult r = compileSource(
            kMultiSrc, CompileOptions()
                           .inject(&plan)
                           .verification(false)
                           .orderingCheck(true));
        ASSERT_FALSE(r.ok()) << pass;
        bool analysisCaught = false;
        for (const PassFailure& d : r.diagnostics) {
            EXPECT_EQ(d.function, "fill") << pass;
            if (d.code == ErrorCode::AnalysisError)
                analysisCaught = true;
        }
        EXPECT_TRUE(analysisCaught)
            << pass << ": " << r.diagnostics[0].str();
        DataflowSimulator sim(r.graphPtrs(), *r.layout,
                              MemConfig::perfectMemory());
        SimResult out = sim.run("fill", {10});
        ASSERT_TRUE(out.ok()) << pass << ": " << out.error;
        EXPECT_EQ(out.returnValue, goldenFill) << pass;
    }
}

TEST(FaultInjection, CorruptTokenEdgeIsDeterministic)
{
    CompileResult a = compileSource(kMultiSrc, {});
    CompileResult b = compileSource(kMultiSrc, {});
    Graph* ga = a.graphs[1].get();
    Graph* gb = b.graphs[1].get();
    std::string da = corruptTokenEdge(*ga, 3);
    std::string db = corruptTokenEdge(*gb, 3);
    EXPECT_EQ(da, db);
    EXPECT_FALSE(da.empty());
    // The damage is verifier-visible.
    EXPECT_FALSE(verifyGraph(*ga).empty());
}

} // namespace
