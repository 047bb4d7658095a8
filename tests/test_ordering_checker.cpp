/**
 * @file
 * The memory-ordering soundness checker and the lint framework
 * (docs/ANALYSIS.md): clean pipelines produce zero error findings at
 * every level, every injected token corruption is flagged, findings
 * are deterministic at any job count, and each rule fires on a
 * hand-built positive graph while staying silent on its clean twin.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/interproc.h"
#include "analysis/lint.h"
#include "analysis/ordering_checker.h"
#include "benchsuite/kernels.h"
#include "pegasus/verifier.h"
#include "support/fault_injection.h"
#include "test_util.h"

using namespace cash;

namespace {

LintReport
lintCompiled(const CompileResult& r,
             const std::vector<std::string>& rules = {})
{
    // Mirror the driver's analyze path: the checker-side
    // interprocedural model is rederived over the final graphs so
    // calls get per-site effects instead of Top.
    InterprocModel interproc(r.graphPtrs(), r.cfg->paramLocation,
                             *r.layout);
    LintContext ctx;
    ctx.oracle = &r.cfg->oracle;
    ctx.layout = r.layout.get();
    ctx.interproc = &interproc;
    return runLints(r.graphPtrs(), ctx, rules);
}

std::string
reportFingerprint(const LintReport& report)
{
    std::string out;
    for (const LintFinding& f : report.findings)
        out += f.str() + "\n" + f.json() + "\n";
    return out;
}

// ---------------------------------------------------------------------
// Acceptance: the whole benchsuite, clean and corrupted
// ---------------------------------------------------------------------

TEST(OrderingChecker, CleanKernelsHaveNoErrorsAtAnyLevel)
{
    for (const Kernel& k : kernelSuite()) {
        for (OptLevel level :
             {OptLevel::None, OptLevel::Medium, OptLevel::Full}) {
            CompileResult r = compileSource(
                k.source, CompileOptions().opt(level));
            ASSERT_TRUE(r.ok()) << k.name;
            LintReport report =
                lintCompiled(r, {"ordering-soundness"});
            EXPECT_EQ(report.errors(), 0)
                << k.name << " at " << optLevelName(level) << ": "
                << (report.findings.empty()
                        ? ""
                        : report.findings[0].str());
        }
    }
}

TEST(OrderingChecker, CorruptTokenEdgeFlaggedOnEveryKernel)
{
    // Differential proof of usefulness: damage the verifier also
    // catches must be caught by the *independent* checker, for every
    // kernel, every graph with a corruption site and several seeds.
    for (const Kernel& k : kernelSuite()) {
        CompileResult r = compileSource(
            k.source, CompileOptions().opt(OptLevel::Full));
        ASSERT_TRUE(r.ok()) << k.name;
        int corrupted = 0;
        for (const auto& g : r.graphs) {
            for (uint64_t seed = 0; seed < 3; seed++) {
                // Corrupt a pristine copy each time; reuse the
                // compiled layout and oracle.
                CompileResult fresh = compileSource(
                    k.source, CompileOptions().opt(OptLevel::Full));
                Graph* victim = nullptr;
                for (const auto& vg : fresh.graphs)
                    if (vg->name == g->name)
                        victim = vg.get();
                ASSERT_NE(victim, nullptr) << k.name;
                std::string what = corruptTokenEdge(*victim, seed);
                if (what.empty())
                    break;  // no token-consuming side effects here
                corrupted++;
                LintContext ctx;
                ctx.oracle = &fresh.cfg->oracle;
                ctx.layout = fresh.layout.get();
                LintReport report = runLints(
                    {victim}, ctx, {"ordering-soundness"});
                EXPECT_GT(report.errors(), 0)
                    << k.name << "/" << g->name << " seed " << seed
                    << ": " << what << " escaped the checker";
            }
        }
        EXPECT_GT(corrupted, 0)
            << k.name << ": no graph offered a corruption site";
    }
}

TEST(OrderingChecker, FindingsByteIdenticalAcrossJobCounts)
{
    // A pointer selected between two pragma-independent parameters
    // gives the analysis something to say on a healthy compile.
    const char* src =
        "#pragma independent p q\n"
        "int f(int *p, int *q, int c) {"
        " int *r; if (c) r = p; else r = q;"
        " *r = 5; return *p + *q; }";
    CompileResult serial =
        compileSource(src, CompileOptions().jobs(1));
    CompileResult parallel =
        compileSource(src, CompileOptions().jobs(8));
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());

    LintReport a = lintCompiled(serial);
    LintReport b = lintCompiled(parallel);
    EXPECT_FALSE(a.findings.empty());
    EXPECT_EQ(reportFingerprint(a), reportFingerprint(b));
}

// ---------------------------------------------------------------------
// Per-pass checking: analysis failures quarantine like verifier ones
// ---------------------------------------------------------------------

TEST(OrderingChecker, PerPassCheckQuarantinesCorruptingPass)
{
    const char* src =
        "int a[8];"
        "int fill(int n) { int i;"
        " for (i = 0; i < n; i++) a[i & 7] = i + 2; return a[0]; }";
    FaultPlan plan = FaultPlan::parse(
        "graph.corrupt-token:pass=dead_code,func=fill,round=1");

    // Structural verification off: only the ordering checker stands
    // between the corruption and the simulator.
    CompileResult r = compileSource(
        src, CompileOptions()
                 .verification(false)
                 .orderingCheck(true)
                 .inject(&plan));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diagnostics[0].pass, "dead_code");
    EXPECT_EQ(static_cast<int>(r.diagnostics[0].code),
              static_cast<int>(ErrorCode::AnalysisError));
    EXPECT_TRUE(r.diagnostics[0].message.find("token") !=
                std::string::npos)
        << r.diagnostics[0].message;
    EXPECT_GT(r.stats.get("opt.rollbacks"), 0);

    // The rollback restored a graph that still computes the answer.
    DataflowSimulator sim(r.graphPtrs(), *r.layout,
                          MemConfig::perfectMemory());
    SimResult out = sim.run("fill", {10});
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_EQ(out.returnValue,
              testutil::interpret(src, "fill", {10}));
}

// ---------------------------------------------------------------------
// AliasOracle edge cases the checker's set reasoning rests on
// ---------------------------------------------------------------------

TEST(AliasOracle, ExternalVersusGlobalOverlap)
{
    AliasOracle o;
    o.addExternal(5);
    o.addExposedObject(1);

    // A pointer parameter may hit an exposed global but not a
    // non-exposed one; two externals may always be equal; two
    // distinct concrete objects never overlap.
    EXPECT_TRUE(o.mayAliasLocations(5, 1));
    EXPECT_TRUE(o.mayAliasLocations(1, 5));
    EXPECT_FALSE(o.mayAliasLocations(5, 2));
    EXPECT_FALSE(o.mayAliasLocations(1, 2));
    o.addExternal(6);
    EXPECT_TRUE(o.mayAliasLocations(5, 6));
    EXPECT_TRUE(o.mayAliasLocations(5, 5));

    LocationSet ext = LocationSet::single(5);
    LocationSet exposed = LocationSet::single(1);
    LocationSet hidden = LocationSet::single(2);
    EXPECT_TRUE(o.mayOverlap(ext, exposed));
    EXPECT_FALSE(o.mayOverlap(ext, hidden));
    EXPECT_TRUE(o.mayOverlap(LocationSet::top(), hidden));
    EXPECT_FALSE(o.mayOverlap(LocationSet(), LocationSet::top()));
}

TEST(AliasOracle, PragmaIndependenceWinsOverExternalRules)
{
    AliasOracle o;
    o.addExternal(5);
    o.addExternal(6);
    EXPECT_TRUE(o.mayAliasLocations(5, 6));
    o.addIndependent(6, 5);  // normalized to (5, 6)
    EXPECT_FALSE(o.mayAliasLocations(5, 6));
    EXPECT_FALSE(o.mayAliasLocations(6, 5));
    ASSERT_EQ(o.independentPairs().size(), 1u);
    EXPECT_EQ(*o.independentPairs().begin(), std::make_pair(5, 6));
    // Independence is pairwise, not contagious.
    o.addExposedObject(1);
    EXPECT_TRUE(o.mayAliasLocations(5, 1));
    EXPECT_TRUE(o.mayAliasLocations(6, 1));
}

TEST(AliasOracle, PragmaPropagatesThroughPointerCopies)
{
    // The frontend's connection analysis must attach the externals of
    // both p and q to an access through a copy of either; the pragma
    // then separates the two loads from the store through the copy's
    // *other* origin only when provable.  End-to-end: with the pragma
    // the store to *p and the load of *q need no ordering, so the
    // compile stays clean under the checker at full optimization.
    const char* src =
        "#pragma independent p q\n"
        "int f(int *p, int *q, int n) { int i; int s = 0;"
        " for (i = 0; i < n; i++) { p[i] = i; s += q[i]; }"
        " return s; }";
    CompileResult r = compileSource(
        src, CompileOptions().opt(OptLevel::Full).orderingCheck(true));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(lintCompiled(r, {"ordering-soundness"}).errors(), 0);
    // The oracle actually recorded the pragma as an external pair.
    ASSERT_EQ(r.cfg->oracle.independentPairs().size(), 1u);
    auto [a, b] = *r.cfg->oracle.independentPairs().begin();
    EXPECT_TRUE(r.cfg->oracle.isExternal(a));
    EXPECT_TRUE(r.cfg->oracle.isExternal(b));
    EXPECT_FALSE(r.cfg->oracle.mayAliasLocations(a, b));
}

// ---------------------------------------------------------------------
// Hand-built graphs: one positive and one clean negative per rule
// ---------------------------------------------------------------------

/** Store anchored to @p token writing abstract location @p loc. */
Node*
addStore(Graph& g, PortRef token, int loc)
{
    Node* st = g.newNode(NodeKind::Store, VT::Word, 0);
    g.addInput(st, {g.truePred(0), 0});
    g.addInput(st, token);
    g.addInput(st, {g.newConst(64 + 8 * loc, VT::Word, 0), 0});
    g.addInput(st, {g.newConst(7, VT::Word, 0), 0});
    st->rwSet = LocationSet::single(loc);
    return st;
}

TEST(LintRules, OrderingSoundnessFlagsUnorderedConflictingStores)
{
    Graph g;
    g.name = "t";
    g.initialToken = g.newNode(NodeKind::InitialToken, VT::Token, 0);
    // Two stores to the same location, both anchored directly to the
    // initial token: neither reaches the other.
    Node* s1 = addStore(g, {g.initialToken, 0}, 0);
    Node* s2 = addStore(g, {g.initialToken, 0}, 0);

    AliasOracle oracle;
    LintContext ctx;
    ctx.oracle = &oracle;
    LintReport bad = runLints({&g}, ctx, {"ordering-soundness"});
    ASSERT_EQ(bad.errors(), 1) << reportFingerprint(bad);
    EXPECT_EQ(bad.findings[0].nodeA, s1->id);
    EXPECT_EQ(bad.findings[0].nodeB, s2->id);
    EXPECT_TRUE(bad.findings[0].explanation.find("no token path") !=
                std::string::npos);

    // Chaining the second store behind the first restores the order.
    g.setInput(s2, 1, {s1, 0});
    EXPECT_EQ(runLints({&g}, ctx, {"ordering-soundness"}).errors(), 0);

    // Disjoint concrete objects never needed ordering to begin with.
    Graph g2;
    g2.name = "t2";
    g2.initialToken = g2.newNode(NodeKind::InitialToken, VT::Token, 0);
    addStore(g2, {g2.initialToken, 0}, 0);
    addStore(g2, {g2.initialToken, 0}, 1);
    EXPECT_EQ(runLints({&g2}, ctx, {"ordering-soundness"}).errors(), 0);
}

TEST(LintRules, OrderingSoundnessFlagsUnanchoredConsumer)
{
    Graph g;
    g.name = "t";
    g.initialToken = g.newNode(NodeKind::InitialToken, VT::Token, 0);
    Node* st = addStore(g, {g.initialToken, 0}, 0);
    // Re-wire the token input to a word constant, as a buggy pass
    // might: the store is no longer anchored.
    g.setInput(st, 1, {g.newConst(0, VT::Word, 0), 0});

    LintContext ctx;  // no oracle: only the anchoring part can fire
    LintReport report = runLints({&g}, ctx, {"ordering-soundness"});
    ASSERT_EQ(report.errors(), 1);
    EXPECT_EQ(report.findings[0].nodeA, st->id);
    EXPECT_TRUE(report.findings[0].explanation.find("not anchored") !=
                std::string::npos)
        << report.findings[0].explanation;
}

TEST(LintRules, RedundantTokenEdgeDetected)
{
    Graph g;
    g.name = "t";
    g.initialToken = g.newNode(NodeKind::InitialToken, VT::Token, 0);
    Node* s1 = addStore(g, {g.initialToken, 0}, 0);
    // s2 combines the initial token with s1's token — but s1 already
    // follows the initial token, so that first edge adds nothing.
    Node* comb = g.newNode(NodeKind::Combine, VT::Token, 0);
    g.addInput(comb, {g.initialToken, 0});
    g.addInput(comb, {s1, 0});
    Node* s2 = addStore(g, {comb, 0}, 0);

    LintContext ctx;
    LintReport report = runLints({&g}, ctx, {"redundant-token-edge"});
    ASSERT_EQ(report.warnings(), 1) << reportFingerprint(report);
    EXPECT_EQ(report.findings[0].nodeA, g.initialToken->id);
    EXPECT_EQ(report.findings[0].nodeB, s2->id);

    // Two genuinely parallel sources are not redundant.
    Graph g2;
    g2.name = "t2";
    g2.initialToken = g2.newNode(NodeKind::InitialToken, VT::Token, 0);
    Node* a = addStore(g2, {g2.initialToken, 0}, 0);
    Node* b = addStore(g2, {g2.initialToken, 0}, 1);
    Node* comb2 = g2.newNode(NodeKind::Combine, VT::Token, 0);
    g2.addInput(comb2, {a, 0});
    g2.addInput(comb2, {b, 0});
    addStore(g2, {comb2, 0}, 2);
    EXPECT_EQ(runLints({&g2}, ctx, {"redundant-token-edge"})
                  .warnings(),
              0);
}

TEST(LintRules, DeadTokenSinkDetected)
{
    Graph g;
    g.name = "t";
    g.initialToken = g.newNode(NodeKind::InitialToken, VT::Token, 0);
    Node* st = addStore(g, {g.initialToken, 0}, 0);
    // Token plumbing hanging off the store that orders nothing.
    Node* comb = g.newNode(NodeKind::Combine, VT::Token, 0);
    g.addInput(comb, {st, 0});

    LintContext ctx;
    LintReport report = runLints({&g}, ctx, {"dead-token-sink"});
    ASSERT_EQ(report.warnings(), 1) << reportFingerprint(report);
    EXPECT_EQ(report.findings[0].nodeA, comb->id);

    // The same combine feeding a second store is load-bearing.
    addStore(g, {comb, 0}, 0);
    EXPECT_EQ(runLints({&g}, ctx, {"dead-token-sink"}).warnings(), 0);
}

TEST(LintRules, UnprovablePragmaDetected)
{
    Graph g;
    g.name = "t";
    g.initialToken = g.newNode(NodeKind::InitialToken, VT::Token, 0);
    Node* st = addStore(g, {g.initialToken, 0}, 2);
    st->rwSet.insert(3);  // one access touching both "independent" locs

    AliasOracle oracle;
    oracle.addExternal(2);
    oracle.addExternal(3);
    oracle.addIndependent(2, 3);
    LintContext ctx;
    ctx.oracle = &oracle;
    LintReport report = runLints({&g}, ctx, {"unprovable-pragma"});
    ASSERT_EQ(report.warnings(), 1) << reportFingerprint(report);
    EXPECT_EQ(report.findings[0].nodeA, st->id);

    // An access touching only one side supports the claim.
    st->rwSet = LocationSet::single(2);
    EXPECT_EQ(runLints({&g}, ctx, {"unprovable-pragma"}).warnings(),
              0);
}

TEST(LintRules, MergeableResidueDetected)
{
    Graph g;
    g.name = "t";
    g.initialToken = g.newNode(NodeKind::InitialToken, VT::Token, 0);
    Node* addr = g.newConst(64, VT::Word, 0);
    Node* l1 = g.newNode(NodeKind::Load, VT::Word, 0);
    g.addInput(l1, {g.truePred(0), 0});
    g.addInput(l1, {g.initialToken, 0});
    g.addInput(l1, {addr, 0});
    Node* l2 = g.newNode(NodeKind::Load, VT::Word, 0);
    g.addInput(l2, {g.truePred(0), 0});
    g.addInput(l2, {g.initialToken, 0});
    g.addInput(l2, {addr, 0});

    LintContext ctx;
    LintReport report = runLints({&g}, ctx, {"mergeable-residue"});
    ASSERT_EQ(report.infos(), 1) << reportFingerprint(report);
    EXPECT_EQ(report.findings[0].nodeA, l1->id);
    EXPECT_EQ(report.findings[0].nodeB, l2->id);

    // Different token sources (one load ordered after a store) mean
    // the merger could change behavior: not residue.
    Node* st = addStore(g, {g.initialToken, 0}, 0);
    g.setInput(l2, 1, {st, 0});
    EXPECT_EQ(runLints({&g}, ctx, {"mergeable-residue"}).infos(), 0);
}

// ---------------------------------------------------------------------
// Checker internals on real compiles
// ---------------------------------------------------------------------

TEST(OrderingChecker, QueriesAreConsistentOnCompiledGraphs)
{
    CompileResult r = compileSource(
        "int a[8];"
        "int fill(int n) { int i;"
        " for (i = 0; i < n; i++) a[i & 7] = i + 2; return a[0]; }");
    ASSERT_TRUE(r.ok());
    const Graph* g = r.graph("fill");
    ASSERT_NE(g, nullptr);
    OrderingChecker checker(*g, &r.cfg->oracle, r.layout.get(),
                            /*interproc=*/nullptr);

    EXPECT_FALSE(checker.sideEffects().empty());
    EXPECT_FALSE(checker.tokenNodes().empty());
    EXPECT_GT(checker.stats().tokenEdges, 0);
    for (const Node* a : checker.sideEffects()) {
        // A side effect's ordering sources exist and produce tokens.
        for (const Node* src : checker.orderingSources(a)) {
            EXPECT_NE(src->kind, NodeKind::Combine);
            EXPECT_TRUE(checker.tokenReaches(src, a))
                << src->id << " -> " << a->id;
        }
        for (const Node* b : checker.sideEffects()) {
            if (a == b)
                continue;
            // ordered() is the symmetric closure of tokenReaches.
            EXPECT_EQ(checker.ordered(a, b),
                      checker.tokenReaches(a, b) ||
                          checker.tokenReaches(b, a));
            // The forward closure is a subset of the full one.
            if (checker.tokenReachesForward(a, b)) {
                EXPECT_TRUE(checker.tokenReaches(a, b));
            }
        }
    }
    std::vector<LintFinding> findings;
    checker.check(findings);
    EXPECT_TRUE(findings.empty());
}

TEST(OrderingChecker, ConstTableLoadsAreExemptFromConflicts)
{
    // A load from a const table never conflicts with stores: §4.2
    // detaches immutable loads, and the checker must not re-demand an
    // ordering the passes legitimately erased.
    const char* src =
        "const int t[4] = {1, 2, 3, 4};"
        "int b[4];"
        "int f(int n) { int i; int s = 0;"
        " for (i = 0; i < n; i++) { b[i & 3] = i; s += t[i & 3]; }"
        " return s; }";
    for (OptLevel level :
         {OptLevel::None, OptLevel::Medium, OptLevel::Full}) {
        CompileResult r =
            compileSource(src, CompileOptions().opt(level));
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(lintCompiled(r, {"ordering-soundness"}).errors(), 0)
            << optLevelName(level);
    }
}

// ---------------------------------------------------------------------
// Framework plumbing
// ---------------------------------------------------------------------

TEST(LintFramework, RegistryNamesAndNormalization)
{
    LintRegistry& reg = LintRegistry::global();
    for (const std::string& name : standardLintNames()) {
        EXPECT_TRUE(reg.has(name)) << name;
        std::unique_ptr<LintRule> rule = reg.create(name);
        ASSERT_NE(rule, nullptr);
        EXPECT_FALSE(std::string(rule->description()).empty());
    }
    // '-' and '_' are interchangeable, unknown names are fatal.
    EXPECT_TRUE(reg.has("ordering_soundness"));
    EXPECT_TRUE(reg.has("ordering-soundness"));
    EXPECT_THROW(reg.create("no-such-rule"), FatalError);
    EXPECT_THROW(
        runLints({}, LintContext(), {"bogus"}), FatalError);
}

TEST(LintFramework, StatsAndSeverityCounters)
{
    Graph g;
    g.name = "t";
    g.initialToken = g.newNode(NodeKind::InitialToken, VT::Token, 0);
    Node* s1 = addStore(g, {g.initialToken, 0}, 0);
    addStore(g, {g.initialToken, 0}, 0);
    (void)s1;

    AliasOracle oracle;
    StatSet stats;
    LintContext ctx;
    ctx.oracle = &oracle;
    ctx.stats = &stats;
    LintReport report = runLints({&g}, ctx);
    EXPECT_EQ(report.errors(), 1);
    EXPECT_EQ(stats.get("analysis.findings"),
              static_cast<int64_t>(report.findings.size()));
    EXPECT_EQ(stats.get("analysis.errors"), 1);
    EXPECT_EQ(stats.get("analysis.ordering_soundness.count"), 1);

    // Findings render with rule, severity, function and node ids.
    const LintFinding& f = report.findings[0];
    EXPECT_NE(f.str().find("[error] ordering-soundness in 't'"),
              std::string::npos)
        << f.str();
    EXPECT_NE(f.json().find("\"rule\": \"ordering-soundness\""),
              std::string::npos)
        << f.json();
}

// ---------------------------------------------------------------------
// Verifier tightening: token-typed value operators are rejected
// ---------------------------------------------------------------------

TEST(VerifierTightening, TokenTypedValueOperatorsRejected)
{
    Graph g;
    g.name = "t";
    Node* it = g.newNode(NodeKind::InitialToken, VT::Token, 0);
    Node* neg = g.newArith1(Op::Neg, {it, 0}, 0, VT::Token);
    (void)neg;
    std::vector<std::string> problems = verifyGraph(g);
    ASSERT_FALSE(problems.empty());
    bool found = false;
    for (const std::string& p : problems)
        if (p.find("token-typed value operator") != std::string::npos)
            found = true;
    EXPECT_TRUE(found) << problems[0];

    // Token-typed Mux smuggling a token past the ordering analyses.
    Graph g2;
    g2.name = "t2";
    Node* it2 = g2.newNode(NodeKind::InitialToken, VT::Token, 0);
    Node* mux = g2.newNode(NodeKind::Mux, VT::Token, 0);
    g2.addInput(mux, {g2.truePred(0), 0});
    g2.addInput(mux, {it2, 0});
    bool flagged = false;
    for (const std::string& p : verifyGraph(g2))
        if (p.find("token-typed value operator") != std::string::npos)
            flagged = true;
    EXPECT_TRUE(flagged);

    // Compiled graphs never trip the new rule.
    CompileResult r = compileSource(
        "int a[4]; int f(int n) { a[n & 3] = n; return a[0]; }");
    for (const auto& cg : r.graphs)
        EXPECT_TRUE(verifyGraph(*cg).empty()) << cg->name;
}

} // namespace
