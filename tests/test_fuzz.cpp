/**
 * @file
 * The fuzz/soak harness (docs/FUZZING.md): seeded generation is
 * deterministic and always yields valid terminating programs, the
 * grammar-aware minimizer strictly shrinks while preserving a
 * predicate, the differential oracle matrix is clean on clean seeds,
 * an injected canary is detected and minimized, and the checker/
 * engine bugs the harness has already caught stay fixed.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/lint.h"
#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "fuzz/oracles.h"
#include "test_util.h"

using namespace cash;
using namespace cash::fuzz;

namespace {

LintReport
lintCompiled(const CompileResult& r)
{
    LintContext ctx;
    ctx.oracle = &r.cfg->oracle;
    ctx.layout = r.layout.get();
    return runLints(r.graphPtrs(), ctx, {"ordering-soundness"});
}

// ---------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------

TEST(FuzzGenerator, DeterministicPerSeed)
{
    GenProfile p = GenProfile::byName("small");
    for (uint64_t seed : {1ull, 7ull, 42ull, 12345ull}) {
        GenProgram a = generateProgram(seed, p);
        GenProgram b = generateProgram(seed, p);
        EXPECT_EQ(a.render(), b.render()) << "seed " << seed;
        EXPECT_GE(a.functionCount(), 2); // helpers + entry
        EXPECT_GT(a.statementCount(), 0);
    }
    // Different seeds diverge (splitmix64 won't collide here).
    EXPECT_NE(generateProgram(1, p).render(),
              generateProgram(2, p).render());
    // "mixed" resolves to a real family per seed, deterministically.
    GenProfile mixed = GenProfile::byName("mixed");
    EXPECT_EQ(generateProgram(9, mixed).render(),
              generateProgram(9, mixed).render());
    EXPECT_THROW(GenProfile::byName("gigantic"), FatalError);
}

TEST(FuzzGenerator, ProgramsAreValidAndTerminate)
{
    // The validity contract: every generated program parses, passes
    // sema, compiles at every level and runs to completion inside a
    // modest event budget.  A handful of seeds keeps this fast; the
    // soak binary is the full-traffic version of the same claim.
    GenProfile p = GenProfile::byName("small");
    for (uint64_t seed = 1; seed <= 8; seed++) {
        std::string src = generateProgram(seed, p).render();
        CompileResult r =
            compileSource(src, CompileOptions().opt(OptLevel::Full));
        ASSERT_TRUE(r.ok()) << "seed " << seed << "\n" << src;
        DataflowSimulator sim(r.graphPtrs(), *r.layout,
                              MemConfig::perfectMemory());
        sim.setMaxEvents(5000000);
        SimResult out = sim.run(GenProgram::entryName(), {5});
        EXPECT_TRUE(out.ok())
            << "seed " << seed << ": " << out.error << "\n" << src;
    }
}

// ---------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------

TEST(FuzzMinimize, SiteOperationsShrinkStrictly)
{
    GenProgram prog =
        generateProgram(3, GenProfile::byName("small"));
    int64_t before = prog.statementCount();
    ASSERT_GT(countSites(prog, ReduceKind::DropStmt), 0);
    ASSERT_TRUE(applySite(&prog, ReduceKind::DropStmt, 0));
    EXPECT_LT(prog.statementCount(), before);
    // Out-of-range sites are rejected without touching the program.
    std::string snap = prog.render();
    EXPECT_FALSE(applySite(&prog, ReduceKind::DropStmt, 1 << 20));
    EXPECT_EQ(prog.render(), snap);
}

TEST(FuzzMinimize, GreedyReductionPreservesPredicate)
{
    // Predicate: the program still contains a for-loop.  The
    // minimizer must land on a small fixpoint that still has one.
    GenProgram prog =
        generateProgram(11, GenProfile::byName("small"));
    auto hasFor = [](const std::string& src) {
        return src.find("for (") != std::string::npos;
    };
    ASSERT_TRUE(hasFor(prog.render()));
    int64_t before = prog.statementCount();
    MinimizeStats st = minimizeProgram(&prog, hasFor, 500);
    EXPECT_TRUE(hasFor(prog.render()));
    EXPECT_LE(prog.statementCount(), before);
    EXPECT_EQ(st.beforeStmts, before);
    EXPECT_EQ(st.afterStmts, prog.statementCount());
    EXPECT_LE(st.accepted, st.evals);
    EXPECT_LE(st.evals, 500);
    // Minimized output is still a valid program.
    CompileResult r = compileSource(prog.render(), {});
    EXPECT_TRUE(r.ok()) << prog.render();
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

TEST(FuzzOracles, CleanSeedsProduceCleanCases)
{
    SoakConfig cfg;
    cfg.profile = "small";
    cfg.jobsHigh = 2;
    for (uint64_t seed = 1; seed <= 3; seed++) {
        CaseReport rep = runCase(seed, cfg);
        EXPECT_FALSE(rep.violation())
            << "seed " << seed << ": " << rep.category << " — "
            << rep.detail;
        EXPECT_FALSE(rep.inconclusive) << "seed " << seed;
        EXPECT_GT(rep.runs, 0);
        EXPECT_EQ(rep.latenciesUs.size(),
                  static_cast<size_t>(rep.runs));
        EXPECT_FALSE(rep.outcomes.empty());
    }
}

TEST(FuzzOracles, CanaryCorruptionIsDetectedAndMinimizes)
{
    // Acceptance canary: a graph.corrupt-token injection into a
    // verify-off pipeline must be caught by the independent ordering
    // checker, and the failure must survive grammar-aware reduction
    // (same category on the minimized program).
    SoakConfig cfg;
    cfg.profile = "small";
    cfg.canary = true;
    cfg.checkJobs = false;
    CaseReport rep = runCase(2, cfg);
    EXPECT_TRUE(rep.canaryDetected) << rep.detail;
    EXPECT_NE(rep.category, "canary-missed") << rep.detail;

    GenProgram prog =
        generateProgram(2, GenProfile::byName("small"));
    auto stillDetected = [&](const std::string& src) {
        CaseReport r = runCaseOnSource(src, 2, cfg);
        return r.canaryDetected;
    };
    MinimizeStats st = minimizeProgram(&prog, stillDetected, 60);
    EXPECT_GT(st.evals, 0);
    EXPECT_LE(st.afterStmts, st.beforeStmts);
    EXPECT_TRUE(stillDetected(prog.render()));
}

// ---------------------------------------------------------------------
// Regressions the soak harness caught (stay-fixed tests)
// ---------------------------------------------------------------------

// Minimized by cash-soak from seed 17 (small profile): a predicated
// load feeding a same-hyperblock return must not be paired with a
// strictly-downstream access — the return terminates the invocation,
// so the two can never touch memory in the same run.
const char* kReturnExclusionSrc =
    "int g0[16];\n"
    "unsigned s0 = -2;\n"
    "int s1 = 4;\n"
    "int f0(int d, int a0, int a1)\n"
    "{\n"
    "    if (1) {\n"
    "        return s1;\n"
    "    }\n"
    "    int i2;\n"
    "    for (i2 = 0; i2 < 1; i2++) {\n"
    "    }\n"
    "    return (1 + f0(1, 132199, 1));\n"
    "}\n"
    "int run(int n) { return 1; }\n";

// Minimized from seed 20: constant-folding `if (-4)` leaves the else
// loop an unseeded merge ring — its store can never fire and must not
// be paired with the live read-modify-write of s0.
const char* kUnseededRingSrc =
    "int g0[16];\n"
    "unsigned s0 = 8;\n"
    "unsigned s1 = 6;\n"
    "int run(int n)\n"
    "{\n"
    "    int v0 = s1;\n"
    "    if ((-4)) {\n"
    "    }\n"
    "    else {\n"
    "        int i1;\n"
    "        for (i1 = 0; i1 < 1; i1++) {\n"
    "            g0[(v0) & 15] = (-1);\n"
    "        }\n"
    "    }\n"
    "    s0 -= ((-1) % v0);\n"
    "    return 1;\n"
    "}\n";

// Minimized from seed 45 (full opt only): the optimizer hoists the
// else-branch load ahead of its loop, hiding its predicate behind the
// ring merges; the dominating-eta analysis must still prove the
// then-branch store disjoint (predicates n and !n).
const char* kDominatingEtaSrc =
    "int g0[16];\n"
    "int run(int n)\n"
    "{\n"
    "    int v0 = 1;\n"
    "    if (n) {\n"
    "        int i1;\n"
    "        for (i1 = 0; i1 < 1; i1++) {\n"
    "            g0[((-8)) & 15] = 11;\n"
    "        }\n"
    "    }\n"
    "    else {\n"
    "        int i2;\n"
    "        for (i2 = 0; i2 < 1; i2++) {\n"
    "            v0 ^= g0[(1) & 15];\n"
    "        }\n"
    "    }\n"
    "    return 1;\n"
    "}\n";

// Minimized from seed 336 — the soak's first real optimizer bug.
// token_removal proves the g0[13] load disjoint from the g0[4] store
// and drops their direct edge; the load's ordering against the loop's
// unknown-address store must then be inherited through the loop's
// token-ring merge.  tokenConsumerInput() used to return -1 for
// merges, so addTokenSource() silently dropped that inherited edge,
// leaving the load racing a store that may alias it.
const char* kRingSeedInheritSrc =
    "int g0[16];\n"
    "int f0(int a0, int a1)\n"
    "{\n"
    "    int v0 = (((12 | a0)) ? (1) : (g0[(13) & 15]));\n"
    "    int v1 = (1 < v0);\n"
    "    g0[(4) & 15] = 1;\n"
    "    int i0;\n"
    "    for (i0 = 0; i0 < 1; i0++) {\n"
    "        g0[(v1) & 15] = (-515036);\n"
    "    }\n"
    "    return 15;\n"
    "}\n"
    "int run(int n) { return f0(n, 2); }\n";

TEST(FuzzRegressions, TokenRemovalSeedsRingWithInheritedOrder)
{
    for (OptLevel level :
         {OptLevel::None, OptLevel::Medium, OptLevel::Full}) {
        CompileResult r = compileSource(kRingSeedInheritSrc,
                                        CompileOptions().opt(level));
        ASSERT_TRUE(r.ok());
        LintReport report = lintCompiled(r);
        EXPECT_EQ(report.errors(), 0)
            << optLevelName(level) << ": "
            << (report.findings.empty() ? ""
                                        : report.findings[0].str());
        DataflowSimulator sim(r.graphPtrs(), *r.layout,
                              MemConfig::perfectMemory(),
                              SimEngine::Macro);
        SimResult out = sim.run("run", {13});
        ASSERT_TRUE(out.ok()) << out.error;
        EXPECT_EQ(out.returnValue, 15u) << optLevelName(level);
    }
}

// Minimized from seed 3046 (oracle A, opt=none vs opt=full return
// divergence).
// memory_merge folds the branch stores into one predicated store, so
// the final load of s0 sees two *sequential* forwarding stores:
// s0 |= 1 (predicate: function entry) then s0 &= 1 (predicate: then-
// branch).  Both predicates are true on the then path — the
// forwarding mux must prioritize the store nearest the load, not
// decode on raw store predicates as if they were branch-exclusive.
const char* kSequentialForwardSrc =
    "int s0 = 12;\n"
    "int f0(int d, int a0, int a1)\n"
    "{\n"
    "    int v0 = (-326492);\n"
    "    int i1;\n"
    "    for (i1 = 0; i1 < 1; i1++) {\n"
    "    }\n"
    "    if (v0) {\n"
    "        s0 |= 1;\n"
    "        s0 &= 1;\n"
    "    }\n"
    "    else {\n"
    "        s0 += 12;\n"
    "    }\n"
    "    return s0;\n"
    "}\n"
    "int run(int n) { return ((1) ? (f0(4, 10, 1)) : (1)); }\n";

TEST(FuzzRegressions, StoreForwardingPrioritizesNearestStore)
{
    for (OptLevel level :
         {OptLevel::None, OptLevel::Medium, OptLevel::Full}) {
        CompileResult r = compileSource(kSequentialForwardSrc,
                                        CompileOptions().opt(level));
        ASSERT_TRUE(r.ok());
        for (SimEngine engine :
             {SimEngine::Event, SimEngine::Macro}) {
            DataflowSimulator sim(r.graphPtrs(), *r.layout,
                                  MemConfig::perfectMemory(), engine);
            SimResult out = sim.run("run", {5});
            ASSERT_TRUE(out.ok()) << out.error;
            EXPECT_EQ(out.returnValue, 1u) << optLevelName(level);
        }
    }
}

TEST(FuzzRegressions, CheckerStaysQuietOnMinimizedRepros)
{
    for (const char* src : {kReturnExclusionSrc, kUnseededRingSrc,
                            kDominatingEtaSrc}) {
        for (OptLevel level :
             {OptLevel::None, OptLevel::Medium, OptLevel::Full}) {
            CompileResult r =
                compileSource(src, CompileOptions().opt(level));
            ASSERT_TRUE(r.ok());
            LintReport report = lintCompiled(r);
            EXPECT_EQ(report.errors(), 0)
                << optLevelName(level) << ": "
                << (report.findings.empty()
                        ? ""
                        : report.findings[0].str())
                << "\n" << src;
        }
    }
}

// Minimized from seed 8: the loop-exit EOS tail fires in the same
// cycle as the root return.  Run-to-quiescence means both engines
// report the identical complete firing multiset (Kahn determinism),
// not "identical minus whatever was in flight when the return landed".
const char* kQuiescenceSrc =
    "int g0[16];\n"
    "int g1[16];\n"
    "int s0 = 12;\n"
    "int s1 = 5;\n"
    "int run(int n)\n"
    "{\n"
    "    int v0 = 1;\n"
    "    int i3;\n"
    "    for (i3 = 0; i3 < 1; i3++) {\n"
    "        v0 |= (1 < (1 + v0));\n"
    "    }\n"
    "    return 1;\n"
    "}\n";

TEST(FuzzRegressions, EnginesAgreeOnFiringCounts)
{
    for (OptLevel level :
         {OptLevel::None, OptLevel::Medium, OptLevel::Full}) {
        CompileResult r = compileSource(
            kQuiescenceSrc, CompileOptions().opt(level));
        ASSERT_TRUE(r.ok());
        int64_t firings[2] = {0, 0};
        int i = 0;
        for (SimEngine engine :
             {SimEngine::Event, SimEngine::Macro}) {
            DataflowSimulator sim(r.graphPtrs(), *r.layout,
                                  MemConfig::perfectMemory(), engine);
            SimResult out = sim.run("run", {5});
            ASSERT_TRUE(out.ok()) << out.error;
            EXPECT_EQ(out.returnValue, 1u);
            firings[i++] = out.stats.get("sim.firings");
        }
        EXPECT_EQ(firings[0], firings[1])
            << "event vs macro at " << optLevelName(level);
    }
}

} // namespace
