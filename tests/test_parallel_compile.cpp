/**
 * @file
 * Determinism of parallel per-function compilation, the fork-join
 * parallelFor() under it, and the PassRegistry API.
 *
 * The contract under test (docs/API.md): compiling at any job count
 * yields byte-identical results — same stats (modulo wall-clock
 * timing counters), same IR shape, same DOT text, same simulated
 * cycles.  Workers merge their outputs in function-declaration order,
 * so scheduling must never leak into anything observable.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "benchsuite/kernels.h"
#include "driver/compiler.h"
#include "pegasus/dot.h"
#include "sim/dataflow_sim.h"
#include "support/parallel.h"

using namespace cash;

namespace {

/** Stats minus the wall-clock keys ("*.time_us", "time.*"). */
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
dotFingerprint(const CompileResult& r)
{
    std::string out;
    for (const auto& g : r.graphs)
        out += toDot(*g);
    return out;
}

/** A program with enough functions to oversubscribe 8 workers. */
std::string
manyFunctionSource(int functions)
{
    std::string src = "int data[256];\nint acc[256];\n";
    for (int f = 0; f < functions; f++) {
        std::string name = "work" + std::to_string(f);
        src += "int " + name +
               "(int n) {\n"
               "    int i; int s = " + std::to_string(f) + ";\n"
               "    for (i = 0; i < n; i++) {\n"
               "        data[i] = i * " + std::to_string(f + 1) + ";\n"
               "        acc[i] = acc[i] + data[i];\n"
               "        s = s + acc[i];\n"
               "    }\n"
               "    return s;\n"
               "}\n";
    }
    src += "int run(int n) {\n    int s = 0;\n";
    for (int f = 0; f < functions; f++)
        src += "    s = s + work" + std::to_string(f) + "(n);\n";
    src += "    return s;\n}\n";
    return src;
}

} // namespace

// ---------------------------------------------------------------------
// Parallel determinism
// ---------------------------------------------------------------------

TEST(ParallelCompile, BenchsuiteIdenticalAtJ1AndJ8)
{
    for (const Kernel& k : kernelSuite()) {
        CompileResult serial =
            compileSource(k.source,
                          CompileOptions().opt(OptLevel::Full).jobs(1));
        CompileResult parallel =
            compileSource(k.source,
                          CompileOptions().opt(OptLevel::Full).jobs(8));

        EXPECT_EQ(statsFingerprint(serial.stats),
                  statsFingerprint(parallel.stats))
            << k.name;

        ASSERT_EQ(serial.graphs.size(), parallel.graphs.size())
            << k.name;
        for (size_t i = 0; i < serial.graphs.size(); i++) {
            EXPECT_EQ(serial.graphs[i]->name, parallel.graphs[i]->name);
            EXPECT_TRUE(measureIr(*serial.graphs[i]) ==
                        measureIr(*parallel.graphs[i]))
                << k.name << "/" << serial.graphs[i]->name;
        }
        EXPECT_EQ(dotFingerprint(serial), dotFingerprint(parallel))
            << k.name;

        // Simulated timing must agree cycle for cycle.
        DataflowSimulator simS(serial.graphPtrs(), *serial.layout,
                               MemConfig::perfectMemory());
        DataflowSimulator simP(parallel.graphPtrs(), *parallel.layout,
                               MemConfig::perfectMemory());
        SimResult a = simS.run(k.entry, k.args);
        SimResult b = simP.run(k.entry, k.args);
        EXPECT_EQ(a.returnValue, b.returnValue) << k.name;
        EXPECT_EQ(a.cycles, b.cycles) << k.name;
    }
}

TEST(ParallelCompile, ManyFunctionsIdenticalAcrossJobCounts)
{
    const std::string src = manyFunctionSource(24);
    CompileResult base =
        compileSource(src, CompileOptions().opt(OptLevel::Full).jobs(1));
    const std::string baseStats = statsFingerprint(base.stats);
    const std::string baseDot = dotFingerprint(base);

    for (int jobs : {2, 3, 8, 16}) {
        CompileResult r = compileSource(
            src, CompileOptions().opt(OptLevel::Full).jobs(jobs));
        EXPECT_EQ(baseStats, statsFingerprint(r.stats)) << jobs;
        EXPECT_EQ(baseDot, dotFingerprint(r)) << jobs;
    }
}

TEST(ParallelCompile, MediumLevelIdenticalToo)
{
    const std::string src = manyFunctionSource(8);
    CompileResult a = compileSource(
        src, CompileOptions().opt(OptLevel::Medium).jobs(1));
    CompileResult b = compileSource(
        src, CompileOptions().opt(OptLevel::Medium).jobs(8));
    EXPECT_EQ(statsFingerprint(a.stats), statsFingerprint(b.stats));
    EXPECT_EQ(dotFingerprint(a), dotFingerprint(b));
}

TEST(ParallelCompile, TraceEventSequenceDeterministic)
{
    const std::string src = manyFunctionSource(12);
    auto eventSequence = [&](int jobs) {
        TraceRecorder rec;
        rec.enable();
        compileSource(src, CompileOptions()
                               .opt(OptLevel::Full)
                               .jobs(jobs)
                               .trace(&rec));
        // Timestamps are wall clock; the *sequence* (name, category,
        // track) must not depend on scheduling.
        std::string out;
        for (const TraceEvent& ev : rec.events())
            out += ev.name + "|" + ev.cat + "|" +
                   std::to_string(ev.tid) + "\n";
        return out;
    };
    EXPECT_EQ(eventSequence(1), eventSequence(8));
}

TEST(ParallelCompile, ParseErrorsPropagateFromAnyJobCount)
{
    EXPECT_THROW(compileSource("int f(int a) { return }",
                               CompileOptions().jobs(8)),
                 FatalError);
}

// ---------------------------------------------------------------------
// parallelFor
// ---------------------------------------------------------------------

TEST(ParallelFor, RunsEveryTaskExactlyOnce)
{
    // n = 0, 1, fewer tasks than workers, and many more.
    for (size_t n : {0u, 1u, 3u, 1000u}) {
        std::vector<std::atomic<int>> hits(n);
        parallelFor(n, 8, [&](size_t i) { hits[i]++; });
        for (size_t i = 0; i < n; i++)
            ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
}

TEST(ParallelFor, SingleWorkerRunsInlineInOrder)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    parallelFor(16, 1, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (size_t i = 0; i < order.size(); i++)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, LowestIndexExceptionWins)
{
    for (int workers : {1, 4}) {
        for (int round = 0; round < 4; round++) {
            std::vector<std::atomic<int>> hits(64);
            try {
                parallelFor(hits.size(), workers, [&](size_t i) {
                    hits[i]++;
                    if (i % 2 == 1)
                        throw std::runtime_error("task " +
                                                 std::to_string(i));
                });
                FAIL() << "expected an exception";
            } catch (const std::runtime_error& e) {
                EXPECT_STREQ(e.what(), "task 1");
            }
            for (size_t i = 0; i < hits.size(); i++)
                ASSERT_EQ(hits[i].load(), 1)
                    << "workers=" << workers << " i=" << i;
        }
    }
}

TEST(ParallelFor, NestedCallCompletes)
{
    // As cash-soak does: each outer task compiles at -jN, which runs
    // its own parallelFor() inside a worker of the outer one.
    std::vector<std::atomic<int>> hits(4 * 16);
    parallelFor(4, 4, [&](size_t outer) {
        parallelFor(16, 4, [&](size_t inner) {
            hits[outer * 16 + inner]++;
        });
    });
    for (size_t i = 0; i < hits.size(); i++)
        ASSERT_EQ(hits[i].load(), 1) << i;
}

// ---------------------------------------------------------------------
// PassRegistry
// ---------------------------------------------------------------------

TEST(PassRegistry, UnknownPassIsAnError)
{
    EXPECT_THROW(PassRegistry::global().create("no_such_pass"),
                 FatalError);
    EXPECT_THROW(PassRegistry::global().createPipeline(
                     {"dead_code", "no_such_pass"}),
                 FatalError);
    EXPECT_THROW(compileSource("int f(int a) { return a; }",
                               CompileOptions().passes({"bogus"})),
                 FatalError);
}

TEST(PassRegistry, BuiltinsRegisteredUnderTheirNames)
{
    PassRegistry& reg = PassRegistry::global();
    for (const char* name :
         {"scalar_opts", "dead_code", "transitive_reduction",
          "token_removal", "immutable_loads", "memory_merge",
          "store_forwarding", "dead_store", "loop_invariant",
          "readonly_split", "monotone_pipelining", "loop_decoupling"}) {
        ASSERT_TRUE(reg.has(name)) << name;
        EXPECT_STREQ(reg.create(name)->name(), name);
    }
}

TEST(PassRegistry, HyphenAndUnderscoreInterchangeable)
{
    PassRegistry& reg = PassRegistry::global();
    EXPECT_TRUE(reg.has("token-removal"));
    EXPECT_STREQ(reg.create("token-removal")->name(), "token_removal");
}

TEST(PassRegistry, StandardPipelineRoundTripsThroughNames)
{
    for (OptLevel level :
         {OptLevel::None, OptLevel::Medium, OptLevel::Full}) {
        std::vector<std::string> names = standardPipelineNames(level);
        std::vector<std::unique_ptr<Pass>> passes =
            PassRegistry::global().createPipeline(names);
        ASSERT_EQ(passes.size(), names.size());
        for (size_t i = 0; i < passes.size(); i++)
            EXPECT_EQ(passes[i]->name(), names[i]);
    }
}

namespace {

/** A pass that only counts its own invocations. */
class CountingPass : public Pass
{
  public:
    const char* name() const override { return "test_counting"; }
    bool
    run(Graph&, OptContext& ctx) override
    {
        ctx.count("opt.test_counting.ran");
        return false;
    }
};

} // namespace

TEST(PassRegistry, CustomPassRunsInCustomPipeline)
{
    PassRegistry::global().registerPass(
        "test_counting", [] { return std::make_unique<CountingPass>(); });
    ASSERT_TRUE(PassRegistry::global().has("test_counting"));

    CompileResult r = compileSource(
        "int f(int a) { return a * 2; }",
        CompileOptions().passes(
            {"scalar_opts", "test_counting", "dead_code"}));
    EXPECT_GT(r.stats.get("opt.test_counting.ran"), 0);
    // The custom pipeline replaced the standard one entirely.
    EXPECT_FALSE(r.stats.has("opt.pass.token_removal.runs"));
}

TEST(PassRegistry, CustomPipelineDeterministicInParallel)
{
    const std::string src = manyFunctionSource(8);
    std::vector<std::string> spec = {"scalar_opts", "immutable_loads",
                                     "token-removal", "dead_code"};
    CompileResult a =
        compileSource(src, CompileOptions().passes(spec).jobs(1));
    CompileResult b =
        compileSource(src, CompileOptions().passes(spec).jobs(8));
    EXPECT_EQ(statsFingerprint(a.stats), statsFingerprint(b.stats));
    EXPECT_EQ(dotFingerprint(a), dotFingerprint(b));
}

// ---------------------------------------------------------------------
// CompileOptions builder
// ---------------------------------------------------------------------

TEST(CompileOptions, FluentBuilderSetsAllFields)
{
    TraceRecorder rec;
    CompileOptions co = CompileOptions()
                            .opt(OptLevel::Medium)
                            .jobs(3)
                            .trace(&rec)
                            .verification(false)
                            .pointsTo(false)
                            .passes({"dead_code"});
    EXPECT_EQ(co.level, OptLevel::Medium);
    EXPECT_EQ(co.numJobs, 3);
    EXPECT_EQ(co.tracer, &rec);
    EXPECT_FALSE(co.verify);
    EXPECT_FALSE(co.pointsToInConstruction);
    ASSERT_EQ(co.passNames.size(), 1u);
    EXPECT_EQ(co.passNames[0], "dead_code");
}

TEST(CompileOptions, BuilderOnlyNoAggregateInit)
{
    // Positional aggregate init does not compile (the default
    // constructor is user-declared), so fields may be reordered.  The
    // builder and field assignment are the two spellings:
    static_assert(!std::is_aggregate_v<CompileOptions>);
    CompileOptions co =
        CompileOptions().opt(OptLevel::Medium).verification(true).pointsTo(
            true);
    EXPECT_EQ(co.level, OptLevel::Medium);
    EXPECT_EQ(co.numJobs, 0);
    EXPECT_TRUE(co.passNames.empty());
    CompileOptions assigned;
    assigned.level = OptLevel::Medium;
    EXPECT_EQ(assigned.level, co.level);
    EXPECT_EQ(assigned.verify, co.verify);
    EXPECT_EQ(assigned.pointsToInConstruction, co.pointsToInConstruction);
    CompileResult r =
        compileSource("int f(int a) { return a + 1; }", co);
    EXPECT_EQ(r.graphs.size(), 1u);
}
