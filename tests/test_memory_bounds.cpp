/**
 * @file
 * Accesses at addresses near 2^32: the bounds check of the simulated
 * memory (both engines) and of the golden interpreter must reject
 * them with the "invalid address" error instead of letting
 * `addr + size` wrap past the end of the memory and index out of
 * range.  (cashd's side of this is in test_compile_service.cpp.)
 */
#include <gtest/gtest.h>

#include <string>

#include "driver/driver_lib.h"
#include "test_util.h"

using namespace cash;

namespace {

/** g[-1025] is 0x1000 - 4100 = 0xFFFFFFFC: the last word of the
 *  32-bit address space, whose end wraps to 0. */
const char* const kWrappedLoad =
    "int g[4];\nint run(int a) { g[0] = 7; return g[a]; }\n";
const char* const kWrappedStore =
    "int g[4];\nint run(int a) { g[a] = 7; return g[0]; }\n";
const uint32_t kWrapArg = static_cast<uint32_t>(-1025);

bool
contains(const std::string& s, const std::string& what)
{
    return s.find(what) != std::string::npos;
}

TEST(MemoryBounds, InBoundsChecksWithoutWrapping)
{
    const uint32_t end = MemoryLayout::kMemorySize;
    EXPECT_TRUE(MemoryLayout::inBounds(end - 4, 4));
    EXPECT_FALSE(MemoryLayout::inBounds(end - 2, 4));
    EXPECT_FALSE(MemoryLayout::inBounds(end, 1));
    EXPECT_FALSE(MemoryLayout::inBounds(0xFFFFFFFCu, 4));
    EXPECT_FALSE(MemoryLayout::inBounds(0xFFFFFFFFu, 1));
}

TEST(MemoryBounds, BothEnginesRejectAWrappedAddress)
{
    struct Case
    {
        const char* source;
        const char* what;
    };
    for (const Case& c : {Case{kWrappedLoad, "load from invalid address"},
                          Case{kWrappedStore, "store to invalid address"}}) {
        CompileResult r =
            compileSource(c.source, CompileOptions().jobs(1));
        ASSERT_TRUE(r.ok());
        for (SimEngine engine : {SimEngine::Event, SimEngine::Macro}) {
            DataflowSimulator sim(r.graphPtrs(), *r.layout,
                                  MemConfig::realistic(2), engine);
            try {
                (void)sim.run("run", {kWrapArg});
                ADD_FAILURE() << c.what << ": no error";
            } catch (const FatalError& e) {
                EXPECT_TRUE(contains(e.what(), c.what)) << e.what();
                EXPECT_TRUE(contains(e.what(), "4294967292")) << e.what();
            }
        }
    }
}

TEST(MemoryBounds, DriverRequestReportsTheErrorOnBothEngines)
{
    // runDriverRequest() is what cashd's request workers run.
    for (const char* source : {kWrappedLoad, kWrappedStore}) {
        for (const char* engine : {"event", "macro"}) {
            DriverRequest req;
            req.source = source;
            req.jobs = 1;
            req.target.engine = engine;
            req.runSpec = "run(-1025)";
            DriverReply rep = runDriverRequest(req);
            EXPECT_EQ(rep.exitCode, 1) << engine;
            EXPECT_TRUE(contains(rep.fatal, "invalid address"))
                << engine << ": " << rep.fatal;
        }
    }
}

TEST(MemoryBounds, InterpreterRejectsAWrappedAddress)
{
    EXPECT_THROW(
        {
            try {
                testutil::interpret(kWrappedLoad, "run", {kWrapArg});
            } catch (const FatalError& e) {
                EXPECT_TRUE(contains(e.what(), "load from invalid address"))
                    << e.what();
                throw;
            }
        },
        FatalError);
    EXPECT_THROW(
        {
            try {
                testutil::interpret(kWrappedStore, "run", {kWrapArg});
            } catch (const FatalError& e) {
                EXPECT_TRUE(contains(e.what(), "store to invalid address"))
                    << e.what();
                throw;
            }
        },
        FatalError);
}

TEST(MemoryBounds, InBoundsIndexStillRuns)
{
    EXPECT_EQ(testutil::interpret(kWrappedLoad, "run", {0}), 7u);
    EXPECT_EQ(testutil::simulate(kWrappedStore, "run", {1}).returnValue, 0u);
}

} // namespace
