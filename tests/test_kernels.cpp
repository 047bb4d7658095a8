/**
 * @file
 * Whole-kernel differential tests: every suite kernel must produce the
 * interpreter's result at every optimization level, on both perfect
 * and realistic memory.
 */
#include <gtest/gtest.h>

#include "benchsuite/kernels.h"
#include "opt/opt_util.h"
#include "test_util.h"

using namespace cash;

namespace {

class KernelTest : public ::testing::TestWithParam<
                       std::tuple<std::string, OptLevel>>
{
};

TEST_P(KernelTest, MatchesInterpreter)
{
    const auto& [name, level] = GetParam();
    const Kernel& k = kernelByName(name);
    uint32_t expect = testutil::interpret(k.source, k.entry, k.args);
    SimResult got = testutil::simulate(k.source, k.entry, k.args, level);
    EXPECT_EQ(got.returnValue, expect) << k.name << " at level "
                                       << optLevelName(level);
    EXPECT_GT(got.cycles, 0u);
}

std::vector<std::tuple<std::string, OptLevel>>
allConfigs()
{
    std::vector<std::tuple<std::string, OptLevel>> out;
    for (const Kernel& k : kernelSuite())
        for (OptLevel level :
             {OptLevel::None, OptLevel::Medium, OptLevel::Full})
            out.push_back({k.name, level});
    return out;
}

std::string
configName(const ::testing::TestParamInfo<
           std::tuple<std::string, OptLevel>>& info)
{
    return std::get<0>(info.param) + "_" +
           optLevelName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Suite, KernelTest,
                         ::testing::ValuesIn(allConfigs()), configName);

TEST(KernelSuite, RealisticMemoryAgrees)
{
    for (const Kernel& k : kernelSuite()) {
        uint32_t expect =
            testutil::interpret(k.source, k.entry, k.args);
        SimResult got =
            testutil::simulate(k.source, k.entry, k.args,
                               OptLevel::Full, MemConfig::realistic(2));
        EXPECT_EQ(got.returnValue, expect) << k.name;
    }
}

TEST(KernelSuite, Figure12KernelCrossChecks)
{
    testutil::crossCheck(figure12Source(), "fig12_run", {256});
}

TEST(KernelSuite, CoarseConstructionIsEquivalent)
{
    // Building from the coarse program-order token chain and letting
    // §4.3 recover parallelism must preserve semantics everywhere.
    for (const Kernel& k : kernelSuite()) {
        uint32_t expect =
            testutil::interpret(k.source, k.entry, k.args);
        CompileResult r = compileSource(
            k.source,
            CompileOptions().opt(OptLevel::Full).pointsTo(false));
        DataflowSimulator sim(r.graphPtrs(), *r.layout,
                              MemConfig::perfectMemory());
        EXPECT_EQ(sim.run(k.entry, k.args).returnValue, expect)
            << k.name;
    }
}

TEST(KernelSuite, TokenGraphStaysTransitivelyReduced)
{
    // §3.4 invariant, checked on every fully optimized kernel graph:
    // no token source of an operation is already ordered before
    // another source of the same operation.
    for (const Kernel& k : kernelSuite()) {
        CompileResult r = compileSource(
            k.source, CompileOptions().opt(OptLevel::Full));
        for (const auto& g : r.graphs) {
            g->forEach([&](Node* n) {
                int ti = optutil::tokenConsumerInput(n);
                if (ti < 0 || ti >= n->numInputs())
                    return;
                std::vector<PortRef> srcs;
                optutil::expandTokenSources(n->input(ti), srcs);
                for (size_t i = 0; i < srcs.size(); i++) {
                    for (size_t j = 0; j < srcs.size(); j++) {
                        if (i == j)
                            continue;
                        EXPECT_FALSE(optutil::orderedAfter(
                            srcs[i].node, srcs[j].node))
                            << k.name << " " << g->name << ": "
                            << n->str() << " has redundant source n"
                            << srcs[i].node->id;
                    }
                }
            });
        }
    }
}

class MemConfigSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(MemConfigSweep, ResultsAreMemorySystemInvariant)
{
    // Timing must never change results: sweep kernels across port
    // counts and compare against the interpreter.
    const auto& [name, ports] = GetParam();
    const Kernel& k = kernelByName(name);
    uint32_t expect = testutil::interpret(k.source, k.entry, k.args);
    MemConfig mem =
        ports == 0 ? MemConfig::perfectMemory()
                   : MemConfig::realistic(ports);
    SimResult got = testutil::simulate(k.source, k.entry, k.args,
                                       OptLevel::Full, mem);
    EXPECT_EQ(got.returnValue, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Ports, MemConfigSweep,
    ::testing::Combine(::testing::Values("saxpy", "stencil", "dct",
                                         "histogram", "wavelet",
                                         "vortexdb"),
                       ::testing::Values(0, 1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>&
           info) {
        return std::get<0>(info.param) + "_p" +
               std::to_string(std::get<1>(info.param));
    });

TEST(KernelSuite, DecouplingKernelCrossChecks)
{
    testutil::crossCheck(decouplingExampleSource(), "stencil_run",
                         {512});
}

} // namespace
