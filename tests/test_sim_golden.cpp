/**
 * @file
 * Golden simulator fingerprints: absolute simulator output, pinned.
 *
 * The determinism and macro-engine suites compare one run against
 * another, so a change that reorders dispatch the same way everywhere
 * would pass them while silently moving every figure.  This suite
 * recomputes each kernel's fingerprints (sim_golden.h: cycles, return
 * value, outcome and a digest of the full stats, per opt x mem x
 * engine x fabric case) and compares them with the committed
 * tests/data/sim_golden.txt.  The file is data: a mismatch means
 * simulated behaviour moved (see sim_golden_gen.cpp to regenerate it
 * when that is the intent).
 */
#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "sim_golden.h"

namespace cash {
namespace {

const char* const kGoldenPath = CASH_TEST_DATA_DIR "/sim_golden.txt";

/** The committed file, by label; empty when missing. */
const std::map<std::string, golden::Line>&
goldenFile()
{
    static const std::map<std::string, golden::Line> lines = [] {
        std::map<std::string, golden::Line> m;
        std::ifstream in(kGoldenPath);
        std::string line;
        while (std::getline(in, line)) {
            const size_t at = line.find(" cycles=");
            if (line.empty() || line[0] == '#' || at == std::string::npos)
                continue;
            golden::Line g;
            g.label = line.substr(0, at);
            g.cycles = std::stoull(line.substr(at + 8));
            g.text = line;
            m[g.label] = g;
        }
        return m;
    }();
    return lines;
}

class SimGolden : public testing::TestWithParam<std::string>
{
};

TEST_P(SimGolden, MatchesCommittedFingerprints)
{
    const std::map<std::string, golden::Line>& file = goldenFile();
    ASSERT_FALSE(file.empty()) << "missing or empty " << kGoldenPath;
    const std::vector<golden::Line> got =
        golden::kernelLines(kernelByName(GetParam()));
    EXPECT_EQ(got.size(), 32u);
    for (const golden::Line& g : got) {
        auto it = file.find(g.label);
        if (it == file.end()) {
            ADD_FAILURE() << g.label << ": no golden line";
            continue;
        }
        EXPECT_EQ(g.text, it->second.text)
            << g.label << ": cycles " << g.cycles << ", golden "
            << it->second.cycles;
    }
}

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    for (const Kernel& k : kernelSuite())
        names.push_back(k.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Benchsuite, SimGolden,
                         testing::ValuesIn(kernelNames()),
                         [](const auto& info) { return info.param; });

} // namespace
} // namespace cash
