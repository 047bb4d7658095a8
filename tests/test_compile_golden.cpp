/**
 * @file
 * Golden compile fingerprints: absolute compiled output, pinned.
 *
 * The parallel-compile and job-count suites compare one compile with
 * another, so a change to the pass manager, the verifier or an
 * analysis that moved every output the same way would pass them.
 * This suite recomputes each request's fingerprint (compile_golden.h:
 * exit code plus digests of the deterministic stats document, the DOT
 * and the lint findings) and compares it with the committed
 * tests/data/compile_golden.txt.  The file is data: a mismatch means
 * compiled output moved (see compile_golden_gen.cpp to regenerate it
 * when that is the intent).
 */
#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "compile_golden.h"

namespace cash {
namespace {

const char* const kGoldenPath = CASH_TEST_DATA_DIR "/compile_golden.txt";

/** The committed file, label → line; empty when missing. */
const std::map<std::string, std::string>&
goldenFile()
{
    static const std::map<std::string, std::string> lines = [] {
        std::map<std::string, std::string> m;
        std::ifstream in(kGoldenPath);
        std::string line;
        while (std::getline(in, line)) {
            const size_t at = line.find(" exit=");
            if (line.empty() || line[0] == '#' || at == std::string::npos)
                continue;
            m[line.substr(0, at)] = line;
        }
        return m;
    }();
    return lines;
}

void
expectGolden(const std::vector<compile_golden::Line>& got)
{
    const std::map<std::string, std::string>& file = goldenFile();
    ASSERT_FALSE(file.empty()) << "missing or empty " << kGoldenPath;
    for (const compile_golden::Line& g : got) {
        auto it = file.find(g.label);
        if (it == file.end()) {
            ADD_FAILURE() << g.label << ": no golden line";
            continue;
        }
        EXPECT_EQ(g.text, it->second) << g.label;
    }
}

class CompileGoldenKernel : public testing::TestWithParam<std::string>
{
};

TEST_P(CompileGoldenKernel, MatchesCommittedFingerprints)
{
    std::vector<compile_golden::Line> got =
        compile_golden::kernelLines(kernelByName(GetParam()));
    EXPECT_EQ(got.size(), 4u);
    expectGolden(got);
}

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    for (const Kernel& k : kernelSuite())
        names.push_back(k.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Benchsuite, CompileGoldenKernel,
                         testing::ValuesIn(kernelNames()),
                         [](const auto& info) { return info.param; });

/** The gen-compile corpus in chunks of 12 seeds, one test a chunk. */
constexpr uint64_t kGenChunk = 12;

class CompileGoldenGen : public testing::TestWithParam<uint64_t>
{
};

TEST_P(CompileGoldenGen, MatchesCommittedFingerprints)
{
    std::vector<compile_golden::Line> got;
    const uint64_t first = GetParam() * kGenChunk + 1;
    for (uint64_t s = first; s < first + kGenChunk; s++)
        got.push_back(compile_golden::genLine(s));
    expectGolden(got);
}

INSTANTIATE_TEST_SUITE_P(
    GenCompile, CompileGoldenGen,
    testing::Range(uint64_t(0), compile_golden::kGenPrograms / kGenChunk),
    [](const auto& info) {
        const uint64_t first = info.param * kGenChunk + 1;
        return "seeds" + std::to_string(first) + "to" +
               std::to_string(first + kGenChunk - 1);
    });

class CompileGoldenInject : public testing::TestWithParam<std::string>
{
};

TEST_P(CompileGoldenInject, MatchesCommittedFingerprints)
{
    expectGolden(compile_golden::injectLines(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(CorruptToken, CompileGoldenInject,
                         testing::ValuesIn(PassRegistry::global().names()),
                         [](const auto& info) { return info.param; });

} // namespace
} // namespace cash
