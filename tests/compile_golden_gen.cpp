/**
 * @file
 * Writes the golden compile fingerprints (compile_golden.h) to stdout:
 *
 *   build/tests/compile_golden_gen > tests/data/compile_golden.txt
 *
 * Run it only when a change is meant to move compiled output (stats,
 * DOT, lint findings or pass diagnostics), and say in the commit which
 * requests moved and why.
 */
#include <cstdio>

#include "compile_golden.h"

int
main()
{
    using namespace cash;
    std::printf("# Golden compile fingerprints "
                "(tests/compile_golden.h, tests/compile_golden_gen.cpp).\n");
    auto print = [](const compile_golden::Line& g) {
        std::printf("%s\n", g.text.c_str());
    };
    for (const Kernel& k : kernelSuite())
        for (const compile_golden::Line& g : compile_golden::kernelLines(k))
            print(g);
    for (uint64_t s = 1; s <= compile_golden::kGenPrograms; s++)
        print(compile_golden::genLine(s));
    for (const std::string& pass : PassRegistry::global().names())
        for (const compile_golden::Line& g :
             compile_golden::injectLines(pass))
            print(g);
    return 0;
}
