/**
 * @file
 * Writes the golden simulator fingerprints (sim_golden.h) of the whole
 * kernel suite to stdout:
 *
 *   build/tests/sim_golden_gen > tests/data/sim_golden.txt
 *
 * Run it only when a change is meant to move simulated behaviour, and
 * say in the commit which figures moved and why.
 */
#include <cstdio>

#include "sim_golden.h"

int
main()
{
    std::printf("# Golden simulator fingerprints "
                "(tests/sim_golden.h, tests/sim_golden_gen.cpp).\n");
    for (const cash::Kernel& k : cash::kernelSuite())
        for (const cash::golden::Line& g : cash::golden::kernelLines(k))
            std::printf("%s\n", g.text.c_str());
    return 0;
}
