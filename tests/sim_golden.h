/**
 * @file
 * Golden simulator fingerprints (tests/data/sim_golden.txt), shared by
 * the test that checks them (test_sim_golden.cpp) and the tool that
 * writes them (sim_golden_gen.cpp).
 *
 * One line per (kernel, opt, mem, engine, fabric) case:
 *
 *   <kernel> <opt> <mem> <engine> <fabric> cycles=<n> ret=<v>
 *       outcome=<o> stats=<FNV-1a 64 of SimResult::stats.str()>
 */
#ifndef CASH_TESTS_SIM_GOLDEN_H
#define CASH_TESTS_SIM_GOLDEN_H

#include <string>
#include <vector>

#include "benchsuite/kernels.h"
#include "driver/compiler.h"
#include "driver/target_spec.h"
#include "fabric/placer.h"
#include "service/protocol.h"
#include "sim/dataflow_sim.h"

namespace cash {
namespace golden {

/** One case's fingerprint, keyed by its label. */
struct Line
{
    std::string label;
    uint64_t cycles = 0;
    std::string text;
};

/** Every case of @p k, in a fixed order: opt x fabric x mem x engine. */
inline std::vector<Line>
kernelLines(const Kernel& k)
{
    std::vector<Line> out;
    for (OptLevel level : {OptLevel::None, OptLevel::Full}) {
        CompileResult r =
            compileSource(k.source, CompileOptions().opt(level));
        for (const char* fabric : {"1x1", "2x2"}) {
            TargetSpec spec;
            (void)spec.setField("fabric", fabric);
            FabricSession fs;
            const FabricSession* fsPtr = nullptr;
            if (!spec.fabric.trivial()) {
                fs = placeAll(r.graphPtrs(), spec.fabric);
                fsPtr = &fs;
            }
            for (const char* mem : {"perfect", "real1", "real2", "real4"})
                for (const char* engine : {"event", "macro"}) {
                    spec.mem = mem;
                    spec.engine = engine;
                    MemConfig mc;
                    SimEngine se = SimEngine::Macro;
                    (void)spec.resolve(&mc, &se);
                    DataflowSimulator sim(r.graphPtrs(), *r.layout, mc, se,
                                          fsPtr);
                    SimResult res = sim.run(k.entry, k.args);
                    Line g;
                    g.label = k.name + " " + optLevelName(level) + " " +
                              mem + " " + engine + " " + fabric;
                    g.cycles = res.cycles;
                    g.text = g.label + " cycles=" +
                             std::to_string(res.cycles) +
                             " ret=" + std::to_string(res.returnValue) +
                             " outcome=" + simOutcomeName(res.outcome) +
                             " stats=" + fnv1a64Hex(res.stats.str());
                    out.push_back(std::move(g));
                }
        }
    }
    return out;
}

} // namespace golden
} // namespace cash

#endif // CASH_TESTS_SIM_GOLDEN_H
