/**
 * @file
 * Far-horizon event-queue paths, pinned.
 *
 * The golden kernels never schedule an event far enough ahead to
 * reach the queue's outermost tiers (docs/SIMULATOR.md, "The event
 * queue").  This suite stretches memory latency until they do, on both
 * engines: perfect memory at 20,000 cycles (inside the 2^16-cycle
 * coarse-wheel horizon), at 100,000 cycles (past it, into the
 * overflow heap) and realistic memory whose DRAM takes 2^33 cycles
 * (past 2^32, the horizon of an earlier, deeper queue).
 *
 * Each case pins cycles, return value, outcome, sim.firings and a
 * digest of every other stat.  The split between sim.queue.bucket_ops
 * and sim.queue.heap_ops depends on where the tiers end, so the digest
 * replaces the two keys with their sum: the queue's shape may change,
 * the order it dispatches in may not.  That order is pinned too, as a
 * digest of the level-2 firing trace: under perfect memory the stats
 * are schedule-independent, so only the trace would show two
 * same-cycle events dispatched out of sequence order.  (Rewording a
 * level-2 trace line in dataflow_sim.cpp moves that digest.)
 */
#include <gtest/gtest.h>

#include <iostream>
#include <map>
#include <sstream>

#include "benchsuite/kernels.h"
#include "driver/compiler.h"
#include "service/protocol.h"
#include "sim/dataflow_sim.h"
#include "support/diagnostics.h"

namespace cash {
namespace {

/** A memory configuration that schedules deliveries far ahead. */
struct FarMem
{
    const char* name;
    MemConfig cfg;
};

std::vector<FarMem>
farMemories()
{
    MemConfig near = MemConfig::perfectMemory();
    near.perfectLatency = 20000;
    MemConfig far = MemConfig::perfectMemory();
    far.perfectLatency = 100000;
    MemConfig dram = MemConfig::realistic(2);
    dram.dramLatency = 1ull << 33;
    return {{"perfect@20000", near},
            {"perfect@100000", far},
            {"dram@2^33", dram}};
}

/** Run @p sim with the firing trace (level 2) digested into @p order. */
SimResult
runTraced(DataflowSimulator& sim, const Kernel& k, std::string* order)
{
    std::ostringstream log;
    std::streambuf* const saved = std::cerr.rdbuf(log.rdbuf());
    const int savedLevel = traceLevel;
    traceLevel = 2;
    SimResult r = sim.run(k.entry, k.args);
    traceLevel = savedLevel;
    std::cerr.rdbuf(saved);
    *order = fnv1a64Hex(log.str());
    return r;
}

/** "cycles=.. ret=.. outcome=.. firings=.. queue_ops=.. stats=..
 *  order=..". */
std::string
fingerprint(const SimResult& r, const std::string& order)
{
    const char* const kBucket = "sim.queue.bucket_ops";
    const char* const kHeap = "sim.queue.heap_ops";
    StatSet rest;
    for (const auto& [key, value] : r.stats.all())
        if (key != kBucket && key != kHeap)
            rest.set(key, value);
    const int64_t queueOps = r.stats.get(kBucket) + r.stats.get(kHeap);
    rest.set("sim.queue.ops", queueOps);
    return "cycles=" + std::to_string(r.cycles) +
           " ret=" + std::to_string(r.returnValue) +
           " outcome=" + simOutcomeName(r.outcome) +
           " firings=" + std::to_string(r.stats.get("sim.firings")) +
           " queue_ops=" + std::to_string(queueOps) +
           " stats=" + fnv1a64Hex(rest.str()) + " order=" + order;
}

/** Expected fingerprint per "<kernel> <mem> <engine>" case. */
const std::map<std::string, std::string>&
pinned()
{
    static const std::map<std::string, std::string> m = {
        {"fir perfect@20000 event",
         "cycles=9973033 ret=1938 outcome=ok firings=539501 "
         "queue_ops=767939 stats=8744be617e1cfa11 order=383c7d746173d5dd"},
        {"fir perfect@20000 macro",
         "cycles=9973033 ret=1938 outcome=ok firings=539501 "
         "queue_ops=53763 stats=1919e877f78da9f7 order=7769ec5f47361c5f"},
        {"fir perfect@100000 event",
         "cycles=49813033 ret=1938 outcome=ok firings=539501 "
         "queue_ops=767939 stats=d05dcb4c944855c2 order=f17fe17af0bfdbfa"},
        {"fir perfect@100000 macro",
         "cycles=49813033 ret=1938 outcome=ok firings=539501 "
         "queue_ops=53763 stats=0f6cc47251e38da4 order=78148edfecf2e9d8"},
        {"fir dram@2^33 event",
         "cycles=34359745578 ret=1938 outcome=ok firings=539501 "
         "queue_ops=767939 stats=ab2d09d101d1728c order=e4a2ecb746335a0d"},
        {"fir dram@2^33 macro",
         "cycles=34359745578 ret=1938 outcome=ok firings=539501 "
         "queue_ops=53763 stats=d86eb4fdfdf12f8c order=ef7d0045f196dd67"},
        {"helperdot perfect@20000 event",
         "cycles=5142106 ret=10944 outcome=ok firings=59758 "
         "queue_ops=89989 stats=a6364c488e46a7fd order=d68f939646c063d9"},
        {"helperdot perfect@20000 macro",
         "cycles=5142106 ret=10944 outcome=ok firings=59758 "
         "queue_ops=12429 stats=9fd2fabb40f1b316 order=6067cdfd51d3346c"},
        {"helperdot perfect@100000 event",
         "cycles=25702106 ret=10944 outcome=ok firings=59758 "
         "queue_ops=89989 stats=6aa71b66a8518f8c order=9726dd9efd8892c9"},
        {"helperdot perfect@100000 macro",
         "cycles=25702106 ret=10944 outcome=ok firings=59758 "
         "queue_ops=12429 stats=d5cedc563cfee88f order=4340168564d64b50"},
        {"helperdot dram@2^33 event",
         "cycles=34359740708 ret=10944 outcome=ok firings=59758 "
         "queue_ops=89989 stats=02e476229d644215 order=70668a9598690adb"},
        {"helperdot dram@2^33 macro",
         "cycles=34359740947 ret=10944 outcome=ok firings=59758 "
         "queue_ops=12429 stats=ae770f5d55255282 order=e66dd9a69436c7da"},
        {"recsum perfect@20000 event",
         "cycles=60665 ret=1528 outcome=ok firings=18966 "
         "queue_ops=33412 stats=c32a53d7571265a5 order=ecdc95753abe3aaa"},
        {"recsum perfect@20000 macro",
         "cycles=60665 ret=1528 outcome=ok firings=18966 "
         "queue_ops=10958 stats=35babdc14a36c105 order=64bcd883379a1b1d"},
        {"recsum perfect@100000 event",
         "cycles=300665 ret=1528 outcome=ok firings=18966 "
         "queue_ops=33412 stats=3a039f05e125977e order=c9727e074794b0d9"},
        {"recsum perfect@100000 macro",
         "cycles=300665 ret=1528 outcome=ok firings=18966 "
         "queue_ops=10958 stats=5d2866146958b1b0 order=b5c9e9cbf6c91907"},
        {"recsum dram@2^33 event",
         "cycles=8589935131 ret=1528 outcome=ok firings=18966 "
         "queue_ops=33412 stats=eae69cb88e4808ce order=7ba3ff2f7cbaa4f9"},
        {"recsum dram@2^33 macro",
         "cycles=8589935131 ret=1528 outcome=ok firings=18966 "
         "queue_ops=10958 stats=8d3d487eb60d21a8 order=7072669eaacf3dda"},
    };
    return m;
}

class FarHorizonQueue : public testing::TestWithParam<std::string>
{
};

TEST_P(FarHorizonQueue, DispatchOrderIsPinned)
{
    const Kernel& k = kernelByName(GetParam());
    CompileResult r =
        compileSource(k.source, CompileOptions().opt(OptLevel::Full));
    ASSERT_TRUE(r.ok());
    for (const FarMem& mem : farMemories())
        for (SimEngine engine : {SimEngine::Event, SimEngine::Macro}) {
            const std::string label = k.name + " " + mem.name + " " +
                                      simEngineName(engine);
            DataflowSimulator sim(r.graphPtrs(), *r.layout, mem.cfg,
                                  engine);
            std::string order;
            const SimResult res = runTraced(sim, k, &order);
            const std::string got = fingerprint(res, order);
            auto it = pinned().find(label);
            if (it == pinned().end()) {
                ADD_FAILURE() << "no pinned line: {\"" << label
                              << "\", \"" << got << "\"},";
                continue;
            }
            EXPECT_EQ(got, it->second) << label;
        }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, FarHorizonQueue,
    testing::Values("fir", "helperdot", "recsum"),
    [](const testing::TestParamInfo<std::string>& info) {
        return info.param;
    });

} // namespace
} // namespace cash
