/**
 * @file
 * Deadlock reports, pinned.
 *
 * Dropping one delivery (sim.drop-event:seq=N) starves a kernel into a
 * deadlock.  Each case pins, on both engines, the report's exact text
 * (as a digest of DeadlockReport::str()) and a digest of every stat the
 * degraded run reports.  The report lists, per live activation, its
 * partially-fed real nodes in dense order and then, under the macro
 * engine, the partially-fed operators the region absorbed (also in
 * dense order), so a change to how the region is stored or scanned
 * that reorders, drops or re-renders an entry moves the pin.
 */
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

#include "benchsuite/kernels.h"
#include "driver/compiler.h"
#include "service/protocol.h"
#include "sim/dataflow_sim.h"
#include "support/fault_injection.h"

namespace cash {
namespace {

/** One starved run: a kernel, a memory model and the dropped event. */
struct DropCase
{
    const char* kernel;
    const char* mem;
    int seq;
};

void
PrintTo(const DropCase& dc, std::ostream* os)
{
    *os << dc.kernel << " " << dc.mem << " seq=" << dc.seq;
}

std::vector<DropCase>
dropCases()
{
    return {{"saxpy", "perfect", 0},
            {"saxpy", "perfect", 97},
            {"fir", "perfect", 776},
            {"helperdot", "perfect", 291},
            {"helperdot", "real2", 291}};
}

MemConfig
memConfig(const std::string& mem)
{
    return mem == "real2" ? MemConfig::realistic(2)
                          : MemConfig::perfectMemory();
}

/** "outcome=.. cycle=.. lsq=.. stuck=.. report=.. stats=..". */
std::string
fingerprint(const SimResult& r)
{
    return std::string("outcome=") + simOutcomeName(r.outcome) +
           " cycle=" + std::to_string(r.deadlock.stallTime) +
           " lsq=" + std::to_string(r.deadlock.lsqOccupancy) +
           " stuck=" + std::to_string(r.deadlock.stuck.size()) +
           " report=" + fnv1a64Hex(r.deadlock.str()) +
           " stats=" + fnv1a64Hex(r.stats.str());
}

/** Stuck entries of a pure operator kind.  Without a fabric, every
 *  pure operator with a dynamic input is absorbed by the macro
 *  engine's region, whose interior never holds fifo items: under that
 *  engine such entries come only from the region scan. */
int
pureEntries(const DeadlockReport& rep)
{
    int n = 0;
    for (const StuckNode& s : rep.stuck)
        for (const char* kind : {":arith.", ":eta ", ":mux ", ":combine "})
            if (s.node.find(kind) != std::string::npos) {
                n++;
                break;
            }
    return n;
}

/** Expected fingerprint per "<kernel> <mem> seq=<N> <engine>" case. */
const std::map<std::string, std::string>&
pinned()
{
    static const std::map<std::string, std::string> m = {
        {"saxpy perfect seq=0 event",
         "outcome=deadlock cycle=4 lsq=0 stuck=12 "
         "report=1ca19075f1bcd79d stats=0e8b3d46538f5453"},
        {"saxpy perfect seq=0 macro",
         "outcome=deadlock cycle=4103 lsq=0 stuck=35 "
         "report=a46fd2375f17f263 stats=a96a20bdcc203bea"},
        {"saxpy perfect seq=97 event",
         "outcome=deadlock cycle=4103 lsq=0 stuck=35 "
         "report=d72290088813594d stats=ff2fb0058c582870"},
        {"saxpy perfect seq=97 macro",
         "outcome=deadlock cycle=4103 lsq=0 stuck=35 "
         "report=c87355bc61e4c721 stats=a96a20bdcc203bea"},
        {"fir perfect seq=776 event",
         "outcome=deadlock cycle=2522 lsq=0 stuck=32 "
         "report=2211391a71a501bc stats=6cf9eb50605fa53a"},
        {"fir perfect seq=776 macro",
         "outcome=deadlock cycle=2522 lsq=0 stuck=30 "
         "report=3f06ccee3e615dcd stats=9aca4f00f8524935"},
        {"helperdot perfect seq=291 event",
         "outcome=deadlock cycle=551 lsq=0 stuck=35 "
         "report=5cdab3e14f69da67 stats=4dad8e9763445d13"},
        {"helperdot perfect seq=291 macro",
         "outcome=deadlock cycle=551 lsq=0 stuck=31 "
         "report=3c7614c61ba786b0 stats=d621bfde3922fd64"},
        {"helperdot real2 seq=291 event",
         "outcome=deadlock cycle=551 lsq=23 stuck=35 "
         "report=e74eeaa1d32a045a stats=e0e345c01d4ea70b"},
        {"helperdot real2 seq=291 macro",
         "outcome=deadlock cycle=551 lsq=32 stuck=31 "
         "report=260e4073c253e015 stats=8c6eee61a706cb92"},
    };
    return m;
}

class DeadlockPin : public testing::TestWithParam<DropCase>
{
};

TEST_P(DeadlockPin, ReportIsPinned)
{
    const DropCase& dc = GetParam();
    const Kernel& k = kernelByName(dc.kernel);
    CompileResult r =
        compileSource(k.source, CompileOptions().opt(OptLevel::Full));
    ASSERT_TRUE(r.ok());
    const FaultPlan plan = FaultPlan::parse(
        "sim.drop-event:seq=" + std::to_string(dc.seq));
    for (SimEngine engine : {SimEngine::Event, SimEngine::Macro}) {
        const std::string label = std::string(dc.kernel) + " " + dc.mem +
                                  " seq=" + std::to_string(dc.seq) +
                                  " " + simEngineName(engine);
        DataflowSimulator sim(r.graphPtrs(), *r.layout,
                              memConfig(dc.mem), engine);
        sim.setFaultPlan(&plan);
        const SimResult res = sim.run(k.entry, k.args);
        ASSERT_EQ(res.outcome, SimOutcome::Deadlock) << label;
        if (engine == SimEngine::Macro) {
            EXPECT_GT(pureEntries(res.deadlock), 0)
                << label << ": no absorbed operator reported";
        }
        const std::string got = fingerprint(res);
        auto it = pinned().find(label);
        if (it == pinned().end()) {
            ADD_FAILURE() << "no pinned line: {\"" << label << "\", \""
                          << got << "\"},";
            continue;
        }
        EXPECT_EQ(got, it->second) << label << "\n"
                                   << res.deadlock.str();
    }
}

INSTANTIATE_TEST_SUITE_P(
    DroppedEvent, DeadlockPin, testing::ValuesIn(dropCases()),
    [](const testing::TestParamInfo<DropCase>& info) {
        return std::string(info.param.kernel) + "_" + info.param.mem +
               "_seq" + std::to_string(info.param.seq);
    });

} // namespace
} // namespace cash
