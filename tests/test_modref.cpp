/**
 * @file
 * Optimizer-side whole-program MOD/REF summaries (analysis/modref.h):
 * leaf-function exactness, call-site translation through the caller's
 * points-to bindings, recursion via the SCC fixpoint, call-instruction
 * stamping, and the --dump-summaries / stats-JSON renderings.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/modref.h"
#include "test_util.h"

using namespace cash;

namespace {

const char* kTwoHelperSrc = R"(
int ga_[16];
int gb_[16];
int kco_[4];

void scale(int* v, int n)
{
    int i;
    for (i = 0; i < n; i++)
        v[i] = v[i] * kco_[i & 3];
}

int total(int* v, int n)
{
    int i;
    int s = 0;
    for (i = 0; i < n; i++)
        s += v[i];
    return s;
}

int run(int n)
{
    int i;
    for (i = 0; i < 4; i++)
        kco_[i] = i + 1;
    for (i = 0; i < n; i++) {
        ga_[i] = i;
        gb_[i] = i + 1;
    }
    scale(ga_, n);
    scale(gb_, n);
    return total(ga_, n) + total(gb_, n);
}
)";

const char* kRecursiveSrc = R"(
int tree_[64];

int redsum(int lo, int hi)
{
    if (hi - lo < 2)
        return tree_[lo];
    int mid = (lo + hi) / 2;
    return redsum(lo, mid) + redsum(mid, hi);
}

int run(int n)
{
    int i;
    for (i = 0; i < n; i++)
        tree_[i] = i;
    return redsum(0, n);
}
)";

/** Location id of global @p name; fatal-asserts when missing. */
int
globalLoc(const CompileResult& r, const std::string& name)
{
    for (const MemObject& obj : r.layout->objects())
        if (obj.isGlobal && obj.name == name)
            return obj.id;
    ADD_FAILURE() << "no global named " << name;
    return -1;
}

bool
setContains(const LocationSet& s, int loc)
{
    if (s.isTop())
        return true;
    const auto& locs = s.locations();
    return std::find(locs.begin(), locs.end(), loc) != locs.end();
}

const FunctionModRef&
functionSummary(const CompileResult& r, const std::string& name)
{
    for (const FunctionModRef& f : r.summaries->functions())
        if (f.name == name)
            return f;
    throw FatalError("no summary for " + name);
}

} // namespace

TEST(ModRef, LeafSummariesAreExact)
{
    CompileResult r = compileSource(kTwoHelperSrc);
    ASSERT_TRUE(r.summaries);

    // scale reads {v, kco_} and writes {v}: in its own location space
    // the pointer parameter is an external location, so the concrete
    // ga_/gb_ objects must NOT appear, and nothing is Top.
    const FunctionModRef& scale = functionSummary(r, "scale");
    EXPECT_FALSE(scale.ref.isTop());
    EXPECT_FALSE(scale.mod.isTop());
    EXPECT_FALSE(scale.recursive);
    EXPECT_EQ(scale.callSites, 0);
    EXPECT_TRUE(setContains(scale.ref, globalLoc(r, "kco_")));
    EXPECT_FALSE(setContains(scale.ref, globalLoc(r, "ga_")));
    EXPECT_FALSE(setContains(scale.mod, globalLoc(r, "kco_")));

    // total is read-only.
    const FunctionModRef& total = functionSummary(r, "total");
    EXPECT_FALSE(total.ref.isTop());
    EXPECT_TRUE(total.mod.empty());
}

TEST(ModRef, CallSitesTranslateThroughArgumentBindings)
{
    CompileResult r = compileSource(kTwoHelperSrc);
    const int ga = globalLoc(r, "ga_");
    const int gb = globalLoc(r, "gb_");
    const int kco = globalLoc(r, "kco_");

    // run's four call sites, in (block, index) order: scale(ga_),
    // scale(gb_), total(ga_), total(gb_).  The callee's v-external
    // must resolve to exactly the argument's object.
    std::vector<CallSiteModRef> sites;
    for (const CallSiteModRef& c : r.summaries->callSites())
        if (c.caller == "run")
            sites.push_back(c);
    ASSERT_EQ(sites.size(), 4u);

    EXPECT_EQ(sites[0].callee, "scale");
    EXPECT_TRUE(setContains(sites[0].reads, ga));
    EXPECT_TRUE(setContains(sites[0].reads, kco));
    EXPECT_FALSE(setContains(sites[0].reads, gb));
    EXPECT_TRUE(setContains(sites[0].writes, ga));
    EXPECT_FALSE(setContains(sites[0].writes, gb));
    EXPECT_FALSE(setContains(sites[0].writes, kco));

    EXPECT_EQ(sites[1].callee, "scale");
    EXPECT_TRUE(setContains(sites[1].writes, gb));
    EXPECT_FALSE(setContains(sites[1].writes, ga));

    EXPECT_EQ(sites[2].callee, "total");
    EXPECT_TRUE(sites[2].writes.empty());
    EXPECT_TRUE(setContains(sites[2].reads, ga));
    EXPECT_FALSE(setContains(sites[2].reads, gb));

    // run's own summary is the union over its body and callees.
    const FunctionModRef& run = functionSummary(r, "run");
    EXPECT_TRUE(setContains(run.ref, ga));
    EXPECT_TRUE(setContains(run.ref, gb));
    EXPECT_TRUE(setContains(run.mod, ga));
    EXPECT_TRUE(setContains(run.mod, kco));
}

TEST(ModRef, RecursionConvergesWithoutTop)
{
    CompileResult r = compileSource(kRecursiveSrc);
    const FunctionModRef& red = functionSummary(r, "redsum");
    EXPECT_TRUE(red.recursive);
    EXPECT_FALSE(red.ref.isTop());
    EXPECT_TRUE(setContains(red.ref, globalLoc(r, "tree_")));
    EXPECT_TRUE(red.mod.empty());
    // The non-recursive caller sits in its own condensation component.
    EXPECT_NE(red.scc, functionSummary(r, "run").scc);
    EXPECT_FALSE(functionSummary(r, "run").recursive);
}

TEST(ModRef, FullOptStampsCallEffects)
{
    CompileResult r = compileSource(kTwoHelperSrc);
    int stamped = 0;
    for (const auto& fn : r.cfg->functions)
        for (const auto& b : fn->blocks)
            for (const Instr& i : b->instrs) {
                if (i.kind != InstrKind::Call)
                    continue;
                EXPECT_TRUE(i.callEffectsValid);
                EXPECT_FALSE(i.callReads.isTop());
                EXPECT_FALSE(i.callWrites.isTop());
                stamped++;
            }
    EXPECT_EQ(stamped, 4);
}

TEST(ModRef, IpoOffComputesButDoesNotStamp)
{
    CompileResult r =
        compileSource(kTwoHelperSrc,
                      CompileOptions().interprocOpt(false));
    // Summaries still exist for reporting...
    ASSERT_TRUE(r.summaries);
    EXPECT_FALSE(functionSummary(r, "scale").ref.isTop());
    // ...but no call carries optimizer-consumable stamps.
    for (const auto& fn : r.cfg->functions) {
        for (const auto& b : fn->blocks) {
            for (const Instr& i : b->instrs) {
                if (i.kind == InstrKind::Call) {
                    EXPECT_FALSE(i.callEffectsValid);
                }
            }
        }
    }
}

TEST(ModRef, DumpAndJsonRenderings)
{
    CompileResult r = compileSource(kTwoHelperSrc);
    std::string dump = r.summaries->dump();
    EXPECT_NE(dump.find("function scale:"), std::string::npos);
    EXPECT_NE(dump.find("function run:"), std::string::npos);
    EXPECT_NE(dump.find("call scale"), std::string::npos);
    EXPECT_NE(dump.find("kco_"), std::string::npos);
    EXPECT_EQ(dump.find("{top}"), std::string::npos);

    std::string json = r.summaries->json();
    EXPECT_NE(json.find("\"functions\""), std::string::npos);
    EXPECT_NE(json.find("\"callee\": \"total\""), std::string::npos);
    EXPECT_NE(json.find("\"recursive\": false"), std::string::npos);

    CompileResult rec = compileSource(kRecursiveSrc);
    EXPECT_NE(rec.summaries->dump().find("recursive"),
              std::string::npos);
    EXPECT_NE(rec.summaries->json().find("\"recursive\": true"),
              std::string::npos);
}
