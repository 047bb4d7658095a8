/**
 * @file
 * Tiled-fabric backend (docs/FABRIC.md): FabricModel spec grammar,
 * TargetSpec parsing and cache-key identity, placer determinism and
 * capacity invariants, and the simulator's cross-tile timing model
 * (hop latency, credit backpressure, 1x1 byte-identity, macro/event
 * exactness).
 */
#include <gtest/gtest.h>

#include <map>

#include "driver/target_spec.h"
#include "fabric/placer.h"
#include "pegasus/graph.h"
#include "service/protocol.h"
#include "support/json.h"
#include "test_util.h"

using namespace cash;

namespace {

// A kernel with two functions, loops and real memory traffic —
// enough structure that a multi-tile placement actually cuts edges.
const char* kDotSrc =
    "int xs[64]; int ys[64];"
    "int dot(int* a, int* b, int n) {"
    "  #pragma independent a b\n"
    "  int acc = 0; int i;"
    "  for (i = 0; i < n; i++) acc += a[i] * b[i];"
    "  return acc; }"
    "int run(int n) { int i;"
    "  for (i = 0; i < n; i++) { xs[i] = i + 1; ys[i] = 2 * i + 1; }"
    "  return dot(xs, ys, n); }";

// ---------------------------------------------------------------------
// FabricModel spec grammar
// ---------------------------------------------------------------------

TEST(FabricModel, ParseAndRoundTrip)
{
    FabricModel fm;
    ASSERT_TRUE(FabricModel::parse("4x4", &fm).isOk());
    EXPECT_EQ(fm.rows, 4);
    EXPECT_EQ(fm.cols, 4);
    EXPECT_EQ(fm.hopLatency, 1);
    EXPECT_EQ(fm.tileCapacity, 0);
    EXPECT_EQ(fm.linkCredits, 0);
    EXPECT_EQ(fm.str(), "4x4");

    ASSERT_TRUE(FabricModel::parse("2x3:hop2", &fm).isOk());
    EXPECT_EQ(fm.rows, 2);
    EXPECT_EQ(fm.cols, 3);
    EXPECT_EQ(fm.hopLatency, 2);
    EXPECT_EQ(fm.str(), "2x3:hop2");

    ASSERT_TRUE(FabricModel::parse("8x8:hop2:cap16:credit8", &fm).isOk());
    EXPECT_EQ(fm.tileCapacity, 16);
    EXPECT_EQ(fm.linkCredits, 8);
    EXPECT_EQ(fm.str(), "8x8:hop2:cap16:credit8");

    // Canonical form drops default-valued suffixes.
    ASSERT_TRUE(FabricModel::parse("2x2:hop1", &fm).isOk());
    EXPECT_EQ(fm.str(), "2x2");

    // str() round-trips through parse() for every field combination.
    for (const char* spec :
         {"1x1", "1x2", "4x4", "2x3:hop5", "4x4:cap8",
          "2x2:credit1", "8x8:hop2:cap16:credit8"}) {
        FabricModel a, b;
        ASSERT_TRUE(FabricModel::parse(spec, &a).isOk()) << spec;
        ASSERT_TRUE(FabricModel::parse(a.str(), &b).isOk()) << spec;
        EXPECT_EQ(a, b) << spec;
    }
}

TEST(FabricModel, TrivialAndHopDistance)
{
    FabricModel fm;
    ASSERT_TRUE(FabricModel::parse("1x1", &fm).isOk());
    EXPECT_TRUE(fm.trivial());
    ASSERT_TRUE(FabricModel::parse("1x2", &fm).isOk());
    EXPECT_FALSE(fm.trivial());

    ASSERT_TRUE(FabricModel::parse("3x4", &fm).isOk());
    EXPECT_EQ(fm.numTiles(), 12);
    // Tile ids are row-major: tile 0 = (0,0), tile 11 = (2,3).
    EXPECT_EQ(fm.hopDist(0, 0), 0);
    EXPECT_EQ(fm.hopDist(0, 1), 1);
    EXPECT_EQ(fm.hopDist(0, 4), 1);   // one row down
    EXPECT_EQ(fm.hopDist(0, 11), 5);  // 2 rows + 3 cols
    EXPECT_EQ(fm.hopDist(11, 0), 5);  // symmetric
}

TEST(FabricModel, ParseErrors)
{
    FabricModel fm;
    for (const char* bad :
         {"", "4", "x4", "4x", "0x4", "4x0", "-1x2", "axb",
          "4x4:", "4x4:hop", "4x4:hop0", "4x4:cap-1", "4x4:bogus7",
          "4x4:credit", "65x64" /* 4160 tiles > 4096 */}) {
        EXPECT_FALSE(FabricModel::parse(bad, &fm).isOk()) << bad;
    }
    // Exactly at the tile limit is accepted.
    EXPECT_TRUE(FabricModel::parse("64x64", &fm).isOk());
}

// ---------------------------------------------------------------------
// TargetSpec
// ---------------------------------------------------------------------

TEST(TargetSpec, DefaultsMatchHistoricalFlags)
{
    TargetSpec t;
    EXPECT_EQ(t.level, OptLevel::Full);
    EXPECT_EQ(t.mem, "real2");
    EXPECT_EQ(t.engine, "macro");
    EXPECT_TRUE(t.fabric.trivial());
    EXPECT_EQ(t.str(), "opt=full,mem=real2,engine=macro");
}

TEST(TargetSpec, ParseAndRoundTrip)
{
    TargetSpec t;
    ASSERT_TRUE(TargetSpec::parse(
                    "opt=O2,mem=real1,engine=event,fabric=4x4:hop2",
                    &t)
                    .isOk());
    EXPECT_EQ(t.level, OptLevel::Full);
    EXPECT_EQ(t.mem, "real1");
    EXPECT_EQ(t.engine, "event");
    EXPECT_EQ(t.fabric.rows, 4);
    EXPECT_EQ(t.fabric.hopLatency, 2);
    EXPECT_EQ(t.str(),
              "opt=full,mem=real1,engine=event,fabric=4x4:hop2");

    TargetSpec again;
    ASSERT_TRUE(TargetSpec::parse(t.str(), &again).isOk());
    EXPECT_EQ(t, again);

    // Empty spec (and stray commas/spaces) parse to the defaults.
    TargetSpec empty;
    ASSERT_TRUE(TargetSpec::parse("", &empty).isOk());
    EXPECT_EQ(empty, TargetSpec());
    ASSERT_TRUE(TargetSpec::parse(" , ,", &empty).isOk());
    EXPECT_EQ(empty, TargetSpec());
}

TEST(TargetSpec, OptLevelAliasesAgree)
{
    // The numeric and O-prefixed level spellings and the canonical
    // names resolve to the same level, and therefore the same
    // canonical string.
    for (const char* alias : {"full", "2", "3", "O2", "O3"}) {
        TargetSpec t;
        ASSERT_TRUE(t.setField("opt", alias).isOk()) << alias;
        EXPECT_EQ(t.level, OptLevel::Full) << alias;
        EXPECT_EQ(t.str(), TargetSpec().str()) << alias;
    }
    for (const char* alias : {"none", "0", "O0"}) {
        TargetSpec t;
        ASSERT_TRUE(t.setField("opt", alias).isOk()) << alias;
        EXPECT_EQ(t.level, OptLevel::None) << alias;
    }
    for (const char* alias : {"medium", "1", "O1"}) {
        TargetSpec t;
        ASSERT_TRUE(t.setField("opt", alias).isOk()) << alias;
        EXPECT_EQ(t.level, OptLevel::Medium) << alias;
    }
}

TEST(TargetSpec, MergeIsLastSettingWins)
{
    TargetSpec t;
    ASSERT_TRUE(t.merge("fabric=2x2").isOk());
    ASSERT_TRUE(t.merge("opt=none").isOk());
    EXPECT_EQ(t.level, OptLevel::None);   // later merge applied
    EXPECT_EQ(t.fabric.rows, 2);          // earlier field kept
    ASSERT_TRUE(t.merge("opt=none,opt=full").isOk());
    EXPECT_EQ(t.level, OptLevel::Full);   // within one spec too

    // A failed merge must not partially apply fields.
    TargetSpec before = t;
    EXPECT_FALSE(t.merge("mem=perfect,engine=bogus").isOk());
    EXPECT_EQ(t, before);
}

TEST(TargetSpec, FieldLevelErrors)
{
    TargetSpec t;
    Status st = t.setField("opt", "bogus");
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.message().find("target field 'opt'"),
              std::string::npos)
        << st.message();

    st = t.setField("wibble", "1");
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.message().find("unknown target field"),
              std::string::npos)
        << st.message();

    st = t.merge("noequals");
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.message().find("key=value"), std::string::npos)
        << st.message();

    st = t.setField("fabric", "4x4:hop0");
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.message().find("target field 'fabric'"),
              std::string::npos)
        << st.message();
}

TEST(TargetSpec, BuilderMatchesParser)
{
    FabricModel fm;
    ASSERT_TRUE(FabricModel::parse("2x2:credit4", &fm).isOk());
    TargetSpec built = TargetSpec()
                           .opt(OptLevel::None)
                           .memSystem("perfect")
                           .simEngine("event")
                           .fabricModel(fm);
    TargetSpec parsed;
    ASSERT_TRUE(TargetSpec::parse(
                    "opt=none,mem=perfect,engine=event,"
                    "fabric=2x2:credit4",
                    &parsed)
                    .isOk());
    EXPECT_EQ(built, parsed);
    EXPECT_EQ(built.str(), parsed.str());
}

TEST(TargetSpec, ResolveProducesSimulatorInputs)
{
    TargetSpec t;
    ASSERT_TRUE(t.merge("mem=perfect,engine=event").isOk());
    MemConfig mc;
    SimEngine se;
    ASSERT_TRUE(t.resolve(&mc, &se).isOk());
    EXPECT_EQ(se, SimEngine::Event);
    EXPECT_TRUE(mc.perfect);
    EXPECT_EQ(mc.name, MemConfig::perfectMemory().name);
}

// ---------------------------------------------------------------------
// Service cache-key identity across the three entry paths
// ---------------------------------------------------------------------

namespace {

std::string
keyFor(Json options)
{
    Json j = Json::object();
    j.set("op", Json::string("simulate"));
    j.set("source", Json::string("int f(int a) { return a + 1; }"));
    options.set("run", Json::string("f(1)"));
    j.set("options", std::move(options));
    SvcRequest req;
    Status st = parseSvcRequest(j, &req);
    EXPECT_TRUE(st.isOk()) << st.message();
    return svcCacheKey(req);
}

} // namespace

TEST(TargetSpec, CacheKeyIdenticalAcrossEntryPaths)
{
    // (a) legacy per-field options.
    Json legacy = Json::object();
    legacy.set("opt", Json::string("0"));
    legacy.set("mem", Json::string("perfect"));
    legacy.set("engine", Json::string("event"));

    // (b) options.target as the canonical spec string.
    Json asString = Json::object();
    asString.set("target",
                 Json::string("opt=none,mem=perfect,engine=event"));

    // (c) options.target as an object.
    Json fields = Json::object();
    fields.set("opt", Json::string("O0"));
    fields.set("mem", Json::string("perfect"));
    fields.set("engine", Json::string("event"));
    Json asObject = Json::object();
    asObject.set("target", std::move(fields));

    const std::string ka = keyFor(std::move(legacy));
    const std::string kb = keyFor(std::move(asString));
    const std::string kc = keyFor(std::move(asObject));
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(kb, kc);

    // The fabric participates in the key: string and object forms
    // agree with each other but differ from the no-fabric key.
    Json fabStr = Json::object();
    fabStr.set("target",
               Json::string(
                   "opt=none,mem=perfect,engine=event,fabric=2x2"));
    Json fabFields = Json::object();
    fabFields.set("opt", Json::string("none"));
    fabFields.set("mem", Json::string("perfect"));
    fabFields.set("engine", Json::string("event"));
    fabFields.set("fabric", Json::string("2x2"));
    Json fabObj = Json::object();
    fabObj.set("target", std::move(fabFields));

    const std::string kf1 = keyFor(std::move(fabStr));
    const std::string kf2 = keyFor(std::move(fabObj));
    EXPECT_EQ(kf1, kf2);
    EXPECT_NE(kf1, ka);
}

TEST(TargetSpec, ServiceRejectsBadTarget)
{
    Json j = Json::object();
    j.set("op", Json::string("compile"));
    j.set("source", Json::string("int f() { return 0; }"));
    Json options = Json::object();
    options.set("target", Json::string("fabric=0x0"));
    j.set("options", std::move(options));
    SvcRequest req;
    Status st = parseSvcRequest(j, &req);
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.message().find("options.target"), std::string::npos)
        << st.message();
}

// ---------------------------------------------------------------------
// Placer: determinism and invariants
// ---------------------------------------------------------------------

TEST(Placer, DeterministicAcrossRunsAndJobCounts)
{
    FabricModel fm;
    ASSERT_TRUE(FabricModel::parse("4x4", &fm).isOk());

    CompileResult j1 = compileSource(
        kDotSrc, CompileOptions().opt(OptLevel::Full).jobs(1));
    CompileResult j8 = compileSource(
        kDotSrc, CompileOptions().opt(OptLevel::Full).jobs(8));
    ASSERT_EQ(j1.graphs.size(), j8.graphs.size());

    for (size_t i = 0; i < j1.graphs.size(); i++) {
        Placement a = placeGraph(*j1.graphs[i], fm);
        Placement b = placeGraph(*j1.graphs[i], fm);  // repeat
        Placement c = placeGraph(*j8.graphs[i], fm);  // -j8 compile
        EXPECT_EQ(a.tileOf, b.tileOf) << j1.graphs[i]->name;
        EXPECT_EQ(a.tileOf, c.tileOf) << j1.graphs[i]->name;
        EXPECT_EQ(a.cutEdges, c.cutEdges);
        EXPECT_EQ(a.cutHops, c.cutHops);
    }

    // A different seed may move nodes, but stays deterministic too.
    Placement s1 = placeGraph(*j1.graphs[0], fm, 12345);
    Placement s2 = placeGraph(*j1.graphs[0], fm, 12345);
    EXPECT_EQ(s1.tileOf, s2.tileOf);
}

TEST(Placer, CapacityAndQualityInvariants)
{
    CompileResult r = compileSource(kDotSrc, {});
    for (const char* spec : {"1x2", "2x2", "4x4", "3x3:cap4",
                             "2x2:cap1" /* infeasible cap: widened */}) {
        FabricModel fm;
        ASSERT_TRUE(FabricModel::parse(spec, &fm).isOk());
        for (const auto& g : r.graphs) {
            Placement pl = placeGraph(*g, fm);
            const int64_t n =
                static_cast<int64_t>(g->liveNodes().size());
            ASSERT_EQ(pl.numTiles, fm.numTiles()) << spec;
            ASSERT_EQ(pl.numNodes, n) << spec;
            ASSERT_EQ(static_cast<int64_t>(pl.tileOf.size()), n);

            // Every node lands on a real tile; no tile exceeds the
            // effective capacity the placer reports.
            std::map<int32_t, int64_t> load;
            for (int32_t t : pl.tileOf) {
                ASSERT_GE(t, 0) << spec;
                ASSERT_LT(t, pl.numTiles) << spec;
                load[t]++;
            }
            const int64_t ceilAvg =
                (n + fm.numTiles() - 1) / fm.numTiles();
            EXPECT_GE(pl.capacity, ceilAvg) << spec;
            int64_t maxLoad = 0;
            for (const auto& kv : load)
                maxLoad = std::max(maxLoad, kv.second);
            EXPECT_LE(maxLoad, pl.capacity)
                << spec << " graph " << g->name;
            EXPECT_EQ(maxLoad, pl.maxTileOps);
            EXPECT_EQ(static_cast<int64_t>(load.size()),
                      pl.usedTiles);
            EXPECT_LE(pl.cutEdges, pl.totalEdges);
            EXPECT_GE(pl.cutHops, pl.cutEdges);
        }
    }
}

TEST(Placer, PlaceAllKeysByGraphName)
{
    CompileResult r = compileSource(kDotSrc, {});
    FabricModel fm;
    ASSERT_TRUE(FabricModel::parse("2x2", &fm).isOk());
    FabricSession fs = placeAll(r.graphPtrs(), fm);
    EXPECT_EQ(fs.model, fm);
    ASSERT_EQ(fs.placements.size(), r.graphs.size());
    for (const auto& g : r.graphs) {
        auto it = fs.placements.find(g->name);
        ASSERT_NE(it, fs.placements.end()) << g->name;
        EXPECT_EQ(static_cast<size_t>(it->second.numNodes),
                  g->liveNodes().size());
    }
}

// ---------------------------------------------------------------------
// Simulator integration: timing model on hand-built placements
// ---------------------------------------------------------------------

namespace {

/** Baseline (idealized-fabric) simulation of kDotSrc's run(n). */
SimResult
baselineRun(const CompileResult& r, uint32_t n,
            SimEngine engine = SimEngine::Event)
{
    DataflowSimulator sim(r.graphPtrs(), *r.layout,
                          MemConfig::perfectMemory(), engine);
    return sim.run("run", {n});
}

/** Simulate run(n) under an explicit FabricSession. */
SimResult
fabricRun(const CompileResult& r, const FabricSession& fs, uint32_t n,
          SimEngine engine = SimEngine::Event)
{
    DataflowSimulator sim(r.graphPtrs(), *r.layout,
                          MemConfig::perfectMemory(), engine, &fs);
    return sim.run("run", {n});
}

/**
 * Hand-built placement: node at dense index i (liveNodes() order)
 * goes to tile (i % stride == 0 ? 0 : 1) — or all on @p fixed when
 * fixed >= 0.  This is the test's way of pinning exact cut edges
 * without depending on the placer heuristics.
 */
FabricSession
handSession(const CompileResult& r, const FabricModel& fm, int fixed,
            int stride = 2)
{
    FabricSession fs;
    fs.model = fm;
    for (const auto& g : r.graphs) {
        Placement pl;
        pl.numTiles = fm.numTiles();
        const size_t n = g->liveNodes().size();
        pl.tileOf.resize(n);
        for (size_t i = 0; i < n; i++)
            pl.tileOf[i] =
                fixed >= 0 ? fixed : (i % stride == 0 ? 0 : 1);
        pl.numNodes = static_cast<int64_t>(n);
        fs.placements[g->name] = std::move(pl);
    }
    return fs;
}

} // namespace

TEST(FabricSim, TrivialFabricIsByteIdentical)
{
    CompileResult r = compileSource(kDotSrc, {});
    SimResult base = baselineRun(r, 16);
    ASSERT_TRUE(base.ok());

    // A 1x1 session must not perturb anything — same cycles, same
    // result, and no fabric.* keys in the stats.
    FabricModel one;  // 1x1 default
    FabricSession fs = handSession(r, one, /*fixed=*/0);
    SimResult got = fabricRun(r, fs, 16);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.returnValue, base.returnValue);
    EXPECT_EQ(got.cycles, base.cycles);
    EXPECT_FALSE(got.stats.has("fabric.tiles"));
    EXPECT_FALSE(base.stats.has("fabric.tiles"));

    // Same at the macro engine.
    SimResult mbase = baselineRun(r, 16, SimEngine::Macro);
    SimResult mgot = fabricRun(r, fs, 16, SimEngine::Macro);
    EXPECT_EQ(mgot.returnValue, mbase.returnValue);
    EXPECT_EQ(mgot.cycles, mbase.cycles);
}

TEST(FabricSim, SameTilePlacementCostsNothing)
{
    CompileResult r = compileSource(kDotSrc, {});
    SimResult base = baselineRun(r, 16);

    // 1x2 fabric but every node on one tile: the fabric is active
    // (stats keys appear) yet no edge crosses, so timing is
    // unchanged.  Tile 0 and tile 1 behave identically.
    FabricModel fm;
    ASSERT_TRUE(FabricModel::parse("1x2:hop7", &fm).isOk());
    for (int fixed : {0, 1}) {
        FabricSession fs = handSession(r, fm, fixed);
        SimResult got = fabricRun(r, fs, 16);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.returnValue, base.returnValue);
        EXPECT_EQ(got.cycles, base.cycles);
        EXPECT_EQ(got.stats.get("fabric.tiles"), 2);
        EXPECT_EQ(got.stats.get("fabric.cross_deliveries"), 0);
        EXPECT_EQ(got.stats.get("fabric.hop_cycles"), 0);
    }
}

TEST(FabricSim, CrossTileHopLatencyGoldens)
{
    CompileResult r = compileSource(kDotSrc, {});
    SimResult base = baselineRun(r, 16);

    // Alternate-parity placement on a 1x2 grid: every cut edge is
    // exactly one hop, so hop_cycles must equal hopLatency *
    // cross_deliveries — the golden law of the timing model.
    auto atHop = [&](int hop) {
        FabricModel fm;
        EXPECT_TRUE(FabricModel::parse("1x2", &fm).isOk());
        fm.hopLatency = hop;
        FabricSession fs = handSession(r, fm, /*fixed=*/-1);
        return fabricRun(r, fs, 16);
    };
    SimResult h2 = atHop(2);
    SimResult h4 = atHop(4);
    ASSERT_TRUE(h2.ok());
    ASSERT_TRUE(h4.ok());

    // Semantics never change; only timing does.
    EXPECT_EQ(h2.returnValue, base.returnValue);
    EXPECT_EQ(h4.returnValue, base.returnValue);

    const int64_t cross2 = h2.stats.get("fabric.cross_deliveries");
    const int64_t cross4 = h4.stats.get("fabric.cross_deliveries");
    ASSERT_GT(cross2, 0);
    EXPECT_EQ(cross2, cross4);  // same placement, same traffic
    EXPECT_EQ(h2.stats.get("fabric.hop_cycles"), 2 * cross2);
    EXPECT_EQ(h4.stats.get("fabric.hop_cycles"), 4 * cross4);

    // Hop latency on the critical path: strictly slower than the
    // idealized fabric, monotone in the hop cost.
    EXPECT_GT(h2.cycles, base.cycles);
    EXPECT_GT(h4.cycles, h2.cycles);

    // Deterministic: an identical re-run reproduces the cycles.
    SimResult h2again = atHop(2);
    EXPECT_EQ(h2again.cycles, h2.cycles);
}

TEST(FabricSim, CreditBackpressureInvariants)
{
    CompileResult r = compileSource(kDotSrc, {});

    FabricModel unbounded;
    ASSERT_TRUE(FabricModel::parse("1x2:hop2", &unbounded).isOk());
    FabricModel starved = unbounded;
    starved.linkCredits = 1;

    FabricSession fsU = handSession(r, unbounded, /*fixed=*/-1);
    FabricSession fsS = handSession(r, starved, /*fixed=*/-1);
    SimResult u = fabricRun(r, fsU, 16);
    SimResult s = fabricRun(r, fsS, 16);
    ASSERT_TRUE(u.ok());
    ASSERT_TRUE(s.ok());

    // Credits only delay; they never change the answer.
    EXPECT_EQ(s.returnValue, u.returnValue);
    EXPECT_GE(s.cycles, u.cycles);

    // With one credit per channel this traffic pattern must stall,
    // and every stall accounts at least one cycle.
    EXPECT_EQ(u.stats.get("fabric.credit_stalls"), 0);
    const int64_t stalls = s.stats.get("fabric.credit_stalls");
    EXPECT_GT(stalls, 0);
    EXPECT_GE(s.stats.get("fabric.credit_stall_cycles"), stalls);
    EXPECT_EQ(s.stats.get("fabric.link_credits"), 1);
}

TEST(FabricSim, PlacedQualityReportInStats)
{
    CompileResult r = compileSource(kDotSrc, {});
    FabricModel fm;
    ASSERT_TRUE(FabricModel::parse("2x2", &fm).isOk());
    FabricSession fs = placeAll(r.graphPtrs(), fm);
    SimResult got = fabricRun(r, fs, 16);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.stats.get("fabric.tiles"), 4);
    EXPECT_GT(got.stats.get("fabric.nodes"), 0);
    EXPECT_GT(got.stats.get("fabric.edges.total"), 0);
    EXPECT_LE(got.stats.get("fabric.edges.cut"),
              got.stats.get("fabric.edges.total"));
    EXPECT_GE(got.stats.get("fabric.occupancy.max"), 1);
    EXPECT_GE(got.stats.get("fabric.occupancy.mean_x100"), 100);
}

TEST(FabricSim, MacroEngineMatchesEventEngineOnFabric)
{
    // The macro engine compiles whole regions into super-operators;
    // with a fabric those regions must stay within one tile, and with
    // unbounded credits the two engines agree cycle-for-cycle under
    // perfect memory.
    CompileResult r = compileSource(kDotSrc, {});
    for (const char* spec : {"2x2", "4x4:hop2", "1x2:hop3"}) {
        FabricModel fm;
        ASSERT_TRUE(FabricModel::parse(spec, &fm).isOk());
        FabricSession fs = placeAll(r.graphPtrs(), fm);
        SimResult ev = fabricRun(r, fs, 24, SimEngine::Event);
        SimResult ma = fabricRun(r, fs, 24, SimEngine::Macro);
        ASSERT_TRUE(ev.ok()) << spec;
        ASSERT_TRUE(ma.ok()) << spec;
        EXPECT_EQ(ma.returnValue, ev.returnValue) << spec;
        EXPECT_EQ(ma.cycles, ev.cycles) << spec;
    }

    // With *finite* credits the macro engine delivers a region's
    // collapsed inputs once instead of per internal edge, so it can
    // consume fewer channel slots and finish no later than the event
    // engine (docs/FABRIC.md, "Macro engine exactness").  Semantics
    // still match exactly.
    FabricModel fm;
    ASSERT_TRUE(FabricModel::parse("2x2:credit2", &fm).isOk());
    FabricSession fs = placeAll(r.graphPtrs(), fm);
    SimResult ev = fabricRun(r, fs, 24, SimEngine::Event);
    SimResult ma = fabricRun(r, fs, 24, SimEngine::Macro);
    ASSERT_TRUE(ev.ok());
    ASSERT_TRUE(ma.ok());
    EXPECT_EQ(ma.returnValue, ev.returnValue);
    EXPECT_LE(ma.cycles, ev.cycles);
}

TEST(FabricSim, ResultsMatchInterpreterAcrossFabrics)
{
    const uint32_t expect = testutil::interpret(kDotSrc, "run", {20});
    CompileResult r = compileSource(kDotSrc, {});
    for (const char* spec :
         {"2x2", "4x4:hop3", "2x2:credit1", "8x8"}) {
        FabricModel fm;
        ASSERT_TRUE(FabricModel::parse(spec, &fm).isOk());
        FabricSession fs = placeAll(r.graphPtrs(), fm);
        for (SimEngine engine : {SimEngine::Event, SimEngine::Macro}) {
            SimResult got = fabricRun(r, fs, 20, engine);
            ASSERT_TRUE(got.ok()) << spec;
            EXPECT_EQ(got.returnValue, expect) << spec;
        }
    }
}

} // namespace
