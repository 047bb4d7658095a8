/**
 * @file
 * The worklist scalar_opts and dead_code passes against reference
 * copies of the full-sweep implementations they replaced, kept here
 * with no code shared with src/opt: a std::map CSE table rebuilt every
 * sweep, full liveNodes() sweeps, and the 32/64 sweep guards.
 *
 * Every input compiles twice through the driver, once with the
 * reference passes and once with the library's, each wrapped in a
 * recorder.  After every run the recorder takes the returned flag, the
 * counters the run bumped, the journal's saved-node count and a digest
 * of the graph's structure: every node's fields, inputs and use list
 * (the order of a use list steers later rewrites, and DOT does not
 * show it).  On the kernels, the `small` and `calls` programs and the
 * custom pipelines it also takes the graph's DOT after every run; on
 * the `medium` and `large` programs, whose graphs reach 20k nodes,
 * DOT after every run would dominate the suite's time, and the digest
 * covers what the two passes can change.  The two records must agree
 * run for run, and so must the compiles' final DOT and wall-clock-free
 * stats.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "benchsuite/kernels.h"
#include "driver/compiler.h"
#include "fuzz/generator.h"
#include "opt/pass.h"
#include "pegasus/dot.h"
#include "sim/value.h"
#include "support/diagnostics.h"

using namespace cash;

namespace {

// ---------------------------------------------------------------------
// Reference passes: the full-sweep implementations, verbatim in
// behavior.
// ---------------------------------------------------------------------

bool
refConstOf(const PortRef& p, int64_t* v)
{
    if (p.node->kind == NodeKind::Const) {
        *v = p.node->constValue;
        return true;
    }
    return false;
}

bool
refIsNegationOf(const PortRef& x, const PortRef& y)
{
    if (x.node->kind == NodeKind::Arith && x.node->op == Op::NotBool &&
        x.node->input(0) == y)
        return true;
    if (y.node->kind == NodeKind::Arith && y.node->op == Op::NotBool &&
        y.node->input(0) == x)
        return true;
    return false;
}

class RefScalarOpts : public Pass
{
  public:
    const char* name() const override { return "scalar_opts"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        bool anyChange = false;
        bool changed = true;
        int guard = 0;
        while (changed && guard++ < 32) {
            changed = false;
            for (Node* n : g.liveNodes()) {
                if (n->dead || n->kind != NodeKind::Arith)
                    continue;
                changed |= foldOrSimplify(g, n, ctx);
            }
            changed |= cse(g, ctx);
            anyChange |= changed;
        }
        return anyChange;
    }

  private:
    void
    replaceWithConst(Graph& g, Node* n, uint32_t value)
    {
        Node* c = g.newConst(
            n->type == VT::Pred ? (value ? 1 : 0)
                                : static_cast<int64_t>(value),
            n->type, n->hyperblock);
        g.replaceAllUses({n, 0}, {c, 0});
        g.erase(n);
    }

    bool
    foldOrSimplify(Graph& g, Node* n, OptContext& ctx)
    {
        if (n->op == Op::Copy || opIsUnary(n->op)) {
            int64_t a;
            if (refConstOf(n->input(0), &a)) {
                replaceWithConst(
                    g, n, evalUnary(n->op, static_cast<uint32_t>(a)));
                ctx.count("opt.scalar.fold");
                return true;
            }
            if (n->op == Op::Copy) {
                g.replaceAllUses({n, 0}, n->input(0));
                g.erase(n);
                return true;
            }
            if (n->op == Op::NotBool) {
                Node* in = n->input(0).node;
                if (in->kind == NodeKind::Arith &&
                    in->op == Op::NotBool &&
                    (in->outputType(0) == VT::Pred ||
                     in->input(0).node->outputType(
                         in->input(0).port) == VT::Pred)) {
                    g.replaceAllUses({n, 0}, in->input(0));
                    g.erase(n);
                    ctx.count("opt.scalar.notnot");
                    return true;
                }
            }
            return false;
        }

        int64_t a = 0, b = 0;
        bool ca = refConstOf(n->input(0), &a);
        bool cb = refConstOf(n->input(1), &b);
        if (ca && cb) {
            replaceWithConst(g, n,
                             evalBinary(n->op, static_cast<uint32_t>(a),
                                        static_cast<uint32_t>(b)));
            ctx.count("opt.scalar.fold");
            return true;
        }

        PortRef x = n->input(0), y = n->input(1);
        auto wire = [&](PortRef v) {
            g.replaceAllUses({n, 0}, v);
            g.erase(n);
            ctx.count("opt.scalar.algebra");
            return true;
        };
        auto toConst = [&](uint32_t v) {
            replaceWithConst(g, n, v);
            ctx.count("opt.scalar.algebra");
            return true;
        };

        switch (n->op) {
          case Op::Add:
            if (cb && b == 0)
                return wire(x);
            if (ca && a == 0)
                return wire(y);
            break;
          case Op::Sub:
            if (cb && b == 0)
                return wire(x);
            if (x == y)
                return toConst(0);
            break;
          case Op::Mul:
            if (cb && b == 1)
                return wire(x);
            if (ca && a == 1)
                return wire(y);
            if ((cb && b == 0) || (ca && a == 0))
                return toConst(0);
            break;
          case Op::And:
            if (n->type == VT::Pred) {
                if (cb)
                    return b ? wire(x) : toConst(0);
                if (ca)
                    return a ? wire(y) : toConst(0);
                if (refIsNegationOf(x, y))
                    return toConst(0);
            } else {
                if ((cb && b == 0) || (ca && a == 0))
                    return toConst(0);
                if (cb && static_cast<uint32_t>(b) == 0xffffffffu)
                    return wire(x);
            }
            if (x == y)
                return wire(x);
            break;
          case Op::Or:
            if (n->type == VT::Pred) {
                if (cb)
                    return b ? toConst(1) : wire(x);
                if (ca)
                    return a ? toConst(1) : wire(y);
                if (refIsNegationOf(x, y))
                    return toConst(1);
                if (x.node->kind == NodeKind::Arith &&
                    x.node->op == Op::And &&
                    y.node->kind == NodeKind::Arith &&
                    y.node->op == Op::And) {
                    for (int i = 0; i < 2; i++) {
                        for (int j = 0; j < 2; j++) {
                            if (x.node->input(i) == y.node->input(j) &&
                                refIsNegationOf(x.node->input(1 - i),
                                                y.node->input(1 - j)))
                                return wire(x.node->input(i));
                        }
                    }
                }
            } else {
                if (cb && b == 0)
                    return wire(x);
                if (ca && a == 0)
                    return wire(y);
            }
            if (x == y)
                return wire(x);
            break;
          case Op::Xor:
            if (cb && b == 0)
                return wire(x);
            if (ca && a == 0)
                return wire(y);
            if (x == y)
                return toConst(0);
            break;
          case Op::Shl:
          case Op::ShrS:
          case Op::ShrU:
            if (cb && b == 0)
                return wire(x);
            break;
          case Op::Eq:
            if (x == y)
                return toConst(1);
            break;
          case Op::Ne:
            if (x == y)
                return toConst(0);
            break;
          default:
            break;
        }
        return false;
    }

    bool
    cse(Graph& g, OptContext& ctx)
    {
        using Key = std::tuple<int, Op, VT, const Node*, int,
                               const Node*, int>;
        std::map<Key, Node*> table;
        bool changed = false;
        for (Node* n : g.liveNodes()) {
            if (n->dead || n->kind != NodeKind::Arith)
                continue;
            PortRef x = n->input(0);
            PortRef y = n->numInputs() > 1 ? n->input(1) : PortRef{};
            switch (n->op) {
              case Op::Add: case Op::Mul: case Op::And: case Op::Or:
              case Op::Xor: case Op::Eq: case Op::Ne:
                if (y.valid() &&
                    (x.node->id > y.node->id ||
                     (x.node == y.node && x.port > y.port)))
                    std::swap(x, y);
                break;
              default:
                break;
            }
            Key key{n->hyperblock, n->op, n->type, x.node, x.port,
                    y.node, y.port};
            auto [it, inserted] = table.try_emplace(key, n);
            if (!inserted && it->second != n) {
                g.replaceAllUses({n, 0}, {it->second, 0});
                g.erase(n);
                ctx.count("opt.scalar.cse");
                changed = true;
            }
        }
        return changed;
    }
};

bool
refIsConstFalse(const PortRef& p)
{
    return p.node->kind == NodeKind::Const && p.node->constValue == 0;
}

bool
refIsConstTrue(const PortRef& p)
{
    return p.node->kind == NodeKind::Const && p.node->constValue != 0;
}

class RefDeadCode : public Pass
{
  public:
    const char* name() const override { return "dead_code"; }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        bool anyChange = false;
        bool changed = true;
        int guard = 0;
        while (changed && guard++ < 64) {
            changed = false;
            for (Node* n : g.liveNodes()) {
                if (n->dead)
                    continue;
                changed |= simplify(g, n, ctx);
            }
            anyChange |= changed;
        }
        return anyChange;
    }

  private:
    bool
    simplify(Graph& g, Node* n, OptContext& ctx)
    {
        switch (n->kind) {
          case NodeKind::Arith:
          case NodeKind::Mux:
            if (n->uses().empty()) {
                g.erase(n);
                ctx.count("opt.dead_code.pure");
                return true;
            }
            if (n->kind == NodeKind::Mux)
                return simplifyMux(g, n, ctx);
            return false;

          case NodeKind::Const:
            if (n->uses().empty()) {
                g.erase(n);
                return true;
            }
            return false;

          case NodeKind::Combine:
            return simplifyCombine(g, n, ctx);

          case NodeKind::Merge:
            return simplifyMerge(g, n, ctx);

          case NodeKind::Eta:
            return simplifyEta(g, n, ctx);

          case NodeKind::Load:
            if (refIsConstFalse(n->input(0)) || dataUnused(n)) {
                bool predFalse = refIsConstFalse(n->input(0));
                Node* zero = g.newConst(0, VT::Word, n->hyperblock);
                g.replaceAllUses({n, 0}, {zero, 0});
                g.bypassToken(n, n->input(1));
                g.erase(n);
                if (zero->uses().empty())
                    g.erase(zero);
                ctx.count(predFalse ? "opt.dead_code.falseLoad"
                                    : "opt.dead_code.unusedLoad");
                return true;
            }
            return false;

          case NodeKind::Store:
            if (refIsConstFalse(n->input(0))) {
                g.bypassToken(n, n->input(1));
                g.erase(n);
                ctx.count("opt.dead_code.falseStore");
                return true;
            }
            return false;

          case NodeKind::Call:
            if (refIsConstFalse(n->input(0))) {
                Node* zero = g.newConst(0, VT::Word, n->hyperblock);
                g.replaceAllUses({n, 0}, {zero, 0});
                g.bypassToken(n, n->input(1));
                g.erase(n);
                if (zero->uses().empty())
                    g.erase(zero);
                ctx.count("opt.dead_code.falseCall");
                return true;
            }
            return false;

          default:
            return false;
        }
    }

    bool
    dataUnused(const Node* n) const
    {
        for (const Use& u : n->uses())
            if (u.user->input(u.index) == PortRef{const_cast<Node*>(n), 0})
                return false;
        return true;
    }

    bool
    simplifyMux(Graph& g, Node* n, OptContext& ctx)
    {
        for (int i = 0; i < n->numInputs(); i += 2) {
            if (refIsConstFalse(n->input(i))) {
                g.removeInput(n, i + 1);
                g.removeInput(n, i);
                ctx.count("opt.dead_code.muxArm");
                return true;
            }
        }
        for (int i = 0; i < n->numInputs(); i += 2) {
            if (refIsConstTrue(n->input(i))) {
                PortRef v = n->input(i + 1);
                g.replaceAllUses({n, 0}, v);
                g.erase(n);
                ctx.count("opt.dead_code.muxConst");
                return true;
            }
        }
        if (n->numInputs() == 2) {
            PortRef v = n->input(1);
            g.replaceAllUses({n, 0}, v);
            g.erase(n);
            ctx.count("opt.dead_code.muxSingle");
            return true;
        }
        bool allSame = n->numInputs() >= 2;
        for (int i = 3; i < n->numInputs(); i += 2)
            if (n->input(i) != n->input(1))
                allSame = false;
        if (allSame && n->numInputs() > 2) {
            PortRef v = n->input(1);
            g.replaceAllUses({n, 0}, v);
            g.erase(n);
            ctx.count("opt.dead_code.muxUniform");
            return true;
        }
        return false;
    }

    bool
    simplifyCombine(Graph& g, Node* n, OptContext& ctx)
    {
        if (n->uses().empty()) {
            g.erase(n);
            return true;
        }
        for (int i = 0; i < n->numInputs(); i++) {
            for (int j = i + 1; j < n->numInputs(); j++) {
                if (n->input(i) == n->input(j)) {
                    g.removeInput(n, j);
                    ctx.count("opt.dead_code.combineDup");
                    return true;
                }
            }
        }
        if (n->numInputs() == 1) {
            g.replaceAllUses({n, 0}, n->input(0));
            g.erase(n);
            ctx.count("opt.dead_code.combineSingle");
            return true;
        }
        return false;
    }

    bool
    simplifyMerge(Graph& g, Node* n, OptContext& ctx)
    {
        if (n->uses().empty()) {
            g.erase(n);
            ctx.count("opt.dead_code.merge");
            return true;
        }
        if (n->deciderIndex >= 0) {
            bool hasBack = false;
            for (int i = 0; i < n->numInputs(); i++)
                if (i != n->deciderIndex && n->inputIsBackEdge(i))
                    hasBack = true;
            if (!hasBack) {
                g.removeDecider(n);
                ctx.count("opt.dead_code.decider");
                return true;
            }
        }
        if (n->numInputs() == 1 && !n->inputIsBackEdge(0) &&
            n->input(0).node->kind != NodeKind::Eta) {
            g.replaceAllUses({n, 0}, n->input(0));
            g.erase(n);
            ctx.count("opt.dead_code.mergeSingle");
            return true;
        }
        if (n->numInputs() == 0) {
            Node* zero = g.newConst(0, n->type, n->hyperblock);
            g.replaceAllUses({n, 0}, {zero, 0});
            g.erase(n);
            ctx.count("opt.dead_code.mergeEmpty");
            return true;
        }
        return false;
    }

    bool
    simplifyEta(Graph& g, Node* n, OptContext& ctx)
    {
        if (n->uses().empty()) {
            g.erase(n);
            ctx.count("opt.dead_code.eta");
            return true;
        }
        if (refIsConstFalse(n->input(1))) {
            std::vector<Use> uses(n->uses().begin(), n->uses().end());
            for (const Use& u : uses) {
                CASH_ASSERT(u.user->kind == NodeKind::Merge,
                            "token/value eta feeding non-merge");
                g.removeInput(u.user, u.index);
            }
            g.erase(n);
            ctx.count("opt.dead_code.etaFalse");
            return true;
        }
        if (refIsConstTrue(n->input(1))) {
            g.replaceAllUses({n, 0}, n->input(0));
            g.erase(n);
            ctx.count("opt.dead_code.etaTrue");
            return true;
        }
        return false;
    }
};

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/** FNV-1a over every live node's fields, inputs and use list. */
uint64_t
structureDigest(const Graph& g)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](int64_t v) {
        for (int i = 0; i < 8; i++) {
            h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    g.forEach([&](const Node* n) {
        mix(n->id);
        mix(static_cast<int64_t>(n->kind));
        mix(static_cast<int64_t>(n->op));
        mix(static_cast<int64_t>(n->type));
        mix(n->constValue);
        mix(n->hyperblock);
        mix(n->deciderIndex);
        for (int i = 0; i < n->numInputs(); i++) {
            const PortRef& in = n->input(i);
            mix(in.valid() ? in.node->id : -1);
            mix(in.port);
            mix(n->inputIsBackEdge(i) ? 1 : 0);
        }
        mix(-2);
        for (const Use& u : n->uses()) {
            mix(u.user->id);
            mix(u.index);
        }
        mix(-3);
    });
    return h;
}

/** Take the graph's DOT after every recorded run. */
bool gDotEachRun = true;

/** One pass run as the recorder saw it. */
struct RunRecord
{
    std::string what;      ///< Graph and pass.
    bool changed = false;
    std::string counters;  ///< Counters the run bumped.
    size_t saved = 0;      ///< g.journalSavedNodes() after the run.
    uint64_t structure = 0;
    std::string dot;       ///< Empty unless gDotEachRun.

    bool
    operator==(const RunRecord& o) const
    {
        return what == o.what && changed == o.changed &&
               counters == o.counters && saved == o.saved &&
               structure == o.structure && dot == o.dot;
    }
};

/** The record of one compile. */
struct Record
{
    std::vector<RunRecord> runs;
    std::string dot;    ///< Final graphs.
    std::string stats;  ///< Final stats, wall-clock keys dropped.
};

/** Where the recorders write: the compile in progress. */
Record* gRecord = nullptr;

class RecordingPass : public Pass
{
  public:
    explicit RecordingPass(std::unique_ptr<Pass> inner)
        : inner_(std::move(inner))
    {
    }

    const char* name() const override { return inner_->name(); }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        const StatSet before = *ctx.stats;
        RunRecord r;
        r.changed = inner_->run(g, ctx);
        r.what = g.name + " " + name();
        const StatSet bumped = ctx.stats->diff(before);
        for (const auto& [k, v] : bumped.all())
            r.counters += k + "=" + std::to_string(v) + " ";
        r.saved = g.journalSavedNodes();
        r.structure = structureDigest(g);
        if (gDotEachRun)
            r.dot = toDot(g);
        const bool changed = r.changed;
        gRecord->runs.push_back(std::move(r));
        return changed;
    }

  private:
    std::unique_ptr<Pass> inner_;
};

/** Registry names of the recorded passes, by implementation. */
std::string
recordedName(const std::string& pass, bool reference)
{
    return std::string("cleanup_test_") + (reference ? "ref_" : "new_") +
           pass;
}

void
registerRecorders()
{
    PassRegistry& reg = PassRegistry::global();
    if (reg.has(recordedName("scalar_opts", true)))
        return;
    for (const char* pass : {"scalar_opts", "dead_code"}) {
        const std::string p = pass;
        reg.registerPass(recordedName(p, true), [p] {
            std::unique_ptr<Pass> inner;
            if (p == "scalar_opts")
                inner = std::make_unique<RefScalarOpts>();
            else
                inner = std::make_unique<RefDeadCode>();
            return std::make_unique<RecordingPass>(std::move(inner));
        });
        reg.registerPass(recordedName(p, false), [p] {
            return std::make_unique<RecordingPass>(
                PassRegistry::global().create(p));
        });
    }
}

/** Stats minus wall-clock keys. */
std::string
statsFingerprint(const StatSet& stats)
{
    std::string out;
    for (const auto& [k, v] : stats.all()) {
        if (isWallClockKey(k))
            continue;
        out += k + "=" + std::to_string(v) + "\n";
    }
    return out;
}

/** Compile @p source with @p pipeline, its cleanup passes recorded. */
Record
compileRecorded(const std::string& source, CompileOptions options,
                const std::vector<std::string>& pipeline, bool reference)
{
    registerRecorders();
    std::vector<std::string> names;
    for (const std::string& p : pipeline)
        names.push_back(p == "scalar_opts" || p == "dead_code"
                            ? recordedName(p, reference)
                            : p);
    Record rec;
    gRecord = &rec;
    CompileResult r = compileSource(source, options.jobs(1).passes(names));
    gRecord = nullptr;
    for (const auto& g : r.graphs)
        rec.dot += toDot(*g);
    rec.stats = statsFingerprint(r.stats);
    return rec;
}

/** Runs compared over a test, for a floor on coverage. */
struct Coverage
{
    size_t inputs = 0;
    size_t runs = 0;
    size_t changedRuns = 0;
};

/**
 * Compile @p source with the reference and the library passes and
 * require identical records; @p pipeline empty means the standard one
 * of @p options.level.
 */
void
expectSame(const std::string& label, const std::string& source,
           const CompileOptions& options,
           std::vector<std::string> pipeline, Coverage& cov)
{
    if (pipeline.empty())
        pipeline = standardPipelineNames(options.level);
    const Record ref = compileRecorded(source, options, pipeline, true);
    const Record now = compileRecorded(source, options, pipeline, false);
    cov.inputs++;
    ASSERT_EQ(ref.runs.size(), now.runs.size()) << label;
    for (size_t i = 0; i < ref.runs.size(); i++) {
        const RunRecord& a = ref.runs[i];
        const RunRecord& b = now.runs[i];
        ASSERT_EQ(a.what, b.what) << label << " run " << i;
        EXPECT_EQ(a.changed, b.changed) << label << " run " << i << " "
                                        << a.what;
        EXPECT_EQ(a.counters, b.counters)
            << label << " run " << i << " " << a.what;
        EXPECT_EQ(a.saved, b.saved) << label << " run " << i << " "
                                    << a.what;
        EXPECT_EQ(a.structure, b.structure)
            << label << " run " << i << " " << a.what
            << ": structure differs";
        EXPECT_TRUE(a.dot == b.dot)
            << label << " run " << i << " " << a.what << ": DOT differs";
        if (!(a == b))
            return;  // Later runs start from different graphs.
        cov.runs++;
        cov.changedRuns += a.changed ? 1 : 0;
    }
    EXPECT_TRUE(ref.dot == now.dot) << label << ": final DOT differs";
    EXPECT_EQ(ref.stats, now.stats) << label;
}

std::string
generated(const char* profile, uint64_t seed)
{
    return fuzz::generateProgram(seed, fuzz::GenProfile::byName(profile))
        .render();
}

/**
 * Fuzz @p profile at generator seeds @p first to @p last (1-40 over
 * a profile's tests) under the Full pipeline.
 * On the small profiles (@p big false) DOT is taken after every run
 * and odd seeds run with the per-pass ordering checks on; the big
 * ones compare digests per run and skip the ordering checks, which
 * take most of a big compile.
 */
void
checkProfile(const char* profile, bool big, uint64_t first = 1,
             uint64_t last = 40)
{
    gDotEachRun = !big;
    Coverage cov;
    for (uint64_t seed = first; seed <= last; seed++) {
        CompileOptions o;
        o.orderingCheck(!big && seed % 2 == 1);
        expectSame(std::string(profile) + "-" + std::to_string(seed),
                   generated(profile, seed), o, {}, cov);
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_EQ(cov.inputs, last - first + 1);
    EXPECT_GT(cov.changedRuns, cov.inputs);
}

} // namespace

TEST(ScalarCleanup, KernelsAtEveryLevelMatchReference)
{
    Coverage cov;
    for (const Kernel& k : kernelSuite())
        for (OptLevel level :
             {OptLevel::None, OptLevel::Medium, OptLevel::Full})
            for (bool each : {false, true}) {
                CompileOptions o;
                o.opt(level).orderingCheck(each);
                expectSame("kernel " + k.name + " " +
                               optLevelName(level) +
                               (each ? " verify-each-pass" : ""),
                           k.source, o, {}, cov);
                if (::testing::Test::HasFailure())
                    return;
            }
    EXPECT_EQ(cov.inputs, kernelSuite().size() * 6);
    EXPECT_GT(cov.changedRuns, cov.inputs);
}

TEST(ScalarCleanup, FuzzSmallMatchesReference)
{
    checkProfile("small", false);
}

TEST(ScalarCleanup, FuzzMediumMatchesReference)
{
    checkProfile("medium", true);
}

// Two halves, so that ctest runs them side by side.
TEST(ScalarCleanup, FuzzLargeSeeds1To20MatchReference)
{
    checkProfile("large", true, 1, 20);
}

TEST(ScalarCleanup, FuzzLargeSeeds21To40MatchReference)
{
    checkProfile("large", true, 21, 40);
}

TEST(ScalarCleanup, FuzzCallsMatchesReference)
{
    checkProfile("calls", false);
}

/** Custom pipelines: cleanup alone, in the other order, and the full
 *  list reversed, on the kernels and a few generated programs. */
TEST(ScalarCleanup, CustomPipelinesMatchReference)
{
    std::vector<std::string> reversed =
        standardPipelineNames(OptLevel::Full);
    std::reverse(reversed.begin(), reversed.end());
    const std::vector<std::vector<std::string>> pipelines = {
        {"scalar_opts"}, {"dead_code", "scalar_opts"}, reversed};
    std::vector<std::pair<std::string, std::string>> inputs;
    for (const Kernel& k : kernelSuite())
        inputs.emplace_back("kernel " + k.name, k.source);
    for (uint64_t seed = 1; seed <= 4; seed++)
        inputs.emplace_back("calls-" + std::to_string(seed),
                            generated("calls", seed));
    Coverage cov;
    for (const auto& [label, source] : inputs)
        for (size_t p = 0; p < pipelines.size(); p++)
            for (bool each : {false, true}) {
                CompileOptions o;
                o.orderingCheck(each);
                expectSame(label + " pipeline " + std::to_string(p) +
                               (each ? " verify-each-pass" : ""),
                           source, o, pipelines[p], cov);
                if (::testing::Test::HasFailure())
                    return;
            }
    EXPECT_EQ(cov.inputs, inputs.size() * pipelines.size() * 2);
}
