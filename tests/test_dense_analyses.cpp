/**
 * @file
 * The dense per-graph analyses of the compile path, each checked
 * against a straightforward reference implementation kept here:
 *   - the journal-scoped verifier (verifyJournaled) against the full
 *     verifyGraph() on every journaled pass run, corruptions included;
 *   - bitset Liveness against a std::set fixpoint;
 *   - Reachability and optutil::orderedAfter against a naive DFS;
 *   - runLints' one shared OrderingChecker per graph against one
 *     separately built checker per rule.
 * Plus the pass manager's handling of a pass that leaves an input
 * disconnected: a verify_error rollback, not a crash.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/interproc.h"
#include "analysis/lint.h"
#include "benchsuite/kernels.h"
#include "cfg/liveness.h"
#include "driver/compiler.h"
#include "fuzz/generator.h"
#include "opt/opt_util.h"
#include "opt/pass.h"
#include "pegasus/reachability.h"
#include "pegasus/verifier.h"
#include "support/fault_injection.h"

using namespace cash;

namespace {

/** Kernels plus a few generated `calls` and `large` programs. */
std::vector<std::string>
corpus()
{
    std::vector<std::string> out;
    for (const Kernel& k : kernelSuite())
        out.push_back(k.source);
    for (uint64_t s = 1; s <= 4; s++)
        out.push_back(fuzz::generateProgram(
                          s, fuzz::GenProfile::byName("calls"))
                          .render());
    for (uint64_t s = 1; s <= 2; s++)
        out.push_back(fuzz::generateProgram(
                          s, fuzz::GenProfile::byName("large"))
                          .render());
    return out;
}

class NoopPass : public Pass
{
  public:
    const char* name() const override { return "dense_test_noop"; }
    bool run(Graph&, OptContext&) override { return false; }
};

/** Compile @p source leaving its graphs unoptimized. */
CompileResult
compileUnoptimized(const std::string& source)
{
    PassRegistry::global().registerPass(
        "dense_test_noop", [] { return std::make_unique<NoopPass>(); });
    return compileSource(source,
                         CompileOptions().passes({"dense_test_noop"}));
}

// ---------------------------------------------------------------------
// Journal-scoped verification
// ---------------------------------------------------------------------

/** Tallies of the verdict comparison over one corpus. */
struct VerdictTally
{
    int runs = 0;        ///< Journaled runs compared.
    int broken = 0;      ///< ...of which the full verifier rejected.
    int mismatches = 0;  ///< ...where the two verifiers disagreed.
    std::set<int> brokenBy;  ///< Damage kinds that broke a graph.
    std::string firstMismatch;
};

/**
 * Damage of kind @p kind done after a pass run, under its journal:
 *   0 detach a side effect's token input (graph.corrupt-token)
 *   1 disconnect an arith input (an invalid PortRef)
 *   2 feed an arith its own user (a forward cycle)
 *   3 feed a load's predicate a token
 * Returns false when the graph has no site for it.
 */
bool
damage(Graph& g, int kind, uint64_t seed)
{
    if (kind == 0)
        return !corruptTokenEdge(g, seed).empty();
    std::vector<Node*> sites;
    g.forEach([&](Node* n) {
        if (kind == 1 && n->kind == NodeKind::Arith && n->numInputs() > 0)
            sites.push_back(n);
        if (kind == 2 && n->kind == NodeKind::Arith &&
            n->numInputs() > 0) {
            for (const Use& u : n->uses())
                if (!u.user->dead && u.user->kind == NodeKind::Arith &&
                    !u.user->inputIsBackEdge(u.index)) {
                    sites.push_back(n);
                    break;
                }
        }
        if (kind == 3 && n->kind == NodeKind::Load &&
            n->numInputs() == 3)
            sites.push_back(n);
    });
    if (sites.empty())
        return false;
    Node* n = sites[seed % sites.size()];
    switch (kind) {
      case 1:
        g.setInput(n, 0, PortRef{});
        return true;
      case 2:
        for (const Use& u : n->uses())
            if (!u.user->dead && u.user->kind == NodeKind::Arith &&
                !u.user->inputIsBackEdge(u.index)) {
                g.setInput(n, 0, {u.user, 0});
                return true;
            }
        return false;
      default:
        g.setInput(n, 0, n->input(1));
        return true;
    }
}

/**
 * Runs an inner pass, optionally damages the graph, and then — while
 * the pass manager's journal is still open — compares the verdict of
 * verifyJournaled() with verifyGraph()'s, when the graph was
 * well-formed before the run (verifyJournaled()'s precondition).
 */
class VerdictPass : public Pass
{
  public:
    VerdictPass(std::unique_ptr<Pass> inner, VerdictTally* tally,
                int* serial)
        : inner_(std::move(inner)), tally_(tally), serial_(serial)
    {
    }

    const char* name() const override { return inner_->name(); }

    bool
    run(Graph& g, OptContext& ctx) override
    {
        const bool cleanBefore = verifyGraph(g).empty();
        bool changed = inner_->run(g, ctx);
        const int k = (*serial_)++;
        // One run in three is damaged, cycling through the kinds.
        const int kind = k % 3 == 0 ? (k / 3) % 4 : -1;
        if (kind >= 0)
            changed |= damage(g, kind, static_cast<uint64_t>(k));
        if (!cleanBefore)
            return changed;
        const bool full = verifyGraph(g).empty();
        const bool journaled = verifyJournaled(g);
        tally_->runs++;
        tally_->broken += full ? 0 : 1;
        if (!full && kind >= 0)
            tally_->brokenBy.insert(kind);
        if (full != journaled) {
            tally_->mismatches++;
            if (tally_->firstMismatch.empty())
                tally_->firstMismatch =
                    g.name + " after " + name() + " (run " +
                    std::to_string(k) + "): full " +
                    (full ? "clean" : "broken") + ", journaled " +
                    (journaled ? "clean" : "broken");
        }
        return changed;
    }

  private:
    std::unique_ptr<Pass> inner_;
    VerdictTally* tally_;
    int* serial_;
};

TEST(DenseAnalyses, JournaledVerifierAgreesWithFullVerifier)
{
    VerdictTally tally;
    int serial = 0;
    for (const std::string& src : corpus()) {
        CompileResult r = compileUnoptimized(src);
        for (const auto& g : r.graphs) {
            std::vector<std::unique_ptr<Pass>> pipeline;
            for (const std::string& name :
                 standardPipelineNames(OptLevel::Full))
                pipeline.push_back(std::make_unique<VerdictPass>(
                    PassRegistry::global().create(name), &tally,
                    &serial));
            StatSet stats;
            std::vector<PassFailure> failures;
            OptContext ctx;
            ctx.oracle = &r.cfg->oracle;
            ctx.layout = r.layout.get();
            ctx.stats = &stats;
            ctx.verifyAfterEachPass = true;
            ctx.isolatePasses = true;
            ctx.failures = &failures;
            optimizeGraph(*g, pipeline, ctx);
            // Every damaged run was caught and rolled back.
            EXPECT_TRUE(verifyGraph(*g).empty()) << g->name;
        }
    }
    EXPECT_EQ(tally.mismatches, 0) << tally.firstMismatch;
    EXPECT_GT(tally.runs, 1000);
    EXPECT_GT(tally.broken, 100);
    EXPECT_EQ(tally.brokenBy.size(), 4u);
}

// ---------------------------------------------------------------------
// Pass manager: a disconnected input
// ---------------------------------------------------------------------

/** Disconnects input 1 of the first binary arith it finds. */
class DisconnectPass : public Pass
{
  public:
    const char* name() const override { return "dense_test_disconnect"; }

    bool
    run(Graph& g, OptContext&) override
    {
        Node* victim = nullptr;
        g.forEach([&](Node* n) {
            if (!victim && n->kind == NodeKind::Arith &&
                n->numInputs() == 2)
                victim = n;
        });
        if (!victim)
            return false;
        g.setInput(victim, 1, PortRef{});
        return true;
    }
};

TEST(DenseAnalyses, DisconnectedInputRollsBackAsVerifyError)
{
    PassRegistry::global().registerPass("dense_test_disconnect", [] {
        return std::make_unique<DisconnectPass>();
    });
    const std::string src = "int f(int a, int b) { return a * b + 3; }";
    std::vector<std::string> names = {"scalar_opts",
                                      "dense_test_disconnect",
                                      "dead_code"};
    CompileResult r = compileSource(src, CompileOptions().passes(names));
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].pass, "dense_test_disconnect");
    EXPECT_EQ(static_cast<int>(r.diagnostics[0].code),
              static_cast<int>(ErrorCode::VerifyError));
    EXPECT_EQ(r.stats.get("opt.rollbacks"), 1);
    // The rest of the pipeline kept running.
    EXPECT_GT(r.stats.get("opt.pass.dead_code.runs"), 0);
    EXPECT_TRUE(verifyGraph(*r.graph("f")).empty());
}

// ---------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------

/** Live-in sets by a std::set fixpoint, for reference. */
std::vector<std::set<int>>
referenceLiveIn(const CfgFunction& fn)
{
    size_t n = fn.blocks.size();
    std::vector<std::set<int>> in(n), out(n), use(n), def(n);
    for (const auto& b : fn.blocks) {
        for (const Instr& i : b->instrs) {
            for (int r : Liveness::uses(i))
                if (!def[b->id].count(r))
                    use[b->id].insert(r);
            if (Liveness::def(i) >= 0)
                def[b->id].insert(Liveness::def(i));
        }
        for (int r : Liveness::uses(b->term))
            if (!def[b->id].count(r))
                use[b->id].insert(r);
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t k = n; k-- > 0;) {
            std::set<int> o;
            for (int s : fn.block(static_cast<int>(k))->succs)
                o.insert(in[s].begin(), in[s].end());
            std::set<int> i = use[k];
            for (int r : o)
                if (!def[k].count(r))
                    i.insert(r);
            if (o != out[k] || i != in[k]) {
                out[k] = std::move(o);
                in[k] = std::move(i);
                changed = true;
            }
        }
    }
    return in;
}

TEST(DenseAnalyses, BitsetLivenessMatchesSetFixpoint)
{
    int blocks = 0;
    for (const std::string& src : corpus()) {
        CompileResult r = compileUnoptimized(src);
        for (const auto& fn : r.cfg->functions) {
            Liveness live(*fn);
            std::vector<std::set<int>> ref = referenceLiveIn(*fn);
            for (size_t b = 0; b < fn->blocks.size(); b++) {
                const std::vector<int>& got = live.liveIn(static_cast<int>(b));
                EXPECT_EQ(std::vector<int>(ref[b].begin(), ref[b].end()), got)
                    << fn->decl->name << " block " << b;
                blocks++;
            }
        }
    }
    EXPECT_GT(blocks, 500);
}

// ---------------------------------------------------------------------
// Reachability
// ---------------------------------------------------------------------

/** Nodes forward-reachable from @p from: a plain std::set DFS. */
std::set<const Node*>
naiveReachable(const Node* from)
{
    std::set<const Node*> seen;
    std::vector<const Node*> work{from};
    while (!work.empty()) {
        const Node* cur = work.back();
        work.pop_back();
        if (!seen.insert(cur).second)
            continue;
        for (const Use& u : cur->uses())
            if (!u.user->dead && !u.user->inputIsBackEdge(u.index))
                work.push_back(u.user);
    }
    return seen;
}

/**
 * Nodes orderedAfter @p from: a plain std::set DFS over token edges,
 * through combines and side effects only.
 */
std::set<const Node*>
naiveOrderedAfter(const Node* from)
{
    auto tokenUsers = [](const Node* n, std::vector<const Node*>& out) {
        for (const Use& u : n->uses()) {
            if (u.user->dead || u.user->inputIsBackEdge(u.index))
                continue;
            const PortRef& in = u.user->input(u.index);
            if (in.node == n && n->outputType(in.port) == VT::Token)
                out.push_back(u.user);
        }
    };
    std::vector<const Node*> work;
    tokenUsers(from, work);
    std::set<const Node*> seen;
    while (!work.empty()) {
        const Node* cur = work.back();
        work.pop_back();
        if (!seen.insert(cur).second)
            continue;
        if (cur->kind == NodeKind::Combine || cur->isMemoryAccess() ||
            cur->kind == NodeKind::Call)
            tokenUsers(cur, work);
    }
    return seen;
}

TEST(DenseAnalyses, ReachabilityMatchesNaiveDfs)
{
    int64_t pairs = 0, reached = 0, ordered = 0;
    for (const std::string& src : corpus()) {
        CompileResult r = compileSource(src, CompileOptions().jobs(1));
        for (const auto& g : r.graphs) {
            std::vector<Node*> nodes = g->liveNodes();
            Reachability reach(*g);
            // About 60 sources a graph, every target.
            const size_t stride = std::max<size_t>(1, nodes.size() / 60);
            for (size_t i = 0; i < nodes.size(); i += stride) {
                const Node* a = nodes[i];
                const std::set<const Node*> want = naiveReachable(a);
                const std::set<const Node*> after = naiveOrderedAfter(a);
                for (const Node* b : nodes) {
                    ASSERT_EQ(reach.reaches(a, b), want.count(b) != 0)
                        << g->name << " n" << a->id << " -> n" << b->id;
                    ASSERT_EQ(optutil::orderedAfter(a, b),
                              after.count(b) != 0)
                        << g->name << " n" << a->id << " -> n" << b->id;
                    pairs++;
                }
                reached += static_cast<int64_t>(want.size());
                ordered += static_cast<int64_t>(after.size());
            }
        }
    }
    EXPECT_GT(pairs, 50000);
    EXPECT_GT(reached, 0);
    EXPECT_GT(ordered, 0);
}

// ---------------------------------------------------------------------
// One ordering checker per graph
// ---------------------------------------------------------------------

TEST(DenseAnalyses, SharedCheckerMatchesOneCheckerPerRule)
{
    const std::vector<std::string> rules = {
        "ordering-soundness", "redundant-token-edge", "dead-token-sink"};
    int64_t findings = 0;
    for (OptLevel level : {OptLevel::None, OptLevel::Medium, OptLevel::Full})
        for (const std::string& src : corpus()) {
            CompileResult r =
                compileSource(src, CompileOptions().opt(level).jobs(1));
            InterprocModel model(r.graphPtrs(), r.cfg->paramLocation,
                                 *r.layout);
            LintContext ctx;
            ctx.oracle = &r.cfg->oracle;
            ctx.layout = r.layout.get();
            ctx.interproc = &model;
            // One runLints call: one checker per graph, shared by the
            // three rules.
            std::vector<std::string> shared;
            for (const LintFinding& f :
                 runLints(r.graphPtrs(), ctx, rules).findings)
                shared.push_back(f.str());
            // One call per (graph, rule): a checker of its own each.
            std::vector<std::string> separate;
            for (const Graph* g : r.graphPtrs())
                for (const std::string& rule : rules)
                    for (const LintFinding& f :
                         runLints({g}, ctx, {rule}).findings)
                        separate.push_back(f.str());
            EXPECT_EQ(shared, separate);
            findings += static_cast<int64_t>(shared.size());
        }
    // opt=none leaves redundant token edges for the rules to find.
    EXPECT_GT(findings, 0);
}

} // namespace
