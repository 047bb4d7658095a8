// The pass manager's undo journal: a rolled-back pass leaves the graph
// exactly as it found it (every slot, field, edge and use-list order),
// node ids stay unique, and any exception a pass throws is isolated.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchsuite/kernels.h"
#include "opt/pass.h"
#include "pegasus/verifier.h"
#include "support/fault_injection.h"
#include "test_util.h"

using namespace cash;

namespace {

std::string
portStr(const PortRef& p)
{
    if (!p.valid())
        return "-";
    return std::string("n")
        .append(std::to_string(p.node->id))
        .append(".")
        .append(std::to_string(p.port));
}

std::string
nodeId(const Node* n)
{
    return n ? std::to_string(n->id) : "null";
}

/**
 * Per-slot structural dump: every public field, the inputs with their
 * back-edge flags, the use list in order, the slot's address, and the
 * graph's distinguished nodes.  Two dumps of one graph are equal only
 * if nothing observable changed between them.
 */
std::string
dumpGraph(const Graph& g)
{
    std::ostringstream os;
    os << "graph " << g.name << " params=" << g.numParams
       << " frame=" << g.hasFrame << "/" << g.frameBytes
       << " partitions=" << g.numPartitions << " hbs=" << g.hyperblocks.size()
       << " slots=" << g.size() << " idLimit=" << g.idLimit() << "\n";
    for (size_t i = 0; i < g.size(); i++) {
        const Node* n = g.node(i);
        os << "[" << i << "] @" << static_cast<const void*>(n) << " id="
           << n->id << " kind=" << nodeKindName(n->kind)
           << " op=" << static_cast<int>(n->op) << " type=" << vtName(n->type)
           << " const=" << n->constValue << " param=" << n->paramIndex
           << " hb=" << n->hyperblock << " size=" << n->size
           << " sext=" << n->signExtend << " rw=" << n->rwSet.str()
           << " part=" << n->partition << " mem=" << n->memId
           << " callee=" << static_cast<const void*>(n->callee)
           << " reads=" << n->callReads.str()
           << " writes=" << n->callWrites.str()
           << " effects=" << n->callEffectsValid << " tk=" << n->tkCount
           << " decider=" << n->deciderIndex << " loc=" << n->loc.line << ":"
           << n->loc.column << " dead=" << n->dead
           << " fwd=" << n->storeForwarded << " hoisted=" << n->hoisted
           << "\n  in:";
        for (int k = 0; k < n->numInputs(); k++)
            os << " " << portStr(n->input(k))
               << (n->inputIsBackEdge(k) ? "^" : "");
        os << "\n  uses:";
        for (const Use& u : n->uses())
            os << " n" << nodeId(u.user) << "#" << u.index;
        os << "\n";
    }
    os << "paramNodes:";
    for (const Node* p : g.paramNodes)
        os << " " << nodeId(p);
    os << "\ninitialToken: " << nodeId(g.initialToken) << "\nreturns:";
    for (const Node* r : g.returnNodes)
        os << " " << nodeId(r);
    os << "\nringMerge:";
    for (const auto& [key, m] : g.ringMerge)
        os << " (" << key.first << "," << key.second << ")=" << nodeId(m);
    os << "\n";
    return os.str();
}

/**
 * Delegates to a real pass and, given a slot, dumps the graph into it
 * on its first run (round 1).  Keeps the inner pass's name, so fault
 * specs and counters address the wrapped pass unchanged.
 */
class RecordingPass : public Pass
{
  public:
    RecordingPass(std::unique_ptr<Pass> inner, std::string* firstDump)
        : inner_(std::move(inner)), firstDump_(firstDump)
    {
    }
    const char* name() const override { return inner_->name(); }
    bool
    run(Graph& g, OptContext& ctx) override
    {
        if (!ran_ && firstDump_)
            *firstDump_ = dumpGraph(g);
        ran_ = true;
        return inner_->run(g, ctx);
    }

  private:
    std::unique_ptr<Pass> inner_;
    std::string* firstDump_;
    bool ran_ = false;
};

class NoopPass : public Pass
{
  public:
    const char* name() const override { return "journal_test_noop"; }
    bool run(Graph&, OptContext&) override { return false; }
};

/** Compile @p source leaving its graphs unoptimized. */
CompileResult
compileUnoptimized(const std::string& source)
{
    PassRegistry::global().registerPass(
        "journal_test_noop", [] { return std::make_unique<NoopPass>(); });
    return compileSource(source,
                         CompileOptions().passes({"journal_test_noop"}));
}

/** An isolating, verifying context over @p r's analyses. */
OptContext
isolatingContext(const CompileResult& r, StatSet* stats,
                 std::vector<PassFailure>* failures)
{
    OptContext ctx;
    ctx.oracle = &r.cfg->oracle;
    ctx.layout = r.layout.get();
    ctx.stats = stats;
    ctx.verifyAfterEachPass = true;
    ctx.isolatePasses = true;
    ctx.failures = failures;
    return ctx;
}

TEST(PassJournal, CorruptedPassRollsBackExactlyOnEveryKernel)
{
    const std::vector<std::string> full =
        standardPipelineNames(OptLevel::Full);
    std::set<std::string> names(full.begin(), full.end());

    // A pass that writes a node field without touch() fails here as
    // soon as it rewrites anything in round 1 of some kernel.
    for (const Kernel& k : kernelSuite()) {
        for (const std::string& pass : names) {
            CompileResult r = compileUnoptimized(k.source);
            ASSERT_TRUE(r.ok()) << k.name;
            FaultPlan plan = FaultPlan::parse(
                "graph.corrupt-token:pass=" + pass + ",round=1");
            for (const auto& g : r.graphs) {
                // dumps[i] is the graph entry i first saw, recorded
                // around the faulted entries; the trailing no-op entry
                // sees what the last real entry left.
                std::vector<std::string> dumps(full.size() + 1);
                auto slot = [&](size_t i) -> std::string* {
                    bool around = (i < full.size() && full[i] == pass) ||
                                  (i > 0 && full[i - 1] == pass);
                    return around ? &dumps[i] : nullptr;
                };
                std::vector<std::unique_ptr<Pass>> pipeline;
                for (size_t i = 0; i < full.size(); i++)
                    pipeline.push_back(std::make_unique<RecordingPass>(
                        PassRegistry::global().create(full[i]), slot(i)));
                pipeline.push_back(std::make_unique<RecordingPass>(
                    std::make_unique<NoopPass>(), slot(full.size())));

                StatSet stats;
                std::vector<PassFailure> failures;
                OptContext ctx = isolatingContext(r, &stats, &failures);
                ctx.faults = &plan;
                optimizeGraph(*g, pipeline, ctx);

                int entries = 0;
                for (size_t i = 0; i < full.size(); i++) {
                    if (full[i] != pass)
                        continue;
                    entries++;
                    EXPECT_EQ(dumps[i], dumps[i + 1])
                        << k.name << "/" << g->name << ": '" << pass
                        << "' (pipeline entry " << i
                        << ") was not rolled back exactly";
                }
                EXPECT_EQ(stats.get("opt.rollbacks"), entries)
                    << k.name << "/" << g->name << "/" << pass;
                EXPECT_EQ(static_cast<int>(failures.size()), entries);
                EXPECT_TRUE(verifyGraph(*g).empty())
                    << k.name << "/" << g->name << "/" << pass;
            }
        }
    }
}

/**
 * A deliberately destructive pass: it exercises every journaled
 * mutator on pre-existing nodes, creates nodes, writes fields under
 * touch(), and then fails in the way @p how names.
 */
class WreckingPass : public Pass
{
  public:
    explicit WreckingPass(std::string how, std::string* wreckedDump)
        : how_(std::move(how)), wreckedDump_(wreckedDump)
    {
    }
    const char* name() const override { return "journal_test_wreck"; }

    bool
    run(Graph& g, OptContext&) override
    {
        Node* merge = nullptr;  // a mu-merge: removeDecider
        Node* pair = nullptr;   // a 2-input arith: removeInput
        Node* sink = nullptr;   // a return (never used): erase
        Node* load = nullptr;   // touched field writes
        Node* word = nullptr;   // a producer of a word value
        for (Node* n : g.liveNodes()) {
            if (!merge && n->kind == NodeKind::Merge && n->deciderIndex >= 0)
                merge = n;
            if (!pair && n->kind == NodeKind::Arith && n->numInputs() == 2)
                pair = n;
            if (!sink && n->kind == NodeKind::Return && n->uses().empty())
                sink = n;
            if (!load && n->kind == NodeKind::Load)
                load = n;
            if (!word && n->kind == NodeKind::Arith)
                word = n;
        }
        if (!merge || !pair || !sink || !load || !word)
            return false;

        Node* c = g.newConst(42, VT::Word, word->hyperblock);
        Node* add = g.newArith(Op::Add, {c, 0}, {word, 0}, word->hyperblock);
        g.replaceAllUses({word, 0}, {add, 0});
        g.setInput(add, 1, {word, 0});  // keep `add` acyclic
        g.removeDecider(merge);
        g.removeInput(pair, 0);
        g.erase(sink);
        g.touch(load);
        load->storeForwarded = !load->storeForwarded;
        load->rwSet = LocationSet::top();
        load->memId = 12345;
        *wreckedDump_ = dumpGraph(g);

        if (how_ == "out_of_range")
            (void)pair->input(99);  // std::out_of_range from .at()
        if (how_ == "fatal")
            fatal("wrecking pass gave up");
        if (how_ == "logic")
            throw std::logic_error("wrecking pass logic error");
        return true;
    }

  private:
    std::string how_;
    std::string* wreckedDump_;
};

TEST(PassJournal, ThrowingPassRollsBackEveryMutator)
{
    int wrecked = 0;
    for (const char* how : {"out_of_range", "fatal", "logic"}) {
        for (const Kernel& k : kernelSuite()) {
            CompileResult r = compileUnoptimized(k.source);
            for (const auto& g : r.graphs) {
                std::string before, wreck, after;
                std::vector<std::unique_ptr<Pass>> pipeline;
                pipeline.push_back(std::make_unique<RecordingPass>(
                    std::make_unique<NoopPass>(), &before));
                pipeline.push_back(
                    std::make_unique<WreckingPass>(how, &wreck));
                pipeline.push_back(std::make_unique<RecordingPass>(
                    std::make_unique<NoopPass>(), &after));

                StatSet stats;
                std::vector<PassFailure> failures;
                OptContext ctx = isolatingContext(r, &stats, &failures);
                optimizeGraph(*g, pipeline, ctx);
                if (wreck.empty())
                    continue;  // no site for every mutator in this graph
                wrecked++;

                EXPECT_NE(wreck, before) << how;
                EXPECT_EQ(after, before)
                    << how << " " << k.name << "/" << g->name;
                EXPECT_EQ(stats.get("opt.rollbacks"), 1);
                ASSERT_EQ(failures.size(), 1u);
                EXPECT_EQ(failures[0].pass, "journal_test_wreck");
                EXPECT_EQ(failures[0].round, 1);
                EXPECT_EQ(static_cast<int>(failures[0].code),
                          static_cast<int>(ErrorCode::PassError));
                EXPECT_TRUE(verifyGraph(*g).empty());
            }
        }
    }
    EXPECT_GT(wrecked, 0) << "no kernel graph had a site for every mutator";
}

TEST(PassJournal, StrictModeRaisesAfterRollingBack)
{
    bool sawWreck = false;
    for (const Kernel& kk : kernelSuite()) {
        CompileResult r = compileUnoptimized(kk.source);
        for (const auto& g : r.graphs) {
            std::string wreck;
            std::vector<std::unique_ptr<Pass>> pipeline;
            pipeline.push_back(
                std::make_unique<WreckingPass>("out_of_range", &wreck));
            const std::string before = dumpGraph(*g);
            OptContext ctx;
            ctx.oracle = &r.cfg->oracle;
            ctx.layout = r.layout.get();
            ctx.verifyAfterEachPass = true;
            ctx.isolatePasses = false;
            bool threw = false;
            try {
                optimizeGraph(*g, pipeline, ctx);
            } catch (const FatalError& e) {
                threw = true;
                EXPECT_NE(std::string(e.what()).find("journal_test_wreck"),
                          std::string::npos);
            }
            if (wreck.empty()) {
                EXPECT_FALSE(threw);
                continue;
            }
            sawWreck = true;
            // The std::out_of_range became a FatalError, and the scope
            // guard restored the graph on the way out.
            EXPECT_TRUE(threw) << kk.name;
            EXPECT_FALSE(g->journalOpen());
            EXPECT_EQ(dumpGraph(*g), before) << kk.name << "/" << g->name;
        }
        if (sawWreck)
            break;
    }
    EXPECT_TRUE(sawWreck);
}

TEST(PassJournal, IdsStayUniqueAcrossCompact)
{
    Graph g;
    g.name = "ids";
    Node* a = g.newConst(1, VT::Word, 0);
    Node* b = g.newConst(2, VT::Word, 0);
    Node* c = g.newConst(3, VT::Word, 0);
    Node* d = g.newArith(Op::Add, {a, 0}, {c, 0}, 0);
    g.erase(b);
    g.compact();
    ASSERT_EQ(g.size(), 3u);
    // Slot count is now 3, but id 3 belongs to the live `d`.
    Node* e = g.newConst(4, VT::Word, 0);
    EXPECT_EQ(e->id, 4);
    std::set<int> ids;
    for (Node* n : g.liveNodes())
        EXPECT_TRUE(ids.insert(n->id).second) << "duplicate id " << n->id;
    EXPECT_EQ(d->id, 3);
    EXPECT_EQ(g.idLimit(), 5);
    EXPECT_TRUE(verifyGraph(g).empty());

    // A rollback returns the id counter with the slots.
    g.beginJournal();
    EXPECT_EQ(g.newConst(5, VT::Word, 0)->id, 5);
    g.rollbackJournal();
    EXPECT_EQ(g.idLimit(), 5);
    EXPECT_EQ(g.newConst(5, VT::Word, 0)->id, 5);
}

TEST(PassJournal, TouchedTracksRealChangesOnly)
{
    Graph g;
    g.name = "touch";
    Node* a = g.newConst(1, VT::Word, 0);
    Node* b = g.newConst(2, VT::Word, 0);
    Node* add = g.newArith(Op::Add, {a, 0}, {b, 0}, 0);

    g.beginJournal();
    EXPECT_FALSE(g.journalTouched());
    g.setInput(add, 0, {a, 0});  // no-op rewrite
    EXPECT_FALSE(g.journalTouched());
    g.setInput(add, 0, {b, 0});  // add, a and b change
    EXPECT_TRUE(g.journalTouched());
    EXPECT_EQ(g.journalSavedNodes(), 3u);
    g.setInput(add, 1, {a, 0});  // each node is saved once
    EXPECT_EQ(g.journalSavedNodes(), 3u);
    g.commitJournal();
    EXPECT_EQ(add->input(0).node, b);
    EXPECT_EQ(add->input(1).node, a);

    g.beginJournal();
    g.newConst(3, VT::Word, 0);  // new nodes are marked, not saved
    EXPECT_TRUE(g.journalTouched());
    EXPECT_EQ(g.journalSavedNodes(), 0u);
    g.rollbackJournal();
    EXPECT_EQ(g.size(), 3u);
}

TEST(PassJournal, UntouchedRunsSkipVerification)
{
    CompileResult r = compileSource(
        "int a[16]; int f(int n) { int s = 0; int i;"
        " for (i = 0; i < n; i++) s += a[i & 15]; return s; }");
    ASSERT_TRUE(r.ok());
    int64_t runs = 0;
    for (const auto& [k, v] : r.stats.all())
        if (k.rfind("opt.pass.", 0) == 0 &&
            k.compare(k.size() - 5, 5, ".runs") == 0)
            runs += v;
    const int64_t verifies = r.stats.get("opt.verify.runs");
    // The first run always verifies; most later runs change nothing.
    EXPECT_GT(verifies, 0);
    EXPECT_LT(verifies, runs);
    EXPECT_GT(r.stats.get("opt.journal.nodes_saved"), 0);

    CompileResult nv = compileSource(
        "int f(int n) { return n + 1; }", CompileOptions().verification(false));
    EXPECT_TRUE(nv.stats.has("opt.verify.runs"));
    EXPECT_EQ(nv.stats.get("opt.verify.runs"), 0);
}

/** The recursive cycle search verifyGraph() used to run, for reference. */
std::vector<std::string>
referenceCycleProblems(const Graph& g)
{
    std::vector<std::string> problems;
    std::map<const Node*, int> state;
    bool cyclic = false;
    std::function<void(const Node*)> dfs = [&](const Node* n) {
        if (cyclic)
            return;
        state[n] = 1;
        for (int i = 0; i < n->numInputs(); i++) {
            if (n->inputIsBackEdge(i))
                continue;
            const Node* in = n->input(i).node;
            if (!in || in->dead)
                continue;
            int s = state[in];
            if (s == 1) {
                cyclic = true;
                problems.push_back("cycle through " + in->str());
                return;
            }
            if (s == 0)
                dfs(in);
        }
        state[n] = 2;
    };
    g.forEach([&](Node* n) {
        if (!cyclic && state[n] == 0)
            dfs(n);
    });
    return problems;
}

TEST(PassJournal, IterativeCycleSearchMatchesRecursion)
{
    // Several interlocked cycles: the unwinding reports every open
    // node an ancestor still reads, in the recursion's order.
    for (int shape = 0; shape < 4; shape++) {
        Graph g;
        g.name = "cyc";
        std::vector<Node*> n;
        for (int i = 0; i < 8; i++)
            n.push_back(g.newNode(NodeKind::Combine, VT::Token, 0));
        auto edge = [&](int to, int from) { g.addInput(n[to], {n[from], 0}); };
        edge(0, 1);
        edge(1, 2);
        edge(2, 0);
        edge(1, 0);
        edge(0, 3);
        edge(3, 4);
        if (shape & 1) {
            edge(4, 1);
            edge(4, 3);
        }
        if (shape & 2) {
            edge(5, 6);
            edge(6, 5);
            edge(7, 7);
        }
        std::vector<std::string> cycles;
        for (const std::string& p : verifyGraph(g))
            if (p.rfind("cycle through", 0) == 0)
                cycles.push_back(p);
        EXPECT_EQ(cycles, referenceCycleProblems(g)) << "shape " << shape;
        EXPECT_FALSE(cycles.empty());
    }
}

} // namespace
