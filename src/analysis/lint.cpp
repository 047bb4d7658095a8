#include "analysis/lint.h"

#include <algorithm>

#include "analysis/interproc.h"
#include "analysis/ordering_checker.h"
#include "pegasus/reachability.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace cash {

const char*
lintSeverityName(LintSeverity s)
{
    switch (s) {
      case LintSeverity::Info: return "info";
      case LintSeverity::Warn: return "warn";
      case LintSeverity::Error: return "error";
    }
    return "?";
}

std::string
LintFinding::str() const
{
    std::string s = std::string("[") + lintSeverityName(severity) +
                    "] " + rule + " in '" + func + "'";
    if (nodeA >= 0) {
        s += " n" + std::to_string(nodeA);
        if (nodeB >= 0)
            s += "/n" + std::to_string(nodeB);
    }
    if (!location.empty())
        s += " at " + location;
    return s + ": " + explanation;
}

std::string
LintFinding::json() const
{
    std::string s = std::string("{\"rule\": \"") + jsonEscape(rule) +
                    "\", \"severity\": \"" + lintSeverityName(severity) +
                    "\", \"function\": \"" + jsonEscape(func) +
                    "\", \"nodeA\": " + std::to_string(nodeA) +
                    ", \"nodeB\": " + std::to_string(nodeB) +
                    ", \"location\": \"" + jsonEscape(location) +
                    "\", \"explanation\": \"" + jsonEscape(explanation) +
                    "\"}";
    return s;
}

int64_t
LintReport::countSeverity(LintSeverity s) const
{
    int64_t n = 0;
    for (const LintFinding& f : findings)
        if (f.severity == s)
            n++;
    return n;
}

namespace {

std::string
nodeDesc(const Node* n)
{
    return std::string(nodeKindName(n->kind)) + " n" +
           std::to_string(n->id);
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/** The §4 invariant: conflicting memory ops stay token-ordered. */
class OrderingSoundnessRule : public LintRule
{
  public:
    const char* name() const override { return "ordering_soundness"; }
    LintSeverity severity() const override { return LintSeverity::Error; }
    const char*
    description() const override
    {
        return "conflicting memory operations must be ordered by a"
               " token path";
    }

    void
    run(const LintGraph& lg, const LintContext&,
        std::vector<LintFinding>& out) const override
    {
        lg.checker().check(out);
    }
};

/** Token edges already implied by the closure (missed §3.4). */
class RedundantTokenEdgeRule : public LintRule
{
  public:
    const char* name() const override { return "redundant_token_edge"; }
    LintSeverity severity() const override { return LintSeverity::Warn; }
    const char*
    description() const override
    {
        return "token edge implied by the transitive closure (missed"
               " transitive reduction)";
    }

    void
    run(const LintGraph& lg, const LintContext&,
        std::vector<LintFinding>& out) const override
    {
        const Graph& g = lg.graph();
        const OrderingChecker& checker = lg.checker();
        std::vector<const Node*> sources;
        for (const Node* n : checker.tokenNodes()) {
            if (n->tokenInIndex() < 0)
                continue;
            OrderingChecker::orderingSources(n, sources);
            if (sources.size() < 2)
                continue;
            for (const Node* u : sources) {
                const Node* via = nullptr;
                for (const Node* w : sources) {
                    // Forward-only reach: a loop-carried path does not
                    // make an intra-iteration edge redundant.
                    if (w != u && checker.tokenReachesForward(u, w)) {
                        via = w;
                        break;
                    }
                }
                if (!via)
                    continue;
                LintFinding f;
                f.rule = "redundant-token-edge";
                f.severity = LintSeverity::Warn;
                f.func = g.name;
                f.nodeA = u->id;
                f.nodeB = n->id;
                if (n->loc.valid())
                    f.location = n->loc.str();
                f.explanation =
                    "token edge " + nodeDesc(u) + " -> " + nodeDesc(n) +
                    " is redundant: " + nodeDesc(u) +
                    " already reaches " + nodeDesc(via) +
                    ", another token source of the same consumer";
                out.push_back(f);
            }
        }
    }
};

/** Token plumbing from which no side effect is reachable. */
class DeadTokenSinkRule : public LintRule
{
  public:
    const char* name() const override { return "dead_token_sink"; }
    LintSeverity severity() const override { return LintSeverity::Warn; }
    const char*
    description() const override
    {
        return "token chain feeding no side effect (starves silently"
               " in simulation)";
    }

    void
    run(const LintGraph& lg, const LintContext&,
        std::vector<LintFinding>& out) const override
    {
        const Graph& g = lg.graph();
        const OrderingChecker& checker = lg.checker();
        for (const Node* n : checker.tokenNodes()) {
            bool plumbing =
                n->kind == NodeKind::Combine ||
                n->kind == NodeKind::TokenGen ||
                ((n->kind == NodeKind::Merge ||
                  n->kind == NodeKind::Eta ||
                  n->kind == NodeKind::Const) &&
                 n->type == VT::Token);
            if (!plumbing)
                continue;
            if (checker.tokenReachesSideEffect(n))
                continue;
            LintFinding f;
            f.rule = "dead-token-sink";
            f.severity = LintSeverity::Warn;
            f.func = g.name;
            f.nodeA = n->id;
            if (n->loc.valid())
                f.location = n->loc.str();
            f.explanation =
                nodeDesc(n) + " carries tokens that can never order a"
                " side effect; the chain is dead weight (or a starved"
                " remnant of a broken rewrite)";
            out.push_back(f);
        }
    }
};

/** `#pragma independent` claims the access sets contradict. */
class UnprovablePragmaRule : public LintRule
{
  public:
    const char* name() const override { return "unprovable_pragma"; }
    LintSeverity severity() const override { return LintSeverity::Warn; }
    const char*
    description() const override
    {
        return "#pragma independent asserts independence the points-to"
               " analysis cannot support";
    }

    void
    run(const LintGraph& lg, const LintContext& ctx,
        std::vector<LintFinding>& out) const override
    {
        const Graph& g = lg.graph();
        if (!ctx.oracle)
            return;
        for (const auto& [a, b] : ctx.oracle->independentPairs()) {
            for (const Node* n : g.liveNodes()) {
                if (!n->isMemoryAccess() || n->rwSet.isTop())
                    continue;
                if (!n->rwSet.contains(a) || !n->rwSet.contains(b))
                    continue;
                LintFinding f;
                f.rule = "unprovable-pragma";
                f.severity = LintSeverity::Warn;
                f.func = g.name;
                f.nodeA = n->id;
                if (n->loc.valid())
                    f.location = n->loc.str();
                if (a == b)
                    f.explanation =
                        "#pragma independent declares location " +
                        std::to_string(a) +
                        " independent of itself; " + nodeDesc(n) +
                        " touches it — the pragma is unsound and"
                        " disambiguation built on it is unsafe";
                else
                    f.explanation =
                        "#pragma independent separates locations " +
                        std::to_string(a) + " and " + std::to_string(b) +
                        ", but " + nodeDesc(n) + " (rw " +
                        n->rwSet.str() +
                        ") may touch both — the independence claim is"
                        " not provable from the points-to facts";
                out.push_back(f);
            }
        }
    }
};

/** Equivalent memory ops the §5.1 merger could still combine. */
class MergeableResidueRule : public LintRule
{
  public:
    const char* name() const override { return "mergeable_residue"; }
    LintSeverity severity() const override { return LintSeverity::Info; }
    const char*
    description() const override
    {
        return "equivalent memory operations left unmerged after"
               " redundancy elimination";
    }

    void
    run(const LintGraph& lg, const LintContext&,
        std::vector<LintFinding>& out) const override
    {
        const Graph& g = lg.graph();
        std::vector<const Node*> ops;
        for (const Node* n : g.liveNodes()) {
            // Full arity only: a malformed access (e.g. a corrupted
            // token input) is ordering-soundness's problem, not ours.
            int want = n->kind == NodeKind::Load ? 3 : 4;
            if (n->isMemoryAccess() && n->numInputs() == want)
                ops.push_back(n);
        }
        Reachability reach(g);
        std::vector<const Node*> sourcesA, sourcesB;
        for (size_t i = 0; i < ops.size(); i++) {
            for (size_t j = i + 1; j < ops.size(); j++) {
                const Node* a = ops[i];
                const Node* b = ops[j];
                if (a->kind != b->kind ||
                    a->hyperblock != b->hyperblock ||
                    a->size != b->size ||
                    a->signExtend != b->signExtend ||
                    !(a->input(2) == b->input(2)))
                    continue;
                OrderingChecker::orderingSources(a, sourcesA);
                OrderingChecker::orderingSources(b, sourcesB);
                if (sourcesA != sourcesB)
                    continue;
                // Same cycle guard the merger applies: a pair it
                // would refuse to merge is not residue.
                if (reach.reaches(b, a->input(0).node) ||
                    reach.reaches(a, b->input(0).node))
                    continue;
                if (a->kind == NodeKind::Store &&
                    (reach.reaches(b, a->input(3).node) ||
                     reach.reaches(a, b->input(3).node)))
                    continue;
                LintFinding f;
                f.rule = "mergeable-residue";
                f.severity = LintSeverity::Info;
                f.func = g.name;
                f.nodeA = a->id;
                f.nodeB = b->id;
                if (a->loc.valid())
                    f.location = a->loc.str();
                f.explanation =
                    nodeDesc(a) + " and " + nodeDesc(b) +
                    " access the same address with the same width and"
                    " token sources; memory_merge (§5.1) could combine"
                    " them";
                out.push_back(f);
            }
        }
    }
};

/** True when every location of @p a is covered by @p b. */
bool
subsetOf(const LocationSet& a, const LocationSet& b)
{
    if (b.isTop())
        return true;
    if (a.isTop())
        return false;
    for (int loc : a.locations())
        if (!b.contains(loc))
            return false;
    return true;
}

/**
 * Effect sets of one side effect for the interprocedural rules: calls
 * resolve through the independent model, memory accesses keep their
 * construction sets.  Returns false for kinds the rules skip (Return,
 * plumbing) and for unbounded sets.
 */
bool
interprocEffects(const Graph& g, const Node* n,
                 const InterprocModel& model, LocationSet* reads,
                 LocationSet* writes)
{
    switch (n->kind) {
      case NodeKind::Load:
        if (n->rwSet.isTop())
            return false;
        *reads = n->rwSet;
        return true;
      case NodeKind::Store:
        if (n->rwSet.isTop())
            return false;
        *writes = n->rwSet;
        return true;
      case NodeKind::Call: {
        LocationSet r = model.callReadSet(g, n);
        LocationSet w = model.callWriteSet(g, n);
        if (r.isTop() || w.isTop())
            return false;
        *reads = std::move(r);
        *writes = std::move(w);
        return true;
      }
      default:
        return false;
    }
}

/**
 * A direct cross-call token edge whose endpoint effects the
 * independent model proves disjoint: `interproc_token_pruning` would
 * remove it, but the pass was off (ipo=off / below opt=full) or could
 * not prove it from its own summaries.
 */
class PrunableCallEdgeRule : public LintRule
{
  public:
    const char* name() const override { return "prunable_call_edge"; }
    LintSeverity severity() const override { return LintSeverity::Info; }
    const char*
    description() const override
    {
        return "cross-call token edge between provably disjoint side"
               " effects (interproc_token_pruning would drop it)";
    }

    void
    run(const LintGraph& lg, const LintContext& ctx,
        std::vector<LintFinding>& out) const override
    {
        const Graph& g = lg.graph();
        if (!ctx.oracle || !ctx.interproc)
            return;
        std::vector<const Node*> sources;
        for (const Node* n : g.liveNodes()) {
            if (n->kind != NodeKind::Load &&
                n->kind != NodeKind::Store &&
                n->kind != NodeKind::Call)
                continue;
            LocationSet rn, wn;
            if (!interprocEffects(g, n, *ctx.interproc, &rn, &wn))
                continue;
            OrderingChecker::orderingSources(n, sources);
            for (const Node* j : sources) {
                if (n->kind != NodeKind::Call &&
                    j->kind != NodeKind::Call)
                    continue;  // intraprocedural pairs: token_removal
                LocationSet rj, wj;
                if (!interprocEffects(g, j, *ctx.interproc, &rj, &wj))
                    continue;
                if (ctx.oracle->mayOverlap(wn, rj) ||
                    ctx.oracle->mayOverlap(wj, rn) ||
                    ctx.oracle->mayOverlap(wn, wj))
                    continue;
                LintFinding f;
                f.rule = "prunable-call-edge";
                f.severity = LintSeverity::Info;
                f.func = g.name;
                f.nodeA = j->id;
                f.nodeB = n->id;
                if (n->loc.valid())
                    f.location = n->loc.str();
                f.explanation =
                    "token edge " + nodeDesc(j) + " -> " + nodeDesc(n) +
                    " orders side effects with disjoint interprocedural"
                    " effect sets; interproc_token_pruning would remove"
                    " it (kept: pruning disabled at this level, or the"
                    " optimizer's own summaries could not prove the"
                    " disjointness)";
                out.push_back(f);
            }
        }
    }
};

/**
 * The optimizer's stamped per-call-site effects must cover everything
 * the independent rederivation believes possible — a stamp that claims
 * *less* means the pruning pass may have dropped a required edge.
 */
class SummaryDivergenceRule : public LintRule
{
  public:
    const char* name() const override { return "summary_divergence"; }
    LintSeverity severity() const override { return LintSeverity::Error; }
    const char*
    description() const override
    {
        return "optimizer call-effect stamps disagree with the"
               " independent interprocedural rederivation";
    }

    void
    run(const LintGraph& lg, const LintContext& ctx,
        std::vector<LintFinding>& out) const override
    {
        const Graph& g = lg.graph();
        if (!ctx.interproc)
            return;
        for (const Node* n : g.liveNodes()) {
            if (n->kind != NodeKind::Call || !n->callEffectsValid)
                continue;
            LocationSet reads = ctx.interproc->callReadSet(g, n);
            LocationSet writes = ctx.interproc->callWriteSet(g, n);
            std::string problem;
            if (!subsetOf(reads, n->callReads))
                problem = "rederived read set " + reads.str() +
                          " is not covered by the stamped " +
                          n->callReads.str();
            else if (!subsetOf(writes, n->callWrites))
                problem = "rederived write set " + writes.str() +
                          " is not covered by the stamped " +
                          n->callWrites.str();
            if (problem.empty())
                continue;
            LintFinding f;
            f.rule = "summary-divergence";
            f.severity = LintSeverity::Error;
            f.func = g.name;
            f.nodeA = n->id;
            if (n->loc.valid())
                f.location = n->loc.str();
            f.explanation =
                nodeDesc(n) + " (" +
                (n->callee ? n->callee->name : std::string("?")) +
                "): " + problem +
                "; every optimization that consumed the stamp is"
                " suspect";
            out.push_back(f);
        }
    }
};

} // namespace

// ---------------------------------------------------------------------
// LintGraph
// ---------------------------------------------------------------------

LintGraph::LintGraph(const Graph& g, const LintContext& ctx)
    : g_(g), ctx_(ctx)
{
}

LintGraph::~LintGraph() = default;

OrderingChecker&
LintGraph::checker() const
{
    if (!checker_)
        checker_ = std::make_unique<OrderingChecker>(
            g_, ctx_.oracle, ctx_.layout, ctx_.interproc);
    return *checker_;
}

// ---------------------------------------------------------------------
// LintRegistry
// ---------------------------------------------------------------------

LintRegistry&
LintRegistry::global()
{
    static LintRegistry* registry = [] {
        auto* r = new LintRegistry();
        r->registerRule("ordering_soundness", [] {
            return std::unique_ptr<LintRule>(new OrderingSoundnessRule());
        });
        r->registerRule("redundant_token_edge", [] {
            return std::unique_ptr<LintRule>(new RedundantTokenEdgeRule());
        });
        r->registerRule("dead_token_sink", [] {
            return std::unique_ptr<LintRule>(new DeadTokenSinkRule());
        });
        r->registerRule("unprovable_pragma", [] {
            return std::unique_ptr<LintRule>(new UnprovablePragmaRule());
        });
        r->registerRule("mergeable_residue", [] {
            return std::unique_ptr<LintRule>(new MergeableResidueRule());
        });
        r->registerRule("summary_divergence", [] {
            return std::unique_ptr<LintRule>(new SummaryDivergenceRule());
        });
        r->registerRule("prunable_call_edge", [] {
            return std::unique_ptr<LintRule>(new PrunableCallEdgeRule());
        });
        return r;
    }();
    return *registry;
}

void
LintRegistry::registerRule(const std::string& name, Factory factory)
{
    std::lock_guard<std::mutex> lock(mu_);
    factories_[registryKey(name)] = std::move(factory);
}

bool
LintRegistry::has(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return factories_.count(registryKey(name)) != 0;
}

std::vector<std::string>
LintRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [k, _] : factories_)
        out.push_back(k);
    return out;
}

std::unique_ptr<LintRule>
LintRegistry::create(const std::string& name) const
{
    Factory factory;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = factories_.find(registryKey(name));
        if (it != factories_.end())
            factory = it->second;
    }
    if (!factory)
        fatal("unknown lint rule '" + name + "' (available: " +
              join(names(), ", ") + ")");
    return factory();
}

std::vector<std::string>
standardLintNames()
{
    return {"ordering-soundness", "redundant-token-edge",
            "dead-token-sink", "unprovable-pragma",
            "mergeable-residue", "summary-divergence",
            "prunable-call-edge"};
}

LintReport
runLints(const std::vector<const Graph*>& graphs,
         const LintContext& ctx,
         const std::vector<std::string>& ruleNames)
{
    const std::vector<std::string>& names =
        ruleNames.empty() ? standardLintNames() : ruleNames;
    std::vector<std::unique_ptr<LintRule>> rules;
    rules.reserve(names.size());
    for (const std::string& n : names)
        rules.push_back(LintRegistry::global().create(n));

    LintReport report;
    for (const Graph* g : graphs) {
        LintGraph lg(*g, ctx);
        for (size_t ri = 0; ri < rules.size(); ri++) {
            ScopedTimer span(ctx.tracer,
                             std::string("lint ") + rules[ri]->name(),
                             "analysis");
            size_t before = report.findings.size();
            rules[ri]->run(lg, ctx, report.findings);
            int64_t found =
                static_cast<int64_t>(report.findings.size() - before);
            if (ctx.stats && found)
                ctx.stats->add(
                    std::string("analysis.") + rules[ri]->name() +
                        ".count",
                    found);
            span.arg("graph", g->name);
            span.arg("rule", rules[ri]->name());
            span.arg("findings", found);
        }
    }
    if (ctx.stats) {
        ctx.stats->add("analysis.findings",
                       static_cast<int64_t>(report.findings.size()));
        ctx.stats->add("analysis.errors", report.errors());
        ctx.stats->add("analysis.warnings", report.warnings());
        ctx.stats->add("analysis.infos", report.infos());
    }
    return report;
}

} // namespace cash
