#include "pegasus/verifier.h"

#include <cstdint>

#include "support/diagnostics.h"

namespace cash {

namespace {

void
expectInput(const Node* n, int idx, VT vt,
            std::vector<std::string>& problems)
{
    if (idx >= n->numInputs()) {
        problems.push_back(n->str() + ": missing input " +
                           std::to_string(idx));
        return;
    }
    const PortRef& in = n->input(idx);
    if (!in.valid()) {
        problems.push_back(n->str() + ": invalid input " +
                           std::to_string(idx));
        return;
    }
    if (in.node->dead) {
        problems.push_back(n->str() + ": input " + std::to_string(idx) +
                           " from dead node");
        return;
    }
    if (in.port >= in.node->numOutputs()) {
        problems.push_back(n->str() + ": input " + std::to_string(idx) +
                           " reads nonexistent port");
        return;
    }
    VT got = in.node->outputType(in.port);
    // Word and Pred interconvert freely in practice (0/1 values); only
    // token/value mismatches are hard errors.
    bool ok = (got == vt) ||
              (got != VT::Token && vt != VT::Token);
    if (!ok) {
        problems.push_back(n->str() + ": input " + std::to_string(idx) +
                           " has type " + vtName(got) + ", expected " +
                           vtName(vt));
    }
}

/** Append the problems of live node @p n to @p problems. */
void
checkNode(const Node* n, std::vector<std::string>& problems)
{
    switch (n->kind) {
      case NodeKind::Const:
      case NodeKind::Param:
      case NodeKind::InitialToken:
        if (n->numInputs() != 0)
            problems.push_back(n->str() + ": source with inputs");
        break;
      case NodeKind::Arith: {
        int want = opIsUnary(n->op) ? 1 : 2;
        if (n->op == Op::Copy)
            want = 1;
        if (n->numInputs() != want) {
            problems.push_back(n->str() + ": arith arity");
        } else {
            for (int i = 0; i < want; i++)
                expectInput(n, i, VT::Word, problems);
        }
        break;
      }
      case NodeKind::Mux:
        if (n->numInputs() < 2 || n->numInputs() % 2 != 0) {
            problems.push_back(n->str() + ": mux arity");
        } else {
            for (int i = 0; i < n->numInputs(); i += 2) {
                expectInput(n, i, VT::Pred, problems);
                expectInput(n, i + 1, n->type, problems);
            }
        }
        break;
      case NodeKind::Merge: {
        // Zero-input merges are legal: they belong to unreachable
        // hyperblocks (e.g. past an infinite loop) and never fire;
        // dead-code elimination replaces them with constants.
        for (int i = 0; i < n->numInputs(); i++)
            expectInput(n, i,
                        i == n->deciderIndex ? VT::Pred : n->type,
                        problems);
        if (n->deciderIndex >= 0 &&
            n->deciderIndex != n->numInputs() - 1)
            problems.push_back(n->str() + ": decider not last");
        bool hasBack = false;
        for (int i = 0; i < n->numInputs(); i++)
            if (i != n->deciderIndex && n->inputIsBackEdge(i))
                hasBack = true;
        if (hasBack && n->deciderIndex < 0)
            problems.push_back(n->str() +
                               ": back-edge merge without decider");
        break;
      }
      case NodeKind::Eta:
        if (n->numInputs() != 2) {
            problems.push_back(n->str() + ": eta arity");
        } else {
            expectInput(n, 0, n->type, problems);
            expectInput(n, 1, VT::Pred, problems);
        }
        break;
      case NodeKind::Combine:
        if (n->numInputs() < 1)
            problems.push_back(n->str() + ": empty combine");
        for (int i = 0; i < n->numInputs(); i++)
            expectInput(n, i, VT::Token, problems);
        break;
      case NodeKind::Load:
        if (n->numInputs() != 3) {
            problems.push_back(n->str() + ": load arity");
        } else {
            expectInput(n, 0, VT::Pred, problems);
            expectInput(n, 1, VT::Token, problems);
            expectInput(n, 2, VT::Word, problems);
        }
        break;
      case NodeKind::Store:
        if (n->numInputs() != 4) {
            problems.push_back(n->str() + ": store arity");
        } else {
            expectInput(n, 0, VT::Pred, problems);
            expectInput(n, 1, VT::Token, problems);
            expectInput(n, 2, VT::Word, problems);
            expectInput(n, 3, VT::Word, problems);
        }
        break;
      case NodeKind::Call:
        if (n->numInputs() < 2) {
            problems.push_back(n->str() + ": call arity");
        } else {
            expectInput(n, 0, VT::Pred, problems);
            expectInput(n, 1, VT::Token, problems);
            for (int i = 2; i < n->numInputs(); i++)
                expectInput(n, i, VT::Word, problems);
        }
        break;
      case NodeKind::Return:
        if (n->numInputs() < 2 || n->numInputs() > 3) {
            problems.push_back(n->str() + ": return arity");
        } else {
            expectInput(n, 0, VT::Pred, problems);
            expectInput(n, 1, VT::Token, problems);
            if (n->numInputs() == 3)
                expectInput(n, 2, VT::Word, problems);
        }
        break;
      case NodeKind::TokenGen:
        if (n->numInputs() != 2) {
            problems.push_back(n->str() + ": tokengen arity");
        } else {
            expectInput(n, 0, VT::Pred, problems);
            expectInput(n, 1, VT::Token, problems);
        }
        break;
    }

    // Token values may only be produced by the plumbing §3.2
    // defines: side effects, combines, ring merges/etas, initial
    // tokens, token generators and the constant tokens immutable
    // loads anchor to (§4.2).  A token-typed mux/arith/param
    // smuggles ordering through value operators — both endpoints
    // of such an edge are non-memory, non-side-effecting nodes,
    // and the error previously surfaced only as simulator
    // starvation.
    if (n->type == VT::Token &&
        (n->kind == NodeKind::Mux || n->kind == NodeKind::Arith ||
         n->kind == NodeKind::Param))
        problems.push_back(n->str() +
                           ": token-typed value operator (only"
                           " merges, etas, combines, constants and"
                           " side effects may carry tokens)");

    // Etas deliver to merges only: merges are the unique consumers
    // of the end-of-stream markers etas emit on not-taken
    // activations.
    if (n->kind == NodeKind::Eta) {
        for (const Use& u : n->uses()) {
            if (!u.user->dead && u.user->kind != NodeKind::Merge)
                problems.push_back(n->str() +
                                   ": eta feeding non-merge " +
                                   u.user->str());
        }
    }

    // Use-list consistency.
    for (const Use& u : n->uses()) {
        if (u.user->dead) {
            problems.push_back(n->str() + ": used by dead node");
            continue;
        }
        if (u.index >= u.user->numInputs() ||
            u.user->input(u.index).node != n) {
            problems.push_back(n->str() + ": stale use record");
        }
    }
}

/**
 * Acyclicity of the forward graph (back edges removed): a DFS over
 * inputs in index order from each root @p roots visits, in turn.  A
 * cycle reachable from a root is met as an input still open.  Node ids
 * are unique, so the visit state is a dense array; an input from
 * outside the id range (another graph's node) grows it.  Each cycle
 * found is appended to @p problems; after the first, the search
 * finishes the open nodes without descending further.
 */
template <typename Roots>
void
findCycles(const Graph& g, Roots&& roots,
           std::vector<std::string>& problems)
{
    enum : uint8_t { Unseen, Open, Done };
    std::vector<uint8_t> state(static_cast<size_t>(g.idLimit()), Unseen);
    auto stateOf = [&](const Node* n) -> uint8_t& {
        size_t id = static_cast<size_t>(n->id);
        if (id >= state.size())
            state.resize(id + 1, Unseen);
        return state[id];
    };
    struct Frame
    {
        const Node* node;
        int next;  ///< Next input index to visit.
    };
    std::vector<Frame> stack;
    bool cyclic = false;
    roots([&](const Node* root) {
        if (cyclic || root->dead || stateOf(root) != Unseen)
            return;
        stateOf(root) = Open;
        stack.push_back({root, 0});
        while (!stack.empty()) {
            Frame& f = stack.back();
            if (f.next == f.node->numInputs()) {
                stateOf(f.node) = Done;
                stack.pop_back();
                continue;
            }
            int i = f.next++;
            if (f.node->inputIsBackEdge(i))
                continue;
            const Node* in = f.node->input(i).node;
            if (!in || in->dead)
                continue;
            uint8_t s = stateOf(in);
            if (s == Open) {
                // Report the cycle and return from this node, leaving
                // it open.  Each node still on the stack then finishes
                // its remaining inputs, reporting any that are open,
                // but descends no further.
                cyclic = true;
                problems.push_back("cycle through " + in->str());
                stack.pop_back();
            } else if (s == Unseen && !cyclic) {
                stateOf(in) = Open;
                stack.push_back({in, 0});
            }
        }
    });
}

} // namespace

std::vector<std::string>
verifyGraph(const Graph& g)
{
    std::vector<std::string> problems;
    g.forEach([&](const Node* n) { checkNode(n, problems); });
    findCycles(
        g, [&](auto&& visit) { g.forEach(visit); }, problems);
    return problems;
}

namespace {

/** Does @p n read @p v over a forward (non-back) edge? */
bool
readsForward(const Node* n, const Node* v)
{
    for (int i = 0; i < n->numInputs(); i++)
        if (n->input(i).node == v && !n->inputIsBackEdge(i))
            return true;
    return false;
}

} // namespace

bool
verifyJournaled(const Graph& g)
{
    // Nodes whose per-node checks a journaled change can flip: the
    // changed and created nodes, and every node that reads one of them
    // or that one of them reads, before or after the change.
    std::vector<const Node*> check;
    std::vector<uint8_t> listed(static_cast<size_t>(g.idLimit()), 0);
    auto add = [&](const Node* n) {
        size_t id = static_cast<size_t>(n->id);
        if (n->dead || id >= listed.size() || listed[id])
            return;
        listed[id] = 1;
        check.push_back(n);
    };
    auto addAround = [&](const Node* n) {
        for (const PortRef& in : n->inputs())
            if (in.valid())
                add(in.node);
        for (const Use& u : n->uses())
            add(u.user);
    };
    g.forEachJournaled([&](const Node* now, const Node* before) {
        add(now);
        addAround(now);
        if (before)
            addAround(before);
    });
    std::vector<std::string> problems;
    for (const Node* n : check) {
        checkNode(n, problems);
        if (!problems.empty())
            return false;
    }
    // The graph was acyclic, so a new cycle runs through a forward
    // edge the journal added, u reads v, and with it through v: search
    // from the producers of the new edges, a created node's inputs and
    // the inputs a changed node did not read forward before.
    findCycles(
        g,
        [&](auto&& visit) {
            g.forEachJournaled([&](const Node* now, const Node* before) {
                if (now->dead)
                    return;
                for (int i = 0; i < now->numInputs(); i++) {
                    const Node* v = now->input(i).node;
                    if (v && !now->inputIsBackEdge(i) &&
                        (!before || !readsForward(before, v)))
                        visit(v);
                }
            });
        },
        problems);
    return problems.empty();
}

void
verifyOrDie(const Graph& g, const std::string& when)
{
    std::vector<std::string> problems = verifyGraph(g);
    if (!problems.empty())
        fatal("graph verification failed " + when + ": " + problems[0] +
              " (" + std::to_string(problems.size()) + " total)");
}

} // namespace cash
