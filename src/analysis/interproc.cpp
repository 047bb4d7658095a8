#include "analysis/interproc.h"

#include <algorithm>

namespace cash {

namespace {

/** Objects a constant address may fall into (globals only: locals are
 *  reached through the frame base, never by literal address). */
LocationSet
globalsContaining(int64_t v, const MemoryLayout& layout)
{
    LocationSet out;
    if (v == 0)
        return out;
    for (const MemObject& obj : layout.objects()) {
        if (obj.isGlobal && v >= obj.address &&
            v < static_cast<int64_t>(obj.address) + obj.size)
            out.insert(obj.id);
    }
    return out;
}

} // namespace

void
InterprocModel::PathMarks::begin(const Graph& g)
{
    if (++epoch_ == 0) {
        std::fill(mark_.begin(), mark_.end(), 0);
        epoch_ = 1;
    }
    if (mark_.size() < static_cast<size_t>(g.idLimit()))
        mark_.resize(static_cast<size_t>(g.idLimit()), 0);
}

InterprocModel::PathMarks&
InterprocModel::threadMarks()
{
    thread_local PathMarks marks;
    return marks;
}

InterprocModel::InterprocModel(
    const std::vector<const Graph*>& graphs,
    const std::vector<std::vector<int>>& paramLocation,
    const MemoryLayout& layout)
    : layout_(layout), paramLoc_(paramLocation)
{
    numObjects_ = static_cast<int>(layout.objects().size());
    const int n = static_cast<int>(graphs.size());
    decls_.resize(n, nullptr);
    frameObjs_.resize(n);
    for (int i = 0; i < n; i++) {
        decls_[i] = graphs[i]->decl;
        index_[graphs[i]->decl] = i;
    }
    paramLoc_.resize(n);
    for (const MemObject& obj : layout.objects()) {
        if (!obj.func)
            continue;
        auto it = index_.find(obj.func);
        if (it != index_.end())
            frameObjs_[it->second].push_back(obj.id);
    }

    // Whole-program fixpoint by plain global iteration: every round
    // re-derives each function's effects from its graph, folding in
    // the current callee summaries.  Location sets only grow and the
    // universe is finite, so this converges; no call-graph
    // condensation is needed (deliberately unlike analysis/modref.cpp).
    ref_.assign(n, LocationSet());
    mod_.assign(n, LocationSet());
    PathMarks path;
    bool changed = true;
    int rounds = 0;
    while (changed && rounds++ < 64) {
        changed = false;
        for (int fi = 0; fi < n; fi++) {
            const Graph& g = *graphs[fi];
            LocationSet r, m;
            g.forEach([&](Node* node) {
                switch (node->kind) {
                  case NodeKind::Load:
                    r.unionWith(addrSet(g, fi, node, path));
                    break;
                  case NodeKind::Store:
                    m.unionWith(addrSet(g, fi, node, path));
                    break;
                  case NodeKind::Call: {
                    int ci = functionIndex(node->callee);
                    if (ci < 0) {
                        r = LocationSet::top();
                        m = LocationSet::top();
                        break;
                    }
                    r.unionWith(
                        translate(ref_[ci], ci, g, fi, node, path));
                    m.unionWith(
                        translate(mod_[ci], ci, g, fi, node, path));
                    break;
                  }
                  default:
                    break;
                }
            });
            if (!(r == ref_[fi]) || !(m == mod_[fi])) {
                ref_[fi] = std::move(r);
                mod_[fi] = std::move(m);
                changed = true;
            }
        }
    }
}

int
InterprocModel::functionIndex(const FuncDecl* decl) const
{
    if (!decl)
        return -1;
    auto it = index_.find(decl);
    return it == index_.end() ? -1 : it->second;
}

LocationSet
InterprocModel::evalPtr(const Graph& g, int fnIdx, PortRef v,
                        PathMarks& path) const
{
    if (!v.valid())
        return LocationSet::top();
    const Node* n = v.node;
    if (path.on(n))
        return LocationSet();  // cycle: entries come from outside
    path.enter(n);
    LocationSet out;
    switch (n->kind) {
      case NodeKind::Const:
        out = globalsContaining(n->constValue, layout_);
        break;
      case NodeKind::Param:
        if (fnIdx < 0) {
            out = LocationSet::top();
        } else if (n->paramIndex >= 0 &&
                   n->paramIndex <
                       static_cast<int>(paramLoc_[fnIdx].size())) {
            int loc = paramLoc_[fnIdx][n->paramIndex];
            if (loc >= 0)
                out = LocationSet::single(loc);
            // Non-pointer parameter: addresses nothing.
        } else if (g.hasFrame) {
            // The frame-base input: any of this function's frame slots.
            for (int id : frameObjs_[fnIdx])
                out.insert(id);
        }
        break;
      case NodeKind::Arith: {
        // frameBase + constant offset is the address of one specific
        // frame slot (the shape lowering emits for every local):
        // resolve it by offset containment instead of smearing over
        // the whole frame.
        if (n->op == Op::Add && n->numInputs() == 2 && fnIdx >= 0 &&
            g.hasFrame) {
            const Node* a =
                n->input(0).valid() ? n->input(0).node : nullptr;
            const Node* b =
                n->input(1).valid() ? n->input(1).node : nullptr;
            const Node* base = nullptr;
            const Node* off = nullptr;
            auto isFrameBase = [&](const Node* p) {
                return p && p->kind == NodeKind::Param &&
                       p->paramIndex >=
                           static_cast<int>(paramLoc_[fnIdx].size());
            };
            if (isFrameBase(a) && b && b->kind == NodeKind::Const) {
                base = a;
                off = b;
            } else if (isFrameBase(b) && a &&
                       a->kind == NodeKind::Const) {
                base = b;
                off = a;
            }
            if (base) {
                for (int id : frameObjs_[fnIdx]) {
                    const MemObject& obj = layout_.object(id);
                    if (off->constValue >= obj.address &&
                        off->constValue <
                            static_cast<int64_t>(obj.address) +
                                obj.size)
                        out.insert(id);
                }
                if (!out.empty())
                    break;
            }
        }
        // Pointer arithmetic keeps the base objects; union over all
        // operands covers whichever side carries the pointer.
        for (const PortRef& in : n->inputs())
            out.unionWith(evalPtr(g, fnIdx, in, path));
        break;
      }
      case NodeKind::Mux:
        // [p0, d0, p1, d1, ...]: only the data arms flow through.
        for (int i = 1; i < n->numInputs(); i += 2)
            out.unionWith(evalPtr(g, fnIdx, n->input(i), path));
        break;
      case NodeKind::Merge:
        for (int i = 0; i < n->numInputs(); i++) {
            if (i == n->deciderIndex)
                continue;
            out.unionWith(evalPtr(g, fnIdx, n->input(i), path));
        }
        break;
      case NodeKind::Eta:
        out = evalPtr(g, fnIdx, n->input(0), path);
        break;
      case NodeKind::Load:
      case NodeKind::Call:
        // A pointer loaded from memory or returned by a call may
        // address anything.
        out = (v.port == 0) ? LocationSet::top() : LocationSet();
        break;
      default:
        // Tokens, predicates and other plumbing address nothing.
        break;
    }
    path.leave(n);
    return out;
}

LocationSet
InterprocModel::addrSet(const Graph& g, int fnIdx, const Node* access,
                        PathMarks& path) const
{
    // Load: [pred, token, addr]; Store: [pred, token, addr, value].
    if (access->numInputs() < 3)
        return LocationSet::top();
    path.begin(g);
    LocationSet s = evalPtr(g, fnIdx, access->input(2), path);
    return s.empty() ? LocationSet::top() : s;
}

LocationSet
InterprocModel::translate(const LocationSet& calleeSet, int calleeIdx,
                          const Graph& callerG, int callerIdx,
                          const Node* call, PathMarks& path) const
{
    if (calleeSet.isTop())
        return LocationSet::top();
    LocationSet out;
    const std::vector<int>& plocs = paramLoc_[calleeIdx];
    for (int loc : calleeSet.locations()) {
        if (loc < numObjects_) {
            // Concrete object: globals pass through, and callee frame
            // slots are *kept* — unordered calls into the same callee
            // share its statically placed frame.
            out.insert(loc);
            continue;
        }
        int param = -1;
        for (size_t p = 0; p < plocs.size(); p++) {
            if (plocs[p] == loc) {
                param = static_cast<int>(p);
                break;
            }
        }
        // Call: [pred, token, arg...] — argument p is input 2 + p.
        if (param < 0 || 2 + param >= call->numInputs())
            return LocationSet::top();
        path.begin(callerG);
        LocationSet arg = evalPtr(callerG, callerIdx,
                                  call->input(2 + param), path);
        if (arg.isTop() || arg.empty())
            return LocationSet::top();
        out.unionWith(arg);
    }
    return out;
}

LocationSet
InterprocModel::callReadSet(const Graph& g, const Node* call) const
{
    int ci = functionIndex(call->callee);
    if (ci < 0)
        return LocationSet::top();
    return translate(ref_[ci], ci, g, functionIndex(g.decl), call,
                     threadMarks());
}

LocationSet
InterprocModel::callWriteSet(const Graph& g, const Node* call) const
{
    int ci = functionIndex(call->callee);
    if (ci < 0)
        return LocationSet::top();
    return translate(mod_[ci], ci, g, functionIndex(g.decl), call,
                     threadMarks());
}

LocationSet
InterprocModel::pointsTo(const Graph& g, PortRef v) const
{
    PathMarks& path = threadMarks();
    path.begin(g);
    return evalPtr(g, functionIndex(g.decl), v, path);
}

} // namespace cash
