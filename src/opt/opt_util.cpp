#include "opt/opt_util.h"

#include <algorithm>
#include <cstdint>

namespace cash {
namespace optutil {

namespace {

/**
 * Visit marks for the token walks below: one stamp per node id, and a
 * fresh stamp per walk, so a walk neither allocates (once the array
 * has grown) nor clears anything.  Workers optimize different
 * functions concurrently, so each thread keeps its own marks.
 */
class VisitMarks
{
  public:
    /** Start a walk: every node reads as unvisited. */
    void
    begin()
    {
        if (++epoch_ == 0) {
            std::fill(stamp_.begin(), stamp_.end(), 0);
            epoch_ = 1;
        }
    }

    /** Mark @p n; true on its first visit in this walk. */
    bool
    first(const Node* n)
    {
        size_t id = static_cast<size_t>(n->id);
        if (id >= stamp_.size())
            stamp_.resize(std::max(id + 1, 2 * stamp_.size()), 0);
        if (stamp_[id] == epoch_)
            return false;
        stamp_[id] = epoch_;
        return true;
    }

  private:
    std::vector<uint32_t> stamp_;
    uint32_t epoch_ = 0;
};

thread_local VisitMarks marks;

/** Push onto @p out the users of @p n's token outputs. */
void
tokenUsers(const Node* n, std::vector<const Node*>& out)
{
    for (const Use& u : n->uses()) {
        const Node* user = u.user;
        if (user->dead)
            continue;
        if (user->inputIsBackEdge(u.index))
            continue;  // loop-carried: not intra-activation order
        const PortRef& in = user->input(u.index);
        if (in.node != n || in.node->outputType(in.port) != VT::Token)
            continue;
        out.push_back(user);
    }
}

/** May ordering be followed *through* this node?  Combines are
 *  transparent plumbing; side-effect ops propagate order; etas,
 *  merges and token generators forward conditionally (or across
 *  iterations) and act as barriers. */
bool
traversable(const Node* n)
{
    return n->kind == NodeKind::Combine || n->kind == NodeKind::Load ||
           n->kind == NodeKind::Store || n->kind == NodeKind::Call;
}

} // namespace

std::vector<PortRef>
expandTokenSources(PortRef in)
{
    std::vector<PortRef> out;
    std::vector<PortRef> work{in};
    marks.begin();
    while (!work.empty()) {
        PortRef cur = work.back();
        work.pop_back();
        if (!cur.valid())
            continue;
        if (cur.node->kind == NodeKind::Combine) {
            if (!marks.first(cur.node))
                continue;
            for (const PortRef& i : cur.node->inputs())
                work.push_back(i);
        } else if (std::find(out.begin(), out.end(), cur) == out.end()) {
            out.push_back(cur);
        }
    }
    return out;
}

bool
orderedAfter(const Node* from, const Node* to)
{
    thread_local std::vector<const Node*> work;
    work.clear();
    tokenUsers(from, work);
    marks.begin();
    while (!work.empty()) {
        const Node* cur = work.back();
        work.pop_back();
        if (cur == to)
            return true;
        if (marks.first(cur) && traversable(cur))
            tokenUsers(cur, work);
    }
    return false;
}

std::vector<Node*>
directTokenConsumers(const Node* from)
{
    std::vector<Node*> out;
    std::vector<const Node*> work;
    tokenUsers(from, work);
    marks.begin();
    while (!work.empty()) {
        const Node* cur = work.back();
        work.pop_back();
        if (!marks.first(cur))
            continue;
        if (cur->kind == NodeKind::Combine) {
            tokenUsers(cur, work);
        } else {
            out.push_back(const_cast<Node*>(cur));
        }
    }
    return out;
}

} // namespace optutil
} // namespace cash
