#include "pegasus/reachability.h"

#include <algorithm>

namespace cash {

bool
Reachability::visit(const Node* n)
{
    size_t id = static_cast<size_t>(n->id);
    if (id >= stamp_.size())
        stamp_.resize(id + 1, 0);
    if (stamp_[id] == epoch_)
        return false;
    stamp_[id] = epoch_;
    return true;
}

bool
Reachability::reaches(const Node* from, const Node* to)
{
    if (from == to)
        return true;
    if (++epoch_ == 0) {
        // Stamp wrap-around: forget every old mark.
        std::fill(stamp_.begin(), stamp_.end(), 0);
        epoch_ = 1;
    }
    work_.clear();
    visit(from);
    work_.push_back(from);
    while (!work_.empty()) {
        const Node* cur = work_.back();
        work_.pop_back();
        for (const Use& u : cur->uses()) {
            if (u.user->dead || u.user->inputIsBackEdge(u.index))
                continue;
            if (u.user == to)
                return true;
            if (visit(u.user))
                work_.push_back(u.user);
        }
    }
    return false;
}

} // namespace cash
