#include "analysis/memloc.h"

#include <algorithm>
#include <sstream>

namespace cash {

std::string
LocationSet::str() const
{
    if (isTop_)
        return "{top}";
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (int l : locs_) {
        if (!first)
            os << ",";
        os << l;
        first = false;
    }
    os << "}";
    return os.str();
}

void
LocationSet::unionWith(const LocationSet& other)
{
    if (other.isTop_)
        isTop_ = true;
    if (isTop_) {
        locs_.clear();
        return;
    }
    // Merge two ascending lists in place, from the back: count the
    // ids new to this set, grow once, then fill from the end.
    const int* a = locs_.begin();
    const int* b = other.locs_.begin();
    const size_t na = locs_.size(), nb = other.locs_.size();
    size_t fresh = 0;
    for (size_t i = 0, j = 0; j < nb;) {
        if (i < na && a[i] < b[j]) {
            i++;
        } else {
            if (i >= na || a[i] != b[j])
                fresh++;
            else
                i++;
            j++;
        }
    }
    if (!fresh)
        return;
    locs_.resize(na + fresh);
    int* out = locs_.data();
    size_t i = na, j = nb, k = na + fresh;
    while (j > 0) {
        if (i > 0 && out[i - 1] > b[j - 1]) {
            out[--k] = out[--i];
        } else {
            if (i > 0 && out[i - 1] == b[j - 1])
                --i;
            out[--k] = b[--j];
        }
    }
}

void
AliasOracle::addIndependent(int a, int b)
{
    independent_.insert({std::min(a, b), std::max(a, b)});
}

bool
AliasOracle::mayAliasLocations(int a, int b) const
{
    if (independent_.count({std::min(a, b), std::max(a, b)}))
        return false;
    if (a == b)
        return true;
    bool extA = isExternal(a), extB = isExternal(b);
    if (extA && extB)
        return true;  // two unconstrained pointers may be equal
    if (extA)
        return exposed_.count(b) != 0;
    if (extB)
        return exposed_.count(a) != 0;
    return false;  // two distinct concrete objects never overlap
}

bool
AliasOracle::mayOverlap(const LocationSet& a, const LocationSet& b) const
{
    if (a.empty() || b.empty())
        return false;
    if (a.isTop() || b.isTop())
        return true;
    for (int la : a.locations())
        for (int lb : b.locations())
            if (mayAliasLocations(la, lb))
                return true;
    return false;
}

} // namespace cash
