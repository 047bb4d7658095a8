/**
 * @file
 * Abstract memory locations and read/write sets (paper §3.3).
 *
 * Every memory access operation carries a read/write set: the set of
 * abstract locations it may touch.  Abstract locations are:
 *   - one per concrete memory object (globals and frame-resident
 *     locals), identified by the MemObject id from the layout;
 *   - one *external* location per pointer parameter of the function
 *     being compiled (what the paper's pointer parameters may point at);
 *   - Top ("unknown"), which overlaps everything.
 *
 * The AliasOracle encodes which locations may overlap, including the
 * effect of `#pragma independent` annotations (§7.1) propagated by a
 * simple connection analysis.
 */
#ifndef CASH_ANALYSIS_MEMLOC_H
#define CASH_ANALYSIS_MEMLOC_H

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "support/small_vector.h"

namespace cash {

/**
 * A set of abstract location ids, with a Top element.
 *
 * The ids are kept as a sorted flat array whose first two live inline,
 * so the one- and two-location sets of nearly every memory access
 * cost no heap allocation to build or copy.  Iteration is in
 * ascending id order.
 */
class LocationSet
{
  public:
    using Locations = SmallVector<int, 2>;

    LocationSet() = default;

    static LocationSet
    top()
    {
        LocationSet s;
        s.isTop_ = true;
        return s;
    }

    static LocationSet
    single(int loc)
    {
        LocationSet s;
        s.locs_.push_back(loc);
        return s;
    }

    bool isTop() const { return isTop_; }
    bool empty() const { return !isTop_ && locs_.empty(); }
    /** The location ids, ascending (empty when Top). */
    const Locations& locations() const { return locs_; }

    /** Is @p loc one of the listed locations (Top lists none)? */
    bool
    contains(int loc) const
    {
        return std::binary_search(locs_.begin(), locs_.end(), loc);
    }

    void
    insert(int loc)
    {
        if (isTop_)
            return;
        const int* at = std::lower_bound(locs_.begin(), locs_.end(), loc);
        if (at == locs_.end() || *at != loc)
            locs_.insert(at, loc);
    }

    void unionWith(const LocationSet& other);

    bool
    operator==(const LocationSet& o) const
    {
        return isTop_ == o.isTop_ && locs_ == o.locs_;
    }

    std::string str() const;

  private:
    bool isTop_ = false;
    Locations locs_;
};

/**
 * Pairwise may-alias information between abstract locations.
 *
 * Concrete objects never alias each other (distinct C objects).
 * External locations may alias each other, any global, and any
 * address-taken frame object — unless an independence pair (from
 * `#pragma independent`) says otherwise.
 */
class AliasOracle
{
  public:
    /** Register location @p loc as an external (pointer-param) target. */
    void addExternal(int loc) { externals_.insert(loc); }

    /** Concrete object @p loc whose address escapes (externals may hit it). */
    void addExposedObject(int loc) { exposed_.insert(loc); }

    /** Declare that @p a and @p b never overlap (pragma independent). */
    void addIndependent(int a, int b);

    bool isExternal(int loc) const { return externals_.count(loc) != 0; }

    /** May locations @p a and @p b overlap? */
    bool mayAliasLocations(int a, int b) const;

    /** May the two read/write sets touch a common address? */
    bool mayOverlap(const LocationSet& a, const LocationSet& b) const;

    /** All normalized (a ≤ b) independence pairs from pragmas. */
    const std::set<std::pair<int, int>>& independentPairs() const
    {
        return independent_;
    }

  private:
    std::set<int> externals_;
    std::set<int> exposed_;
    std::set<std::pair<int, int>> independent_;
};

} // namespace cash

#endif // CASH_ANALYSIS_MEMLOC_H
