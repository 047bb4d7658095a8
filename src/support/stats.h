/**
 * @file
 * A tiny named-counter statistics registry.
 *
 * Compiler passes and the dataflow simulator record named counters here
 * (e.g. "opt.dead_store.removed", "sim.l1.misses").  Benchmark harnesses
 * read them back to regenerate the paper's tables and figures.
 *
 * Counters come in two flavors with different merge semantics:
 *   - **accumulators**, written with add(): merge() sums them;
 *   - **gauges**, written with set() (e.g. "ir.static.loads",
 *     "sim.act.peakLive"): merge() takes the *incoming* value, so
 *     merging per-function StatSets in function-declaration order
 *     yields a deterministic last-writer-wins result at any thread
 *     count.
 * A counter that has ever been set() stays a gauge (later add()s
 * modify its value but not its merge behavior).
 *
 * Thread ownership: a StatSet is NOT internally synchronized.  Each
 * compilation worker owns a private StatSet and records into it
 * exclusively; after the workers are joined, the owner merges the
 * per-worker sets into the result set in deterministic (function
 * declaration) order on a single thread.  Never share one StatSet
 * between concurrently running workers.
 */
#ifndef CASH_SUPPORT_STATS_H
#define CASH_SUPPORT_STATS_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>

namespace cash {

/**
 * A bag of named 64-bit counters.  Names are looked up without being
 * copied: bumping a counter that exists allocates nothing.
 */
class StatSet
{
  public:
    /** Name-ordered counters; looked up by any string type. */
    using Counters = std::map<std::string, int64_t, std::less<>>;

    /** Add @p delta to counter @p name (creating it at zero). */
    void add(std::string_view name, int64_t delta = 1);

    /** Set counter @p name to @p value, marking it as a gauge. */
    void set(std::string_view name, int64_t value);

    /** Read counter @p name; missing counters read as zero. */
    int64_t get(std::string_view name) const;

    /** True when the counter exists. */
    bool has(std::string_view name) const;

    /** True when @p name was written with set() (merge = last writer). */
    bool isGauge(std::string_view name) const;

    /** Remove all counters. */
    void clear();

    /**
     * Merge all counters of @p other into this set: accumulators sum,
     * gauges take @p other's value (last writer wins; call in
     * deterministic order — see the thread-ownership note above).
     */
    void merge(const StatSet& other);

    /**
     * Counters that changed since snapshot @p before, each holding the
     * change (this minus before).  Unchanged counters are omitted.
     */
    StatSet diff(const StatSet& before) const;

    const Counters& all() const { return counters_; }

    /** Render as "name = value" lines, sorted by name. */
    std::string str() const;

  private:
    /** The counter @p name, created at zero if missing. */
    int64_t& slot(std::string_view name);

    Counters counters_;
    std::set<std::string, std::less<>> gauges_;
};

/** True for a wall-clock (the only non-deterministic) counter:
 *  `time.*` or `*.time_us`. */
bool isWallClockKey(const std::string& name);

} // namespace cash

#endif // CASH_SUPPORT_STATS_H
