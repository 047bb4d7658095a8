/**
 * @file
 * Content-addressed result cache for the compile service.
 *
 * The key is the canonical request fingerprint from svcCacheKey():
 * source text plus every option that can change the reply (pipeline,
 * verify/analyze config, run/mem specs, requested artifacts) — so two
 * requests collide exactly when the driver is guaranteed to produce
 * byte-identical results for them (see driver_lib.h's determinism
 * contract).  The stored value is the serialized response *body*, so
 * a hit replays the original bytes verbatim.
 *
 * Bounded two ways (entries and total payload bytes) with LRU
 * eviction; all methods are thread-safe — the server's request workers
 * hit it concurrently.
 */
#ifndef CASH_SERVICE_CACHE_H
#define CASH_SERVICE_CACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

namespace cash {

class ResultCache
{
  public:
    /** @p maxEntries / @p maxBytes of 0 mean "unbounded". */
    explicit ResultCache(size_t maxEntries = 4096,
                         size_t maxBytes = 256u << 20);

    /** Monotonic counters (entries/bytes are current occupancy). */
    struct Stats
    {
        int64_t hits = 0;
        int64_t misses = 0;
        int64_t insertions = 0;
        int64_t evictions = 0;
        int64_t entries = 0;
        int64_t bytes = 0;
    };

    /**
     * Look @p key up; on a hit copies the stored body into @p body,
     * refreshes recency and counts a hit.  Counts a miss otherwise.
     */
    bool lookup(const std::string& key, std::string* body);

    /**
     * Insert (@p key → @p body), evicting least-recently-used entries
     * as needed.  Re-inserting an existing key refreshes its value
     * (concurrent misses on the same key make this reachable; both
     * workers computed identical bytes, so either value is correct).
     */
    void insert(const std::string& key, std::string body);

    /** Drop everything (occupancy resets, monotonic counters stay). */
    void clear();

    Stats stats() const;

  private:
    struct Entry
    {
        std::string key;
        std::string body;
    };

    void evictIfNeededLocked();

    const size_t maxEntries_;
    const size_t maxBytes_;

    mutable std::mutex mu_;
    /** Front = most recently used. */
    std::list<Entry> lru_;
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
    size_t bytes_ = 0;
    Stats stats_;
};

} // namespace cash

#endif // CASH_SERVICE_CACHE_H
