/**
 * @file
 * Structured observability: trace events, scoped timers and JSON
 * export.
 *
 * The compiler's pass manager and the dataflow simulator record their
 * activity into a TraceRecorder:
 *
 *   * **Complete events** ('X') — named spans with a start timestamp
 *     and a duration, e.g. one span per optimization-pass run or per
 *     simulated activation.  Spans on the same track nest by
 *     containment, so `chrome://tracing` / Perfetto render the usual
 *     flame graph.
 *   * **Counter events** ('C') — named sampled values over time, e.g.
 *     LSQ occupancy per memory access.
 *   * **Instant events** ('i') — point markers.
 *
 * Two time domains coexist in one file, separated by Chrome-trace
 * *process* ids: pid 0 carries wall-clock compiler spans (microseconds
 * since recorder creation) and pid 1 carries simulated time (cycles).
 *
 * `writeChromeTrace()` emits the Chrome trace-event JSON object format
 * (`{"traceEvents": [...]}`), loadable in Perfetto.  The small JSON
 * helpers at the bottom (`jsonEscape`, `statSetJson`, `histBucket`)
 * are shared by the `--stats-json` driver export and `bench_util.h`.
 *
 * See docs/OBSERVABILITY.md for the counter namespace and schemas.
 */
#ifndef CASH_SUPPORT_TRACE_H
#define CASH_SUPPORT_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/stats.h"

namespace cash {

/** Chrome-trace process ids: the two time domains (see file header). */
enum : int
{
    kTraceWallPid = 0,   ///< Wall-clock microseconds.
    kTraceCyclePid = 1,  ///< Simulated cycles.
};

/** One key→value argument attached to a trace event. */
struct TraceArg
{
    std::string key;
    bool isString = false;
    int64_t i = 0;
    std::string s;

    TraceArg(std::string k, int64_t v)
        : key(std::move(k)), i(v) {}
    TraceArg(std::string k, std::string v)
        : key(std::move(k)), isString(true), s(std::move(v)) {}
};

/** One trace-event record (a subset of the Chrome trace format). */
struct TraceEvent
{
    std::string name;
    std::string cat;
    char phase = 'X';   ///< 'X' complete, 'C' counter, 'i' instant.
    int pid = kTraceWallPid;
    int tid = 0;        ///< Track within the pid (0 = main thread).
    uint64_t ts = 0;    ///< Microseconds (pid 0) or cycles (pid 1).
    uint64_t dur = 0;   ///< Complete events only.
    std::vector<TraceArg> args;
};

/**
 * Collects trace events.  Disabled recorders drop everything at the
 * call site, so instrumented code can record unconditionally.
 */
class TraceRecorder
{
  public:
    TraceRecorder();

    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Microseconds of wall clock since construction (or clear()). */
    uint64_t nowUs() const;

    /** Record a completed span of wall time. */
    void completeEvent(const std::string& name, const std::string& cat,
                       uint64_t startUs, uint64_t durUs,
                       std::vector<TraceArg> args = {},
                       int pid = kTraceWallPid);

    /** Record a counter sample (value @p v at time @p ts). */
    void counterEvent(const std::string& name, uint64_t ts, int64_t v,
                      int pid = kTraceCyclePid);

    /** Record a point marker. */
    void instantEvent(const std::string& name, const std::string& cat,
                      uint64_t ts, int pid = kTraceWallPid);

    const std::vector<TraceEvent>& events() const { return events_; }

    /** Events of category @p cat (e.g. all per-pass spans). */
    std::vector<const TraceEvent*> byCategory(
        const std::string& cat) const;

    /** Drop all recorded events and restart the clock. */
    void clear();

    // -----------------------------------------------------------------
    // Per-worker buffering (parallel compilation)
    // -----------------------------------------------------------------
    //
    // Each compilation worker records into a private TraceRecorder and
    // the owner splices the buffers into the main recorder afterwards,
    // in function-declaration order, so the event *sequence* is
    // deterministic at any thread count (timestamps remain wall
    // clock).  Usage: child.syncClockTo(parent); child.setTrackId(i);
    // ... record ...; parent.append(child).

    /**
     * Adopt @p parent's clock origin so this recorder's nowUs() values
     * land in the same timeline as the parent's.  Call before
     * recording anything.
     */
    void syncClockTo(const TraceRecorder& parent);

    /**
     * Chrome-trace track ("tid") stamped on every subsequently
     * recorded event.  Give each function's spans a distinct track so
     * overlapping parallel work does not fake nesting in the viewer.
     */
    void setTrackId(int tid) { trackId_ = tid; }

    /**
     * Append all of @p other's events (recorded against the same clock
     * origin, see syncClockTo()) to this recorder; honors this
     * recorder's event cap and accumulates @p other's drop count.
     */
    void append(const TraceRecorder& other);

    /**
     * Cap on stored events; beyond it new events are dropped (and
     * counted), so long simulations cannot exhaust memory.
     */
    void setMaxEvents(size_t n) { maxEvents_ = n; }
    uint64_t dropped() const { return dropped_; }

    /** Serialize as `{"traceEvents": [...]}` (Perfetto-loadable). */
    void writeChromeTrace(std::ostream& os) const;
    std::string chromeTraceJson() const;

  private:
    bool push(TraceEvent ev);

    bool enabled_ = false;
    int trackId_ = 0;
    uint64_t originNs_ = 0;
    std::vector<TraceEvent> events_;
    size_t maxEvents_ = 1 << 20;
    uint64_t dropped_ = 0;
};

/**
 * RAII timer, the one way a request layer is timed.  On destruction it
 * writes the elapsed microseconds under @p key in @p stats (set(), or
 * add() for a key summed over several spans) and, when @p rec is
 * enabled, records a complete event whose `dur` is that same value.
 * With neither it reads no clock.  @p stats and @p key (a string
 * literal) must outlive the timer.  Accumulate event arguments with
 * arg() while the span is open.
 */
class ScopedTimer
{
  public:
    enum class Write { Set, Add };  ///< How the time lands under key.

    ScopedTimer(TraceRecorder* rec, std::string name, std::string cat,
                StatSet* stats = nullptr, const char* key = nullptr,
                Write write = Write::Set);
    ~ScopedTimer();
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    void arg(const std::string& key, int64_t v);
    void arg(const std::string& key, const std::string& v);

  private:
    uint64_t nowUs() const;

    TraceRecorder* rec_;
    StatSet* stats_;
    const char* key_;
    Write write_;
    std::string name_;
    std::string cat_;
    uint64_t startUs_ = 0;
    std::vector<TraceArg> args_;
};

/**
 * The process-wide recorder.  Library code records here by default;
 * it is disabled unless a driver (cashc --trace, a bench binary, a
 * test) enables it.
 */
TraceRecorder& globalTracer();

// ---------------------------------------------------------------------
// JSON helpers (shared by --trace, --stats-json and bench_util.h)
// ---------------------------------------------------------------------

/** Escape @p s for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string& s);

/** Render a StatSet as a sorted JSON object `{"name": value, ...}`. */
std::string statSetJson(const StatSet& stats, int indent = 0);

/**
 * Power-of-two histogram bucket label for value @p v:
 * "0", "1", "2", "le4", "le8", ..., "le1024", "gt1024".
 * Used for the `sim.mem.*Hist.*` counter families.
 */
std::string histBucket(uint64_t v);

/** Number of histBucket() buckets ("0" .. "gt1024"). */
constexpr int kHistBuckets = 13;

/**
 * Dense index of the bucket holding @p v, for fixed-size histogram
 * arrays on hot paths (no string is built until report time):
 * histBucket(v) == histBucketLabel(histBucketIndex(v)).
 */
int histBucketIndex(uint64_t v);

/** Label of bucket @p i (0 <= i < kHistBuckets). */
const char* histBucketLabel(int i);

} // namespace cash

#endif // CASH_SUPPORT_TRACE_H
