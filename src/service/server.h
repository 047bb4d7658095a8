/**
 * @file
 * `cashd` server core: a persistent compile service over a
 * Unix-domain socket (docs/SERVICE.md).
 *
 * Thread architecture:
 *
 *   accept thread ──► one reader thread per connection
 *                        │  control ops (ping/metrics/shutdown)
 *                        │  answered inline; compile-family ops
 *                        ▼  enqueued
 *                     pending queue (FIFO, depth cap)
 *                        │  each of `jobs` request workers pops the
 *                        ▼  oldest request when it is free
 *                     request worker ×jobs
 *                        │ per request: result cache, else driver
 *                        ▼ at jobs=1
 *                     response frame
 *
 * There is no batch barrier: a worker goes back to the queue as soon
 * as its own request is answered, so a cache hit or a short compile
 * waits for an unrelated slow request only when every worker is busy
 * with one.  Parallelism comes from request-level fan-out (each
 * request compiles serially), and repeat traffic short-circuits
 * through the content-addressed ResultCache.
 * The queue has a depth cap; beyond it requests are rejected with an
 * `overloaded` error instead of building unbounded backlog.
 *
 * Shutdown is graceful by construction: stop() closes the listener,
 * half-closes every connection for reading (no new requests), joins
 * the readers, and only then lets the workers exit — each once the
 * queue is empty — so every request a reader enqueued is answered
 * before the sockets close.
 *
 * Observability: svc.* counters (queue depth and peak, cache hit
 * rate, p50/p95/p99 request latency and p50/p95 queue wait) through
 * the StatSet convention via metrics(), and one "svc" trace span
 * per request when a TraceRecorder is attached (guarded internally —
 * the recorder itself is not thread-safe).
 */
#ifndef CASH_SERVICE_SERVER_H
#define CASH_SERVICE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.h"
#include "service/protocol.h"
#include "support/stats.h"
#include "support/trace.h"

namespace cash {

/** Error code of responses rejected by the queue-depth cap. */
inline constexpr const char* kSvcErrOverloaded = "overloaded";

struct ServiceConfig
{
    /** Filesystem path of the Unix-domain socket (required). */
    std::string socketPath;
    /** Request workers; 0 = one per hardware thread. */
    int jobs = 0;
    /** Result-cache bounds (see ResultCache). */
    size_t cacheEntries = 4096;
    size_t cacheBytes = 256u << 20;
    /** Per-frame payload cap. */
    uint32_t maxFrameBytes = kSvcMaxFrameBytes;
    /** Pending-request cap; beyond it requests get `overloaded`. */
    size_t maxQueueDepth = 4096;
    /**
     * Ceiling on any request's simulator event budget.  A request
     * asking for more (or for "unlimited" via 0) is clamped down, so
     * one adversarial or buggy client cannot pin a request worker on a
     * livelocked graph.  0 disables the cap.  The clamp is visible
     * to the client as an ordinary `event_limit` sim outcome.
     */
    uint64_t maxEventsCap = 50000000;
    /**
     * Per-request simulation wall-clock guard in milliseconds; runs
     * that exceed it come back with sim outcome `timeout`.  Timeout
     * results are never cached (they are host-load-dependent, not a
     * property of the request).  0 disables the guard.
     */
    int64_t simWallMs = 10000;
    /** listen(2) backlog. */
    int backlog = 128;
    /** Optional trace sink (guarded internally); may be null. */
    TraceRecorder* tracer = nullptr;
};

class ServiceServer
{
  public:
    explicit ServiceServer(ServiceConfig cfg);
    ~ServiceServer();

    ServiceServer(const ServiceServer&) = delete;
    ServiceServer& operator=(const ServiceServer&) = delete;

    /** Bind, listen and start the service threads. */
    Status start();

    /**
     * Graceful shutdown: stop accepting, drain every pending and
     * in-flight request (responses are written), join all threads,
     * close sockets, unlink the socket path.  Idempotent; safe from
     * any thread except the server's own worker threads.
     */
    void stop();

    /** True between a successful start() and the end of stop(). */
    bool running() const { return running_.load(); }

    /**
     * Flag this server for shutdown without performing it (safe from
     * worker threads; also triggered by the `shutdown` op).  A thread
     * blocked in waitForStopRequest() wakes and is expected to call
     * stop().
     */
    void requestStop();

    /** Block up to @p timeoutMs for requestStop(); true when flagged. */
    bool waitForStopRequest(int timeoutMs);

    /**
     * Snapshot of the svc.* counters: request/connection totals,
     * queue depth and peak, worker count, cache occupancy + hit/miss
     * counters, p50/p95/p99/max request latency and p50/p95 queue
     * wait in microseconds (docs/SCHEMAS.md lists every key).
     */
    StatSet metrics() const;

    const std::string& socketPath() const { return cfg_.socketPath; }

  private:
    struct Conn
    {
        int fd = -1;
        std::mutex writeMu;
        std::atomic<bool> open{true};
        /** Requests enqueued but not yet responded to. */
        std::atomic<int> inflight{0};
        /** Reader exited; finish the socket once inflight hits 0. */
        std::atomic<bool> draining{false};
        /** Reader thread has returned (joinable without blocking). */
        std::atomic<bool> done{false};
    };

    /** One connection: its state and the thread reading from it. */
    struct ReaderSlot
    {
        std::shared_ptr<Conn> conn;
        std::thread thread;
    };

    struct Pending
    {
        std::shared_ptr<Conn> conn;
        SvcRequest req;
        uint64_t enqueuedUs = 0;
    };

    void acceptLoop();
    void readerLoop(std::shared_ptr<Conn> conn);
    void workerLoop();
    void handleOne(Pending& p);
    std::string resultBody(const SvcRequest& req, bool* cached);
    void sendOnConn(const std::shared_ptr<Conn>& conn,
                    const std::string& payload);
    void finishConn(Conn& conn);
    void recordLatency(uint64_t latencyUs, uint64_t waitUs);
    uint64_t nowUs() const;

    ServiceConfig cfg_;
    int listenFd_ = -1;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::chrono::steady_clock::time_point epoch_;

    std::mutex stopMu_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;
    bool stopped_ = false; ///< teardown finished (under stopMu_)

    std::thread acceptThread_;
    std::vector<std::thread> workers_;

    std::mutex connsMu_;
    std::vector<ReaderSlot> slots_;

    mutable std::mutex queueMu_;
    std::condition_variable queueCv_;
    std::deque<Pending> queue_;
    /** stop() joined every reader: nothing more can be enqueued. */
    bool readersJoined_ = false;

    ResultCache cache_;

    mutable std::mutex metricsMu_;
    int64_t requestsTotal_ = 0;
    int64_t requestsControl_ = 0;
    int64_t requestsCompile_ = 0;
    int64_t requestsRejected_ = 0;
    int64_t protocolErrors_ = 0;
    int64_t queuePeak_ = 0;
    int64_t connectionsAccepted_ = 0;
    int64_t workerCount_ = 0;
    /** One answered request: enqueue→response and enqueue→pickup. */
    struct Sample
    {
        uint32_t latencyUs;
        uint32_t waitUs;
    };
    std::vector<Sample> samples_; ///< ring buffer, newest wraps
    size_t sampleNext_ = 0;
    int64_t latencyCount_ = 0;

    std::mutex traceMu_;
};

} // namespace cash

#endif // CASH_SERVICE_SERVER_H
