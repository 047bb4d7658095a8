#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/parallel.h"

namespace cash {

namespace {

/** Latency ring-buffer capacity: enough for percentile stability. */
constexpr size_t kLatencyWindow = 1u << 16;

uint32_t
clampUs(uint64_t us)
{
    return us > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<uint32_t>(us);
}

} // namespace

ServiceServer::ServiceServer(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      epoch_(std::chrono::steady_clock::now()),
      cache_(cfg_.cacheEntries, cfg_.cacheBytes)
{
}

ServiceServer::~ServiceServer()
{
    stop();
}

uint64_t
ServiceServer::nowUs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

Status
ServiceServer::start()
{
    if (running_.load())
        return Status::error(ErrorCode::InternalError,
                             "server already running");
    if (cfg_.socketPath.empty())
        return Status::error(ErrorCode::InternalError,
                             "socketPath is required");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.socketPath.size() >= sizeof(addr.sun_path))
        return Status::error(ErrorCode::InternalError,
                             "socket path too long: " +
                                 cfg_.socketPath);
    std::strncpy(addr.sun_path, cfg_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return Status::error(ErrorCode::InternalError,
                             std::string("socket: ") +
                                 std::strerror(errno));
    // Take over stale sockets from a crashed predecessor.
    ::unlink(cfg_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
        Status st = Status::error(ErrorCode::InternalError,
                                  "bind " + cfg_.socketPath + ": " +
                                      std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return st;
    }
    if (::listen(listenFd_, cfg_.backlog) < 0) {
        Status st = Status::error(ErrorCode::InternalError,
                                  std::string("listen: ") +
                                      std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return st;
    }

    stopping_.store(false);
    {
        std::lock_guard<std::mutex> lock(stopMu_);
        stopRequested_ = false;
        stopped_ = false;
    }
    {
        std::lock_guard<std::mutex> lock(queueMu_);
        readersJoined_ = false;
    }
    const int workers = cfg_.jobs > 0 ? cfg_.jobs : hardwareThreads();
    {
        std::lock_guard<std::mutex> lock(metricsMu_);
        workerCount_ = workers;
    }
    running_.store(true);
    acceptThread_ = std::thread(&ServiceServer::acceptLoop, this);
    for (int i = 0; i < workers; i++)
        workers_.emplace_back(&ServiceServer::workerLoop, this);
    return Status::ok();
}

void
ServiceServer::requestStop()
{
    std::lock_guard<std::mutex> lock(stopMu_);
    stopRequested_ = true;
    stopCv_.notify_all();
}

bool
ServiceServer::waitForStopRequest(int timeoutMs)
{
    std::unique_lock<std::mutex> lock(stopMu_);
    stopCv_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                     [&] { return stopRequested_; });
    return stopRequested_;
}

void
ServiceServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(stopMu_);
        stopRequested_ = true;
        stopCv_.notify_all();
        if (stopped_ || !running_.load())
            return;
        stopped_ = true; // claim the teardown
    }

    // 1. No new connections.
    stopping_.store(true);
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }

    // 2. No new requests: half-close every connection for reading and
    //    wait for the readers to finish their current frame.
    std::vector<ReaderSlot> slots;
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        slots.swap(slots_);
    }
    for (const ReaderSlot& s : slots)
        if (s.conn->open.load())
            ::shutdown(s.conn->fd, SHUT_RD);
    for (ReaderSlot& s : slots)
        if (s.thread.joinable())
            s.thread.join();

    // 3. Drain: with every reader joined nothing more can be
    //    enqueued, so a worker that finds the queue empty may exit;
    //    every in-flight response has been written once they all have.
    {
        std::lock_guard<std::mutex> lock(queueMu_);
        readersJoined_ = true;
    }
    queueCv_.notify_all();
    for (std::thread& w : workers_)
        w.join();
    workers_.clear();

    // 4. Now nothing touches the sockets anymore.
    for (const ReaderSlot& s : slots) {
        s.conn->open.store(false);
        ::close(s.conn->fd);
    }
    ::unlink(cfg_.socketPath.c_str());
    running_.store(false);
}

void
ServiceServer::acceptLoop()
{
    while (!stopping_.load()) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener closed (shutdown) or fatal
        }
        {
            std::lock_guard<std::mutex> lock(connsMu_);
            if (stopping_.load()) {
                ::close(fd);
                break;
            }
            // Reap finished connections so a long-lived daemon does
            // not accumulate one dead thread per past client.  A slot
            // is reapable once its reader returned (`done`) and its
            // last response went out (`!open`, set by finishConn).
            for (auto it = slots_.begin(); it != slots_.end();) {
                if (it->conn->done.load() && !it->conn->open.load()) {
                    if (it->thread.joinable())
                        it->thread.join();
                    {
                        std::lock_guard<std::mutex> wl(
                            it->conn->writeMu);
                        ::close(it->conn->fd);
                    }
                    it = slots_.erase(it);
                } else {
                    ++it;
                }
            }
            auto conn = std::make_shared<Conn>();
            conn->fd = fd;
            ReaderSlot slot;
            slot.conn = conn;
            slot.thread = std::thread(&ServiceServer::readerLoop,
                                      this, conn);
            slots_.push_back(std::move(slot));
        }
        {
            std::lock_guard<std::mutex> lock(metricsMu_);
            connectionsAccepted_++;
        }
    }
}

void
ServiceServer::sendOnConn(const std::shared_ptr<Conn>& conn,
                          const std::string& payload)
{
    std::lock_guard<std::mutex> lock(conn->writeMu);
    if (!conn->open.load())
        return;
    if (!writeFrame(conn->fd, payload))
        conn->open.store(false); // peer went away; drop quietly
}

void
ServiceServer::finishConn(Conn& conn)
{
    // Signal EOF to the peer once no response can follow.  The fd
    // itself is closed by stop() (after every thread that could touch
    // it has been joined), so hanging up twice is harmless.
    std::lock_guard<std::mutex> lock(conn.writeMu);
    if (conn.open.exchange(false))
        ::shutdown(conn.fd, SHUT_RDWR);
}

void
ServiceServer::readerLoop(std::shared_ptr<Conn> conn)
{
    sendOnConn(conn, svcHello());

    while (!stopping_.load() && conn->open.load()) {
        std::string payload;
        bool eof = false;
        Status st = readFrame(conn->fd, &payload, &eof,
                              cfg_.maxFrameBytes);
        if (eof)
            break;
        if (!st) {
            // Frame-level damage: the byte stream is unsynchronized,
            // so answer once and hang up.
            {
                std::lock_guard<std::mutex> lock(metricsMu_);
                protocolErrors_++;
            }
            sendOnConn(conn, svcErrorResponse(0, "", kSvcErrBadFrame,
                                              st.message()));
            break;
        }

        Json j;
        st = Json::parse(payload, &j);
        if (!st) {
            // Bad JSON in a well-formed frame: recoverable.
            {
                std::lock_guard<std::mutex> lock(metricsMu_);
                protocolErrors_++;
            }
            sendOnConn(conn, svcErrorResponse(0, "", kSvcErrBadRequest,
                                              st.message()));
            continue;
        }
        SvcRequest req;
        st = parseSvcRequest(j, &req);
        if (!st) {
            {
                std::lock_guard<std::mutex> lock(metricsMu_);
                protocolErrors_++;
            }
            sendOnConn(conn,
                       svcErrorResponse(j.getInt("id"),
                                        j.getString("op"),
                                        kSvcErrBadRequest,
                                        st.message()));
            continue;
        }

        if (!req.isCompileFamily()) {
            std::lock_guard<std::mutex> lock(metricsMu_);
            requestsTotal_++;
            requestsControl_++;
        }
        switch (req.op) {
          case SvcOp::Ping: {
              Json body = Json::object();
              body.set("pong", Json::boolean(true));
              body.set("version", Json::string(kCashVersion));
              sendOnConn(conn, svcResponse(req, false, body.dump()));
              continue;
          }
          case SvcOp::Metrics: {
              StatSet m = metrics();
              Json counters = Json::object();
              for (const auto& [k, v] : m.all())
                  counters.set(k, Json::number(v));
              Json body = Json::object();
              body.set("metrics", std::move(counters));
              sendOnConn(conn, svcResponse(req, false, body.dump()));
              continue;
          }
          case SvcOp::Shutdown: {
              Json body = Json::object();
              body.set("stopping", Json::boolean(true));
              sendOnConn(conn, svcResponse(req, false, body.dump()));
              requestStop();
              continue;
          }
          default:
              break;
        }

        Pending p;
        p.conn = conn;
        p.req = std::move(req);
        p.enqueuedUs = nowUs();
        bool rejected = false;
        size_t depth = 0;
        conn->inflight.fetch_add(1); // before the queue can drain it
        {
            std::lock_guard<std::mutex> lock(queueMu_);
            if (cfg_.maxQueueDepth &&
                queue_.size() >= cfg_.maxQueueDepth) {
                rejected = true;
            } else {
                queue_.push_back(std::move(p));
                depth = queue_.size();
            }
        }
        if (rejected)
            conn->inflight.fetch_sub(1);
        if (rejected) {
            {
                std::lock_guard<std::mutex> lock(metricsMu_);
                requestsTotal_++;
                requestsRejected_++;
            }
            sendOnConn(conn,
                       svcErrorResponse(
                           p.req.id, svcOpName(p.req.op),
                           kSvcErrOverloaded,
                           "pending queue is full (" +
                               std::to_string(cfg_.maxQueueDepth) +
                               " requests); retry later"));
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(metricsMu_);
            requestsTotal_++;
            requestsCompile_++;
            queuePeak_ =
                std::max(queuePeak_, static_cast<int64_t>(depth));
        }
        queueCv_.notify_one();
    }
    // Don't close yet: responses for this connection's enqueued
    // requests must still go out (the drain guarantee).  The last
    // responder — or we, when nothing is in flight — hangs up.
    conn->draining.store(true);
    if (conn->inflight.load() == 0)
        finishConn(*conn);
    conn->done.store(true);
}

void
ServiceServer::workerLoop()
{
    while (true) {
        Pending p;
        {
            std::unique_lock<std::mutex> lock(queueMu_);
            queueCv_.wait(lock, [&] {
                return readersJoined_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // drained, and no reader can enqueue more
            p = std::move(queue_.front());
            queue_.pop_front();
        }
        handleOne(p);
        Conn& c = *p.conn;
        if (c.inflight.fetch_sub(1) == 1 && c.draining.load())
            finishConn(c);
    }
}

std::string
ServiceServer::resultBody(const SvcRequest& req, bool* cached)
{
    const std::string key = svcCacheKey(req);
    std::string body;
    *cached = cache_.lookup(key, &body);
    if (*cached)
        return body;
    DriverRequest d = req.driver;
    // Parallelism comes from the request workers; each compile runs
    // serially on its worker.  Fault injection and tracing are local
    // concerns, never remote-controlled.
    d.jobs = 1;
    d.faults = nullptr;
    d.tracer = nullptr;
    // Guardrails: clamp the event budget and arm the wall-clock guard
    // so a pathological graph cannot pin this worker.
    if (cfg_.maxEventsCap &&
        (d.maxEvents == 0 || d.maxEvents > cfg_.maxEventsCap))
        d.maxEvents = cfg_.maxEventsCap;
    d.simWallMs = cfg_.simWallMs;
    DriverReply rep = runDriverRequest(d);
    body = svcResultBody(req, rep);
    // A timeout reflects host load at the moment of the run, not the
    // request: caching it would pin the degraded result.
    if (!(rep.ranSim && rep.simOutcome == SimOutcome::Timeout))
        cache_.insert(key, body);
    return body;
}

void
ServiceServer::handleOne(Pending& p)
{
    const uint64_t waitUs = nowUs() - p.enqueuedUs;
    bool cached = false;
    std::string response;
    try {
        const std::string body = resultBody(p.req, &cached);
        response = svcResponse(p.req, cached, body);
    } catch (const std::exception& e) {
        response = svcErrorResponse(p.req.id, svcOpName(p.req.op),
                                    "internal_error", e.what());
    }
    // Record before sending so a client that reads its response and
    // immediately polls metrics() observes its own request.
    const uint64_t durUs = nowUs() - p.enqueuedUs;
    recordLatency(durUs, waitUs);
    sendOnConn(p.conn, response);
    if (cfg_.tracer && cfg_.tracer->enabled()) {
        std::lock_guard<std::mutex> lock(traceMu_);
        uint64_t end = cfg_.tracer->nowUs();
        uint64_t start = end > durUs ? end - durUs : 0;
        cfg_.tracer->completeEvent(
            svcOpName(p.req.op), "svc", start, durUs,
            {TraceArg("cached", static_cast<int64_t>(cached)),
             TraceArg("wait_us", static_cast<int64_t>(waitUs))},
            kTraceWallPid);
    }
}

void
ServiceServer::recordLatency(uint64_t latencyUs, uint64_t waitUs)
{
    const Sample s{clampUs(latencyUs), clampUs(waitUs)};
    std::lock_guard<std::mutex> lock(metricsMu_);
    if (samples_.size() < kLatencyWindow) {
        samples_.push_back(s);
    } else {
        samples_[sampleNext_] = s;
        sampleNext_ = (sampleNext_ + 1) % kLatencyWindow;
    }
    latencyCount_++;
}

StatSet
ServiceServer::metrics() const
{
    StatSet m;
    size_t depth;
    {
        std::lock_guard<std::mutex> lock(queueMu_);
        depth = queue_.size();
    }
    ResultCache::Stats cs = cache_.stats();

    std::vector<uint32_t> lat, wait;
    {
        std::lock_guard<std::mutex> lock(metricsMu_);
        m.set("svc.protocol", kSvcProtocolVersion);
        m.add("svc.requests.total", requestsTotal_);
        m.add("svc.requests.control", requestsControl_);
        m.add("svc.requests.compile", requestsCompile_);
        m.add("svc.requests.rejected", requestsRejected_);
        m.add("svc.protocol.errors", protocolErrors_);
        m.set("svc.queue.peak", queuePeak_);
        m.add("svc.connections.accepted", connectionsAccepted_);
        m.set("svc.pool.workers", workerCount_);
        m.set("svc.latency.count", latencyCount_);
        lat.reserve(samples_.size());
        wait.reserve(samples_.size());
        for (const Sample& s : samples_) {
            lat.push_back(s.latencyUs);
            wait.push_back(s.waitUs);
        }
    }
    m.set("svc.queue.depth", static_cast<int64_t>(depth));
    m.add("svc.cache.hits", cs.hits);
    m.add("svc.cache.misses", cs.misses);
    m.add("svc.cache.insertions", cs.insertions);
    m.add("svc.cache.evictions", cs.evictions);
    m.set("svc.cache.entries", cs.entries);
    m.set("svc.cache.bytes", cs.bytes);
    int64_t lookups = cs.hits + cs.misses;
    m.set("svc.cache.hit_rate_pct",
          lookups ? (100 * cs.hits) / lookups : 0);

    if (!lat.empty()) {
        std::sort(lat.begin(), lat.end());
        std::sort(wait.begin(), wait.end());
        auto pick = [](const std::vector<uint32_t>& v, double q) {
            size_t idx = static_cast<size_t>(
                q * static_cast<double>(v.size() - 1));
            return static_cast<int64_t>(v[idx]);
        };
        m.set("svc.latency.p50_us", pick(lat, 0.50));
        m.set("svc.latency.p95_us", pick(lat, 0.95));
        m.set("svc.latency.p99_us", pick(lat, 0.99));
        m.set("svc.latency.max_us",
              static_cast<int64_t>(lat.back()));
        m.set("svc.queue.wait_p50_us", pick(wait, 0.50));
        m.set("svc.queue.wait_p95_us", pick(wait, 0.95));
    }
    return m;
}

} // namespace cash
