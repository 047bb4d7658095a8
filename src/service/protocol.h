/**
 * @file
 * The `cash-svc-v1` wire protocol (docs/SERVICE.md): length-prefixed
 * JSON frames over a Unix-domain stream socket.
 *
 * Frame format: a 4-byte big-endian payload length, then exactly that
 * many bytes of UTF-8 JSON.  The server sends one unsolicited *hello*
 * frame per connection (schema + protocol version + server version) so
 * clients can detect incompatible servers before sending anything;
 * after that the connection is strict request→response, one response
 * frame per request frame, in order.
 *
 * This header carries the three protocol layers:
 *   * **frames** — readFrame()/writeFrame() over a blocking fd, with
 *     an explicit size cap so a hostile peer cannot allocate
 *     unboundedly;
 *   * **requests** — parseSvcRequest() validates a decoded JSON
 *     request into an SvcRequest (op + DriverRequest payload),
 *     returning structured errors for anything malformed, and
 *     svcRequestOptions() is its inverse for the client side;
 *   * **responses** — deterministic response builders.  The result
 *     *body* of a compile-family response is built separately
 *     (svcResultBody) from the envelope (svcResponse) because the
 *     body is the unit the result cache stores: a cache hit replays
 *     the body bytes verbatim, so cached and uncached responses are
 *     byte-identical except for the envelope's "cached" flag.
 *     renderResultBody() is the one human rendering of a body.
 *
 * Nothing here does any threading or socket setup; see server.h.
 */
#ifndef CASH_SERVICE_PROTOCOL_H
#define CASH_SERVICE_PROTOCOL_H

#include <cstdint>
#include <iosfwd>
#include <string>

#include "driver/driver_lib.h"
#include "support/json.h"

namespace cash {

/** Wire-protocol schema tag, in every hello and response frame. */
inline constexpr const char* kSvcSchema = "cash-svc-v1";
/** Protocol revision; bumped on any incompatible wire change. */
inline constexpr int kSvcProtocolVersion = 1;
/** Default cap on a single frame's payload size (16 MiB). */
inline constexpr uint32_t kSvcMaxFrameBytes = 16u << 20;

/** Machine-readable error codes of `ok:false` responses. */
inline constexpr const char* kSvcErrBadFrame = "bad_frame";
inline constexpr const char* kSvcErrBadRequest = "bad_request";

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/**
 * Read one frame from blocking fd @p fd into @p payload.  Sets
 * @p cleanEof (and returns Ok with an empty payload) when the peer
 * closed the connection *between* frames; EOF inside a frame, a
 * payload longer than @p maxBytes, or a socket error produce an error
 * Status (the stream is then unsynchronized — close it).
 */
Status readFrame(int fd, std::string* payload, bool* cleanEof,
                 uint32_t maxBytes = kSvcMaxFrameBytes);

/** Write one frame (4-byte big-endian length + payload) to @p fd. */
Status writeFrame(int fd, const std::string& payload);

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/** Request operations a client may send. */
enum class SvcOp
{
    Ping,     ///< Liveness probe; responds immediately.
    Compile,  ///< Compile (and per options analyze/simulate/dump).
    Analyze,  ///< Compile + lint rules (forces options.analyze).
    Simulate, ///< Compile + run (options.run required).
    Metrics,  ///< Server-level svc.* counters snapshot.
    Shutdown, ///< Acknowledge, then gracefully stop the server.
};

/** Stable wire name of @p op ("ping", "compile", ...). */
const char* svcOpName(SvcOp op);

/** One validated client request. */
struct SvcRequest
{
    SvcOp op = SvcOp::Ping;
    /** Client-chosen correlation id, echoed in the response. */
    int64_t id = 0;
    /** Display label (e.g. the client-side file name); not cached. */
    std::string label;
    /** Compile-family payload (ops Compile/Analyze/Simulate). */
    DriverRequest driver;

    bool isCompileFamily() const
    {
        return op == SvcOp::Compile || op == SvcOp::Analyze ||
               op == SvcOp::Simulate;
    }
};

/**
 * Validate decoded request @p j into @p out.  Unknown ops, missing
 * required fields (`source` for compile-family ops, `options.run` for
 * simulate), or ill-typed options produce an error Status whose
 * message names the offending field; unknown *extra* fields are
 * ignored for forward compatibility.
 */
Status parseSvcRequest(const Json& j, SvcRequest* out);

/**
 * The `options` object of a compile-family request for @p req — the
 * exact inverse of parseSvcRequest's options decoding: every field
 * the wire carries survives the round trip, the target as its
 * canonical TargetSpec::str().  Fields the wire does not carry (fault
 * plan, tracer, wall budget, summaries) are dropped.
 */
Json svcRequestOptions(const DriverRequest& req);

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/** The per-connection hello frame payload. */
std::string svcHello();

/** FNV-1a 64-bit digest as 16 hex digits (the cache content address). */
std::string fnv1a64Hex(const std::string& data);

/**
 * Canonical cache-key material for a compile-family request: every
 * DriverRequest field that affects the reply (source text, level,
 * pipeline, verify/ordering/strict, analyze config, run/mem/
 * max-events, requested artifacts) plus the toolchain version.
 * Excludes `jobs`, `id` and `label`, which cannot change the result.
 */
std::string svcCacheKey(const SvcRequest& req);

/**
 * Deterministic result body of a compile-family response: exit code,
 * content digest, embedded `cash-stats-v1` document (wall-clock
 * counters stripped — see stripWallClock), sim/analysis summaries and
 * any requested artifacts.  This is the cached unit.
 */
std::string svcResultBody(const SvcRequest& req, const DriverReply& rep);

/**
 * Print compile-family result @p body for a person, the one way both
 * `cashc` and `cash` do: artifacts, findings and the run line on
 * @p out; fatal errors, pass failures, the analysis summary and
 * simulation failures on @p err, each prefixed "<tool>: ".  Returns
 * the body's exit code.
 */
int renderResultBody(const Json& body, const std::string& tool,
                     std::ostream& out, std::ostream& err);

/** Envelope + body → one response frame payload. */
std::string svcResponse(const SvcRequest& req, bool cached,
                        const std::string& body);

/** An `ok:false` response frame payload. */
std::string svcErrorResponse(int64_t id, const std::string& op,
                             const std::string& code,
                             const std::string& message);

} // namespace cash

#endif // CASH_SERVICE_PROTOCOL_H
