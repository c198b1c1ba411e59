/**
 * @file
 * Level-triggered epoll front-end framing the JSON-lines forecast
 * protocol over TCP, layered as a pure consumer of the existing
 * serve::ForecastServer (no new predictor wiring): the epoll thread
 * owns the sockets — accept, per-connection partial-line reassembly
 * (serve::LineFramer), bounded non-blocking writes — and submits parsed
 * requests straight into the server via trySubmit (non-blocking, so
 * hundreds of requests pipeline into the engine's coalescing queue);
 * worker-thread completions come back through a completion queue +
 * wake pipe.
 *
 * Robustness rules (the bugs pipes were hiding):
 *  - every syscall retries EINTR (net/io.hpp);
 *  - sends use MSG_NOSIGNAL and SIGPIPE is ignored, so a client
 *    hanging up mid-response closes that connection, never the server;
 *  - short writes park the remainder in the connection's output buffer
 *    and wait for EPOLLOUT;
 *  - a client whose unread output exceeds maxOutputBytes (slow reader)
 *    is disconnected rather than allowed to pin server memory;
 *  - per-client admission control and the engine's bounded queue
 *    reject (counted in serve.rejected) instead of queueing without
 *    bound;
 *  - SIGTERM/SIGINT (net::installStopSignals) drain gracefully: stop
 *    accepting, answer everything already dispatched, flush, exit;
 *  - "ping" requests are answered inline from the epoll thread (never
 *    queued behind forecasts), so a pong proves the event loop itself
 *    is alive — the router's heartbeats ride on this;
 *  - a request's "timeout_ms" (or the server-wide requestTimeoutMs)
 *    arms a deadline: past it the client gets a typed "timeout" error
 *    and the late engine result is dropped — no request ever hangs a
 *    well-behaved client;
 *  - an optional FaultInjector (chaos testing) can crash or wedge the
 *    process on a counted request and corrupt the write path.
 *
 * Responses carry the request's "tag" but may complete out of order
 * relative to submission (the worker pool finishes fast requests
 * first); clients that care tag their requests.
 */

#ifndef NEUSIGHT_NET_SOCKET_SERVER_HPP
#define NEUSIGHT_NET_SOCKET_SERVER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fault.hpp"
#include "net/io.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace neusight::net {

/** Construction-time configuration of a SocketServer. */
struct SocketServerOptions
{
    /** Listen address; loopback by default (no accidental exposure). */
    std::string bindAddress = "127.0.0.1";
    /** Listen port; 0 binds an ephemeral port (see port()). */
    uint16_t port = 0;
    /**
     * Serve one already-connected stream instead of listening (the
     * shard-worker mode: the parent router is the only peer). The
     * server owns the fd and the run loop exits when it closes.
     */
    int adoptedFd = -1;
    /** Longest accepted request line; longer ones answer an error and
     *  close the connection. */
    size_t maxLineBytes = serve::LineFramer::kDefaultMaxLineBytes;
    /** Unread-response bound per connection; a slower reader is
     *  disconnected (slow-client protection). */
    size_t maxOutputBytes = 8u << 20;
    /** In-flight requests allowed per connection before admission
     *  control rejects; 0 = unlimited (shard-worker mode). */
    size_t maxInFlightPerClient = 256;
    /** Bound on the graceful drain after a stop request; connections
     *  still unflushed at the deadline are dropped. */
    int drainTimeoutMs = 30000;
    /** Default per-request deadline; 0 = unbounded. A request's own
     *  "timeout_ms" field overrides it. Past the deadline the client
     *  receives a typed "timeout" error and the engine's late result is
     *  dropped on completion. */
    int requestTimeoutMs = 0;
    /** Chaos-testing fault injector (net/fault.hpp); inactive by
     *  default. */
    FaultInjector fault;
};

/**
 * The socket front-end. Construction binds (listen mode) so port() is
 * immediately valid; run() blocks on the epoll loop until a stop
 * request (requestStop() / installed signal) completes its drain, or
 * until the adopted stream closes. The ForecastServer must outlive the
 * SocketServer and is not stopped by it — the caller owns both.
 */
class SocketServer
{
  public:
    SocketServer(serve::ForecastServer &server, SocketServerOptions options);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /** The bound TCP port (listen mode; 0 in adopted-fd mode). */
    uint16_t port() const { return boundPort; }

    /** Run the epoll loop; returns after the drain completes. */
    void run();

    /** Ask run() to drain and return. Thread-safe and idempotent. */
    void requestStop();

    /// @name Stop-signal plumbing for net::installStopSignals.
    /// @{
    std::atomic<bool> *stopFlag() { return &stopRequested; }
    int wakeWriteFd() const { return wake.writeFd; }
    /// @}

  private:
    struct Connection
    {
        int fd = -1;
        uint64_t gen = 0;
        serve::LineFramer framer;
        /** Unwritten response bytes ([outOffset, size) is pending). */
        std::string outbuf;
        size_t outOffset = 0;
        size_t inFlight = 0;
        /** Peer finished sending (EOF seen); close once answered. */
        bool eof = false;
        /** Protocol violation: close as soon as outbuf flushes. */
        bool closeAfterFlush = false;
        /** Event mask currently registered with epoll. */
        uint32_t registered = 0;
        /** Completion batching: already marked for this batch's flush. */
        bool flushQueued = false;
    };

    struct Completion
    {
        int fd = -1;
        uint64_t gen = 0;
        /** Matches the PendingRequest this result answers. */
        uint64_t reqId = 0;
        std::string line;
    };

    /** Deadline queue over request ids, ordered by expiry. */
    using DeadlineQueue =
        std::multimap<std::chrono::steady_clock::time_point, uint64_t>;

    /** One accepted request awaiting its engine result (deadline
     *  bookkeeping; lives until the completion arrives). */
    struct PendingRequest
    {
        int fd = -1;
        uint64_t gen = 0;
        std::string tag;
        /** Deadline fired and the client was answered; the engine's
         *  late result is dropped. */
        bool timedOut = false;
        /** This request's entry in `deadlines` while queued; erased
         *  when the result arrives or the deadline fires. */
        std::optional<DeadlineQueue::iterator> deadlineSlot;
    };

    void acceptAll();
    void addConnection(int fd);
    void handleReadable(Connection &conn);
    void processLines(Connection &conn);
    void handleLine(Connection &conn, const std::string &line);
    void respond(Connection &conn, const serve::ForecastResult &result);
    void appendOutput(Connection &conn, const std::string &line);
    void flushOutput(Connection &conn);
    void updateInterest(Connection &conn);
    void maybeFinishConnection(Connection &conn);
    void closeConnection(int fd);
    void drainCompletions();
    /** Answer every request whose deadline has passed with a typed
     *  "timeout" error. */
    void fireDeadlines(std::chrono::steady_clock::time_point now);
    /** Erase @p pending's queued deadline, if any. */
    void dropDeadline(PendingRequest &pending);
    /** Fault injection: go silent (deregister every fd) but stay
     *  alive — only a supervisor heartbeat can tell. */
    void enterWedge();
    void beginStop();
    bool drained() const;

    serve::ForecastServer &server;
    SocketServerOptions options;
    WakePipe wake;
    int listenFd = -1;
    int epollFd = -1;
    uint16_t boundPort = 0;
    std::atomic<bool> stopRequested{false};
    bool stopping = false;
    std::chrono::steady_clock::time_point stopDeadline;

    uint64_t nextGen = 1;
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
    /** Dispatched-but-unanswered requests across all connections
     *  (including closed ones whose completions are still due). */
    size_t inFlightTotal = 0;

    uint64_t nextReqId = 1;
    std::unordered_map<uint64_t, PendingRequest> pendingReqs;
    /** Deadlines of the unanswered requests; exported as the
     *  net.deadlines.pending gauge. */
    DeadlineQueue deadlines;
    FaultInjector fault;
    /** Fault injection tripped a wedge: silent until killed. */
    bool wedged = false;

    std::mutex completionMutex;
    std::vector<Completion> completions;

    /// @name Counters in the ForecastServer's metrics registry.
    /// (serve.rejected is the server's own rejection counter — socket-
    /// layer admission/backpressure rejections land in the same metric,
    /// per-shard stats stay one vocabulary.)
    /// @{
    std::shared_ptr<obs::Counter> connectionsTotal;
    std::shared_ptr<obs::Gauge> activeConnections;
    std::shared_ptr<obs::Counter> linesTotal;
    std::shared_ptr<obs::Counter> protocolErrors;
    std::shared_ptr<obs::Counter> slowDisconnects;
    std::shared_ptr<obs::Counter> rejectedCount;
    std::shared_ptr<obs::Counter> timeoutsCount;
    std::shared_ptr<obs::Gauge> deadlinesPending;
    /// @}
};

} // namespace neusight::net

#endif // NEUSIGHT_NET_SOCKET_SERVER_HPP
