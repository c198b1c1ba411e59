#include "net/socket_server.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <sys/epoll.h>
#include <unistd.h>
#include <utility>

#include "common/json.hpp"
#include "common/logging.hpp"

namespace neusight::net {

namespace {

/** Encoded rejection/error line ('\n'-terminated). @p code is the
 *  machine-readable "code" field ("" omits it). */
std::string
errorLine(const std::string &tag, const std::string &message,
          const std::string &code = "")
{
    serve::ForecastResult result;
    result.tag = tag;
    result.ok = false;
    result.error = message;
    result.errorCode = code;
    return serve::resultToJson(result).dump(0) + "\n";
}

} // namespace

SocketServer::SocketServer(serve::ForecastServer &server_,
                           SocketServerOptions options_)
    : server(server_), options(std::move(options_))
{
    ensure(options.maxLineBytes > 0, "SocketServer: maxLineBytes");
    // The process must already ignore SIGPIPE before the first send to
    // a hung-up client; tools call this too, but the server must not
    // rely on it (MSG_NOSIGNAL covers sends either way).
    ignoreSigpipe();

    obs::MetricsRegistry &reg = *server.metrics();
    connectionsTotal = reg.counter("net.connections");
    activeConnections = reg.gauge("net.active_connections");
    linesTotal = reg.counter("net.lines");
    protocolErrors = reg.counter("net.protocol_errors");
    slowDisconnects = reg.counter("net.slow_client_disconnects");
    rejectedCount = reg.counter("serve.rejected");
    timeoutsCount = reg.counter("net.timeouts");
    deadlinesPending = reg.gauge("net.deadlines.pending");
    fault = options.fault;

    if (options.adoptedFd < 0) {
        listenFd = listenTcp(options.bindAddress, options.port, &boundPort);
    }
}

SocketServer::~SocketServer()
{
    // Requests are only ever submitted from inside run(), and run()
    // drains the server's completions before returning — by the time a
    // destructor can legally run, no callback still references this.
    for (auto &entry : conns)
        closeFd(entry.second->fd);
    conns.clear();
    closeFd(listenFd);
    closeFd(epollFd);
    if (options.adoptedFd >= 0)
        closeFd(options.adoptedFd);
}

void
SocketServer::requestStop()
{
    stopRequested.store(true, std::memory_order_release);
    wake.notify();
}

void
SocketServer::addConnection(int fd)
{
    if (!setNonBlocking(fd)) {
        closeFd(fd);
        return;
    }
    setTcpNoDelay(fd); // Fails harmlessly on the adopted AF_UNIX pipe.
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->gen = nextGen++;
    conn->framer = serve::LineFramer(options.maxLineBytes);
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        closeFd(fd);
        return;
    }
    conn->registered = EPOLLIN;
    conns[fd] = std::move(conn);
    connectionsTotal->inc();
    activeConnections->set(static_cast<int64_t>(conns.size()));
}

void
SocketServer::acceptAll()
{
    for (;;) {
        const int fd = acceptRetry(listenFd);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == ECONNABORTED || errno == EMFILE ||
                errno == ENFILE) {
                warn(std::string("net: accept failed: ") +
                     strerror(errno));
                return;
            }
            warn(std::string("net: accept failed: ") + strerror(errno));
            return;
        }
        addConnection(fd);
    }
}

void
SocketServer::handleReadable(Connection &conn)
{
    const int fd = conn.fd;
    char buf[64 * 1024];
    for (;;) {
        const ssize_t n = readRetry(fd, buf, sizeof(buf));
        if (n > 0) {
            conn.framer.feed(buf, static_cast<size_t>(n));
            processLines(conn);
            if (conns.find(fd) == conns.end())
                return; // processLines closed it.
            if (conn.closeAfterFlush || wedged)
                return;
            continue;
        }
        if (n == 0) {
            // Level-triggered EOF stays readable forever: drop the
            // read interest or the loop would spin on this socket.
            conn.eof = true;
            updateInterest(conn);
            maybeFinishConnection(conn);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        // ECONNRESET and friends: the peer is gone.
        closeConnection(fd);
        return;
    }
}

void
SocketServer::processLines(Connection &conn)
{
    const int fd = conn.fd;
    std::string line;
    for (;;) {
        const serve::LineFramer::Event event = conn.framer.next(line);
        if (event == serve::LineFramer::Event::None)
            return;
        if (event == serve::LineFramer::Event::Oversized) {
            protocolErrors->inc();
            appendOutput(conn,
                         errorLine("", "request line exceeds " +
                                           std::to_string(
                                               options.maxLineBytes) +
                                           " bytes"));
            conn.closeAfterFlush = true;
            updateInterest(conn);
            flushOutput(conn);
            return;
        }
        handleLine(conn, line);
        if (conns.find(fd) == conns.end())
            return; // A write error closed the connection.
        if (conn.closeAfterFlush || wedged)
            return;
    }
}

void
SocketServer::handleLine(Connection &conn, const std::string &line)
{
    if (wedged)
        return; // Fault injection: swallow everything, answer nothing.
    if (serve::isSkippableRequestLine(line))
        return;
    linesTotal->inc();
    if (stopping) {
        rejectedCount->inc();
        appendOutput(conn, errorLine("", "server is draining", "draining"));
        flushOutput(conn);
        return;
    }
    std::string tag;
    serve::ForecastRequest request;
    try {
        const common::Json json = common::Json::parse(line);
        if (json.isObject())
            tag = json.stringOr("tag", "");
        request = serve::requestFromJson(json);
    } catch (const std::exception &e) {
        protocolErrors->inc();
        appendOutput(conn, errorLine(tag, e.what()));
        flushOutput(conn);
        return;
    }
    if (request.kind == serve::RequestKind::Ping) {
        // Answered inline from the epoll thread, before admission: a
        // pong proves the event loop is alive even when the engine is
        // saturated, which is exactly what a health check wants to
        // know. The router's heartbeats ride on this.
        appendOutput(conn, serve::pongToJson(tag).dump(0) + "\n");
        flushOutput(conn);
        return;
    }
    switch (fault.onRequest()) {
      case FaultAction::Kill:
        ::raise(SIGKILL); // Chaos: die exactly like a crashed worker.
        break;
      case FaultAction::Wedge:
        enterWedge();
        return;
      case FaultAction::None:
        break;
    }
    if (options.maxInFlightPerClient > 0 &&
        conn.inFlight >= options.maxInFlightPerClient) {
        rejectedCount->inc();
        appendOutput(
            conn,
            errorLine(tag,
                      "admission limit: " +
                          std::to_string(options.maxInFlightPerClient) +
                          " requests already in flight on this "
                          "connection",
                      "overload"));
        flushOutput(conn);
        return;
    }
    // Straight into the engine from the epoll thread: trySubmit never
    // blocks, so one slow forecast cannot stall the loop, and hundreds
    // of pipelined requests coalesce inside the ForecastServer instead
    // of trickling through a thread pool one blocking submit at a time.
    const uint64_t timeoutMs =
        request.timeoutMs > 0
            ? request.timeoutMs
            : (options.requestTimeoutMs > 0
                   ? static_cast<uint64_t>(options.requestTimeoutMs)
                   : 0);
    const int fd = conn.fd;
    const uint64_t gen = conn.gen;
    const uint64_t reqId = nextReqId++;
    const bool accepted = server.trySubmit(
        std::move(request),
        [this, fd, gen, reqId](serve::ForecastResult result) {
            // Worker thread (or inline on shutdown): park the encoded
            // reply and wake the epoll loop, nothing else — the loop
            // owns every connection. Only the completion that finds the
            // list empty wakes it: a non-empty list has a wake pending
            // that drainCompletions has not yet answered with its swap.
            Completion done;
            done.fd = fd;
            done.gen = gen;
            done.reqId = reqId;
            done.line = serve::resultToJson(result).dump(0) + "\n";
            bool first;
            {
                std::lock_guard<std::mutex> lock(completionMutex);
                first = completions.empty();
                completions.push_back(std::move(done));
            }
            if (first)
                wake.notify();
        });
    if (!accepted) {
        rejectedCount->inc();
        appendOutput(conn,
                     errorLine(tag,
                               "server overloaded (engine queue full)",
                               "overload"));
        flushOutput(conn);
        return;
    }
    ++conn.inFlight;
    ++inFlightTotal;
    PendingRequest pending;
    pending.fd = fd;
    pending.gen = gen;
    pending.tag = tag;
    if (timeoutMs > 0) {
        pending.deadlineSlot =
            deadlines.emplace(std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(timeoutMs),
                              reqId);
        deadlinesPending->set(static_cast<int64_t>(deadlines.size()));
    }
    pendingReqs[reqId] = std::move(pending);
}

void
SocketServer::dropDeadline(PendingRequest &pending)
{
    if (!pending.deadlineSlot)
        return;
    deadlines.erase(*pending.deadlineSlot);
    pending.deadlineSlot.reset();
    deadlinesPending->set(static_cast<int64_t>(deadlines.size()));
}

void
SocketServer::appendOutput(Connection &conn, const std::string &line)
{
    conn.outbuf.append(line);
}

void
SocketServer::flushOutput(Connection &conn)
{
    if (fault.active() && conn.outOffset < conn.outbuf.size()) {
        // Chaos: the injector may sleep (delay), shrink (truncate) or
        // replace (garbage) the unsent tail of this write batch.
        std::string tail = conn.outbuf.substr(conn.outOffset);
        if (fault.onWrite(tail)) {
            conn.outbuf.resize(conn.outOffset);
            conn.outbuf += tail;
        }
    }
    while (conn.outOffset < conn.outbuf.size()) {
        const ssize_t n =
            sendRetry(conn.fd, conn.outbuf.data() + conn.outOffset,
                      conn.outbuf.size() - conn.outOffset);
        if (n > 0) {
            conn.outOffset += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break; // Kernel buffer full: wait for EPOLLOUT.
        // EPIPE / ECONNRESET: the client hung up mid-response. With
        // SIGPIPE suppressed this is a clean per-connection close, not
        // a process death (the regression the socket move forces us to
        // pin).
        closeConnection(conn.fd);
        return;
    }
    if (conn.outOffset == conn.outbuf.size()) {
        conn.outbuf.clear();
        conn.outOffset = 0;
    } else if (conn.outOffset > (1u << 16) &&
               conn.outOffset >= conn.outbuf.size() / 2) {
        conn.outbuf.erase(0, conn.outOffset);
        conn.outOffset = 0;
    }
    if (conn.outbuf.size() - conn.outOffset > options.maxOutputBytes) {
        // Slow client: it is not reading responses as fast as it sends
        // requests. Unbounded buffering would let one client pin
        // arbitrary server memory — disconnect instead.
        slowDisconnects->inc();
        warn("net: disconnecting slow client (unread output over " +
             std::to_string(options.maxOutputBytes) + " bytes)");
        closeConnection(conn.fd);
        return;
    }
    updateInterest(conn);
    maybeFinishConnection(conn);
}

void
SocketServer::updateInterest(Connection &conn)
{
    // Level-triggered discipline: only subscribe to what we will act
    // on. A drained/errored/stopping connection must drop EPOLLIN (an
    // EOF socket stays "readable" forever) and EPOLLOUT is armed only
    // while unflushed output exists, or the loop spins.
    const bool want_read =
        !stopping && !conn.closeAfterFlush && !conn.eof;
    const bool want_write = conn.outOffset < conn.outbuf.size();
    const uint32_t events = (want_read ? static_cast<uint32_t>(EPOLLIN) : 0u) |
                            (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    if (events == conn.registered)
        return;
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = events;
    ev.data.fd = conn.fd;
    if (::epoll_ctl(epollFd, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
        conn.registered = events;
}

void
SocketServer::maybeFinishConnection(Connection &conn)
{
    const bool flushed = conn.outOffset >= conn.outbuf.size();
    if (!flushed)
        return;
    if (conn.closeAfterFlush || (conn.eof && conn.inFlight == 0))
        closeConnection(conn.fd);
}

void
SocketServer::closeConnection(int fd)
{
    auto it = conns.find(fd);
    if (it == conns.end())
        return;
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
    closeFd(fd);
    if (fd == options.adoptedFd)
        options.adoptedFd = -1; // Owned fd released; don't close twice.
    conns.erase(it);
    activeConnections->set(static_cast<int64_t>(conns.size()));
}

void
SocketServer::drainCompletions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(completionMutex);
        batch.swap(completions);
    }
    // Two phases — append everything, then one flush (one send()) per
    // touched connection: pipelined clients get their whole reply batch
    // in a single syscall instead of one per line.
    std::vector<int> touched;
    for (Completion &done : batch) {
        ensure(inFlightTotal > 0, "net: completion accounting underflow");
        --inFlightTotal;
        bool timedOut = false;
        auto pit = pendingReqs.find(done.reqId);
        if (pit != pendingReqs.end()) {
            timedOut = pit->second.timedOut;
            dropDeadline(pit->second);
            pendingReqs.erase(pit);
        }
        if (timedOut)
            continue; // The deadline already answered this client.
        auto it = conns.find(done.fd);
        if (it == conns.end() || it->second->gen != done.gen)
            continue; // Client hung up before its answer was ready.
        Connection &conn = *it->second;
        ensure(conn.inFlight > 0, "net: connection in-flight underflow");
        --conn.inFlight;
        appendOutput(conn, done.line);
        if (!conn.flushQueued) {
            conn.flushQueued = true;
            touched.push_back(done.fd);
        }
    }
    for (const int fd : touched) {
        auto it = conns.find(fd);
        if (it == conns.end())
            continue; // A flush above closed it (slow client).
        it->second->flushQueued = false;
        flushOutput(*it->second);
    }
}

void
SocketServer::fireDeadlines(std::chrono::steady_clock::time_point now)
{
    while (!deadlines.empty() && deadlines.begin()->first <= now) {
        // Every queued deadline belongs to an unanswered request:
        // completions and firing both erase theirs.
        auto it = pendingReqs.find(deadlines.begin()->second);
        ensure(it != pendingReqs.end(),
               "net: deadline of an unknown request");
        PendingRequest &pending = it->second;
        dropDeadline(pending);
        // The entry stays until the completion arrives, which then
        // balances inFlightTotal and is dropped instead of delivered.
        pending.timedOut = true;
        timeoutsCount->inc();
        auto cit = conns.find(pending.fd);
        if (cit == conns.end() || cit->second->gen != pending.gen)
            continue; // Client already gone; nothing to answer.
        Connection &conn = *cit->second;
        ensure(conn.inFlight > 0, "net: connection in-flight underflow");
        --conn.inFlight;
        appendOutput(conn, errorLine(pending.tag,
                                     "request deadline exceeded",
                                     "timeout"));
        flushOutput(conn);
    }
}

void
SocketServer::enterWedge()
{
    if (wedged)
        return;
    wedged = true;
    warn("net: fault injection wedged this worker (alive but silent)");
    // Deregister everything — including the wake pipe, so completions
    // cannot rouse the loop: epoll_wait blocks with an empty interest
    // set until something kills the process. Exactly a hung worker.
    if (listenFd >= 0)
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, listenFd, nullptr);
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, wake.readFd, nullptr);
    for (auto &entry : conns) {
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, entry.second->fd, nullptr);
        entry.second->registered = 0;
    }
}

void
SocketServer::beginStop()
{
    if (stopping)
        return;
    stopping = true;
    stopDeadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options.drainTimeoutMs);
    if (listenFd >= 0) {
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, listenFd, nullptr);
        closeFd(listenFd);
        listenFd = -1;
    }
    // No more reads: the drain answers what was accepted and flushes.
    for (auto &entry : conns)
        updateInterest(*entry.second);
}

bool
SocketServer::drained() const
{
    if (inFlightTotal > 0)
        return false;
    for (const auto &entry : conns)
        if (entry.second->outOffset < entry.second->outbuf.size())
            return false;
    return true;
}

void
SocketServer::run()
{
    epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd < 0)
        fatal(std::string("net: epoll_create1 failed: ") +
              strerror(errno));
    struct epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = wake.readFd;
    if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, wake.readFd, &ev) != 0)
        fatal("net: cannot register wake pipe");
    if (listenFd >= 0) {
        ev.data.fd = listenFd;
        if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, listenFd, &ev) != 0)
            fatal("net: cannot register listen socket");
    }
    if (options.adoptedFd >= 0)
        addConnection(options.adoptedFd);

    constexpr int kMaxEvents = 64;
    struct epoll_event events[kMaxEvents];
    for (;;) {
        int timeout_ms = -1;
        auto next = std::chrono::steady_clock::time_point::max();
        bool have_next = false;
        if (stopping) {
            next = stopDeadline;
            have_next = true;
        }
        if (!wedged && !deadlines.empty() &&
            (!have_next || deadlines.begin()->first < next)) {
            next = deadlines.begin()->first;
            have_next = true;
        }
        if (have_next) {
            const auto left = std::chrono::duration_cast<
                                  std::chrono::milliseconds>(
                                  next - std::chrono::steady_clock::now())
                                  .count();
            timeout_ms = left > 0
                             ? static_cast<int>(left > 60000 ? 60000
                                                             : left + 1)
                             : 0;
        }
        const int n =
            epollWaitRetry(epollFd, events, kMaxEvents, timeout_ms);
        if (n < 0)
            fatal(std::string("net: epoll_wait failed: ") +
                  strerror(errno));
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            const uint32_t mask = events[i].events;
            if (fd == wake.readFd) {
                wake.drain();
                continue;
            }
            if (fd == listenFd) {
                if (!stopping)
                    acceptAll();
                continue;
            }
            auto it = conns.find(fd);
            if (it == conns.end())
                continue;
            Connection &conn = *it->second;
            if (mask & (EPOLLERR | EPOLLHUP)) {
                // Peer reset. Responses for its in-flight requests are
                // dropped at completion time (generation mismatch).
                closeConnection(fd);
                continue;
            }
            if ((mask & EPOLLIN) && !stopping && !conn.closeAfterFlush)
                handleReadable(conn);
            if (conns.find(fd) == conns.end())
                continue;
            if (mask & EPOLLOUT)
                flushOutput(*conns.find(fd)->second);
        }
        if (wedged)
            continue; // Silent: neither completions nor deadlines flow.
        drainCompletions();
        fireDeadlines(std::chrono::steady_clock::now());
        if (stopRequested.load(std::memory_order_acquire))
            beginStop();
        if (stopping) {
            if (drained() ||
                std::chrono::steady_clock::now() >= stopDeadline)
                break;
        } else if (listenFd < 0 && conns.empty() && inFlightTotal == 0) {
            // Adopted-stream (shard worker) mode: the peer closed and
            // every dispatched request was answered — a clean exit
            // without any stop signal.
            break;
        }
    }

    // A deadline exit can leave accepted requests still computing, and
    // their completions capture `this`: wait until every one has been
    // answered (into closed connections' void if need be) before the
    // loop's resources can be torn down — the ForecastServer drain
    // contract extends to the socket edge.
    server.drain();
    {
        std::lock_guard<std::mutex> lock(completionMutex);
        completions.clear();
    }
    pendingReqs.clear();
    deadlines.clear();
    deadlinesPending->set(0);
    for (auto &entry : conns)
        closeFd(entry.second->fd);
    if (options.adoptedFd >= 0 &&
        conns.find(options.adoptedFd) != conns.end())
        options.adoptedFd = -1;
    conns.clear();
    activeConnections->set(0);
    closeFd(epollFd);
    epollFd = -1;
}

} // namespace neusight::net
