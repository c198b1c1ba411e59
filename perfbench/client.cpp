/**
 * @file
 * perfbench-client: the benchmark's TCP side. One process, at most one
 * thread per connection.
 *
 *   perfbench-client drive --port P --requests FILE --mode open|closed
 *       --connections C [--depth D] [--seconds T] [--cycle] --out FILE
 *     Replays FILE (lines "<due_us>\t<request JSON>") against a
 *     listening neusight-serve. Open loop sends line i at its due
 *     offset on connection i % C and times it from that due time;
 *     closed loop keeps D requests in flight per connection and times
 *     each from its send. Writes raw per-request samples as JSON.
 *
 *   perfbench-client probe --port P --requests FILE --backend B
 *       --predictor PATH [--rounds R] [--pings N] --out FILE
 *     Sends each probe sequentially, checks the reply against
 *     ForecastEngine::forecast run in-process on the same request, then
 *     times R more sequential rounds (RTT minus the reply's service_us)
 *     and N inline pings.
 *
 *   perfbench-client fingerprints --requests FILE
 *     Prints ForecastRequest::fingerprint() of every request line.
 */

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <memory>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <ctime>
#include <stdexcept>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "api/engine.hpp"
#include "common/argparse.hpp"
#include "common/json.hpp"
#include "serve/wire.hpp"

namespace {

using namespace neusight;
using Clock = std::chrono::steady_clock;

/** Seconds a request may stay unanswered after its phase ends. */
constexpr double kGraceSeconds = 10.0;

/** The value of a string option the command cannot do without. */
const std::string &
required(const common::ArgParser &args, const std::string &name)
{
    const std::string &value = args.getString(name);
    if (value.empty())
        throw std::runtime_error("missing --" + name);
    return value;
}

struct Planned
{
    double dueUs = 0.0;
    std::string line;
};

std::vector<Planned>
readPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<Planned> plan;
    std::string raw;
    while (std::getline(in, raw)) {
        if (raw.empty())
            continue;
        const size_t tab = raw.find('\t');
        Planned p;
        if (tab == std::string::npos) {
            p.line = raw;
        } else {
            p.dueUs = std::stod(raw.substr(0, tab));
            p.line = raw.substr(tab + 1);
        }
        if (p.line.empty() || p.line[0] != '{')
            throw std::runtime_error("request line is not an object");
        plan.push_back(std::move(p));
    }
    return plan;
}

int
connectTo(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

/** The request line with a "tag" member inserted first. */
std::string
tagged(const std::string &line, const std::string &tag)
{
    return "{\"tag\":\"" + tag + "\"," + line.substr(1) + "\n";
}

/** Fields of a reply line the load generator needs. */
struct ReplyHead
{
    bool hasTag = false;
    std::string tag;
    bool ok = false;
    std::string code;
};

/** Field scan (no full parse): string values on the wire escape '"',
 *  so the unescaped key patterns below only match real members. */
ReplyHead
scanReply(const std::string &line)
{
    ReplyHead head;
    const std::string tag_key = "\"tag\":\"";
    size_t at = line.find(tag_key);
    if (at != std::string::npos) {
        at += tag_key.size();
        const size_t end = line.find('"', at);
        if (end != std::string::npos) {
            head.hasTag = true;
            head.tag = line.substr(at, end - at);
        }
    }
    head.ok = line.find("\"ok\":true") != std::string::npos;
    const std::string code_key = "\"code\":\"";
    at = line.find(code_key);
    if (!head.ok && at != std::string::npos) {
        at += code_key.size();
        head.code = line.substr(at, line.find('"', at) - at);
    }
    if (!head.ok && head.code.empty())
        head.code = "error";
    return head;
}

double
usSince(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - origin).count();
}

/** What one connection saw. */
struct ConnResult
{
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;
    uint64_t unmatched = 0;
    std::map<std::string, uint64_t> codes;
    std::vector<double> latencyUs;
    /** Reply time of each latencyUs sample, from the phase start. */
    std::vector<double> doneUs;
    std::vector<double> lagUs;
    double lastReplyUs = 0.0;
    std::string error;
};

struct DriveConfig
{
    int port = 0;
    bool open = true;
    size_t connections = 1;
    size_t depth = 1;
    double seconds = 1.0;
    bool cycle = false;
};

/**
 * One connection's whole phase. Open loop: sends plan[i] for i ≡ conn
 * (mod connections) at its due offset. Closed loop: takes the next
 * plan index from @p next_index whenever fewer than depth requests are
 * in flight, until the phase's seconds run out.
 */
void
runConnection(const DriveConfig &cfg, const std::vector<Planned> &plan,
              size_t conn, std::atomic<size_t> &next_index,
              Clock::time_point origin, ConnResult &out)
{
    struct Pending
    {
        double dueUs;
        double sentUs;
    };
    std::unordered_map<uint64_t, Pending> pending;
    const int fd = connectTo(cfg.port);
    if (fd < 0) {
        out.error = std::string("connect: ") + strerror(errno);
        if (!cfg.open) {
            // The closed loop's first window could not even be sent.
            out.attempted += cfg.depth;
            out.failed += cfg.depth;
            out.codes["connect_failed"] += cfg.depth;
        }
    } else {
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    }
    const double phase_end_us = cfg.seconds * 1e6;
    const double hard_end_us = phase_end_us + kGraceSeconds * 1e6;

    size_t open_next = conn; // next plan index of this connection
    bool exhausted = false;  // closed loop without --cycle: plan used up
    uint64_t seq = 0;
    double slot_free_us = 0.0; // closed loop: when the next send was due
    std::string outbuf;
    size_t out_off = 0;
    serve::LineFramer framer;
    std::string line;
    char buf[65536];
    bool dead = fd < 0;

    const auto fail_pending = [&](const char *code) {
        out.failed += pending.size();
        out.codes[code] += pending.size();
        pending.clear();
    };

    while (!dead) {
        double now = usSince(origin, Clock::now());
        // Queue every request that is due.
        if (cfg.open) {
            while (open_next < plan.size() &&
                   plan[open_next].dueUs <= now &&
                   plan[open_next].dueUs < phase_end_us) {
                const uint64_t tag = seq++ * cfg.connections + conn;
                outbuf += tagged(plan[open_next].line, std::to_string(tag));
                pending[tag] = Pending{plan[open_next].dueUs, now};
                out.lagUs.push_back(now - plan[open_next].dueUs);
                ++out.attempted;
                open_next += cfg.connections;
            }
        } else {
            while (pending.size() < cfg.depth && now < phase_end_us) {
                size_t idx = next_index.fetch_add(1);
                if (idx >= plan.size()) {
                    if (!cfg.cycle) {
                        exhausted = true;
                        break;
                    }
                    idx %= plan.size();
                }
                const uint64_t tag = seq++ * cfg.connections + conn;
                outbuf += tagged(plan[idx].line, std::to_string(tag));
                pending[tag] = Pending{now, now};
                out.lagUs.push_back(now - slot_free_us);
                slot_free_us = now;
                ++out.attempted;
            }
        }
        const bool more_to_send =
            cfg.open ? (open_next < plan.size() &&
                        plan[open_next].dueUs < phase_end_us)
                     : now < phase_end_us && !exhausted;
        if (!more_to_send && pending.empty() && out_off == outbuf.size())
            break;
        if (now >= hard_end_us) {
            fail_pending("client_timeout");
            break;
        }

        // Sleep until the next due send (microsecond precision: a
        // millisecond poll timeout would make every send late).
        double wait_us = 50e3;
        if (cfg.open && open_next < plan.size())
            wait_us = std::max(0.0, std::min(wait_us,
                                             plan[open_next].dueUs - now));
        const timespec timeout{
            static_cast<time_t>(wait_us / 1e6),
            static_cast<long>(std::fmod(wait_us, 1e6) * 1e3)};
        pollfd pfd{fd, POLLIN, 0};
        if (out_off < outbuf.size())
            pfd.events |= POLLOUT;
        const int rc = ::ppoll(&pfd, 1, &timeout, nullptr);
        if (rc < 0 && errno != EINTR) {
            out.error = std::string("poll: ") + strerror(errno);
            dead = true;
            break;
        }
        if (rc > 0 && (pfd.revents & POLLOUT)) {
            const ssize_t n = ::send(fd, outbuf.data() + out_off,
                                     outbuf.size() - out_off, MSG_NOSIGNAL);
            if (n > 0) {
                out_off += static_cast<size_t>(n);
                if (out_off == outbuf.size()) {
                    outbuf.clear();
                    out_off = 0;
                }
            } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR) {
                out.error = std::string("send: ") + strerror(errno);
                dead = true;
            }
        }
        if (rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
            for (;;) {
                const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
                if (n > 0) {
                    framer.feed(buf, static_cast<size_t>(n));
                    continue;
                }
                if (n == 0) {
                    out.error = "server closed the connection";
                    dead = true;
                } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                           errno != EINTR) {
                    out.error = std::string("recv: ") + strerror(errno);
                    dead = true;
                }
                break;
            }
            const Clock::time_point t_reply = Clock::now();
            const double reply_us = usSince(origin, t_reply);
            while (framer.next(line) == serve::LineFramer::Event::Line) {
                const ReplyHead head = scanReply(line);
                uint64_t tag = 0;
                bool known = head.hasTag && !head.tag.empty();
                if (known) {
                    char *end = nullptr;
                    tag = std::strtoull(head.tag.c_str(), &end, 10);
                    known = *end == '\0' && pending.count(tag) > 0;
                }
                if (!known) {
                    ++out.unmatched;
                    continue;
                }
                const Pending p = pending[tag];
                pending.erase(tag);
                if (head.ok) {
                    ++out.ok;
                    out.latencyUs.push_back(reply_us - p.dueUs);
                    out.doneUs.push_back(reply_us);
                } else {
                    ++out.failed;
                    ++out.codes[head.code];
                }
                if (!cfg.open)
                    slot_free_us = reply_us;
                out.lastReplyUs = reply_us;
            }
        }
    }
    if (dead) {
        fail_pending("connection_lost");
        // Open loop: requests scheduled in the phase but never sent
        // still count as attempted and failed.
        if (cfg.open) {
            for (; open_next < plan.size() &&
                   plan[open_next].dueUs < phase_end_us;
                 open_next += cfg.connections) {
                ++out.attempted;
                ++out.failed;
                ++out.codes["not_sent"];
            }
        }
    }
    if (fd >= 0)
        ::close(fd);
}

void
writeSamples(std::FILE *f, const char *key, const std::vector<double> &v)
{
    std::fprintf(f, "\"%s\":[", key);
    for (size_t i = 0; i < v.size(); ++i)
        std::fprintf(f, i ? ",%.3f" : "%.3f", v[i]);
    std::fprintf(f, "]");
}

int
drive(const common::ArgParser &args)
{
    DriveConfig cfg;
    cfg.port = static_cast<int>(args.getInt("port"));
    const std::string mode = args.getString("mode");
    if (mode != "open" && mode != "closed")
        throw std::runtime_error("--mode must be open or closed");
    cfg.open = mode == "open";
    const int64_t connections = args.getInt("connections");
    const int64_t depth = args.getInt("depth");
    if (connections < 1 || connections > 4 || depth < 1)
        throw std::runtime_error("need 1..4 connections and depth >= 1");
    cfg.connections = static_cast<size_t>(connections);
    cfg.depth = static_cast<size_t>(depth);
    cfg.seconds = args.getDouble("seconds");
    cfg.cycle = args.getFlag("cycle");
    const std::vector<Planned> plan = readPlan(required(args, "requests"));
    if (plan.empty())
        throw std::runtime_error("empty request plan");

    std::vector<ConnResult> results(cfg.connections);
    std::atomic<size_t> next_index{0};
    const Clock::time_point origin = Clock::now();
    {
        std::vector<std::thread> threads;
        for (size_t c = 0; c < cfg.connections; ++c)
            threads.emplace_back([&, c] {
                runConnection(cfg, plan, c, next_index, origin, results[c]);
            });
        for (auto &t : threads)
            t.join();
    }

    ConnResult total;
    std::vector<std::string> errors;
    for (auto &r : results) {
        total.attempted += r.attempted;
        total.ok += r.ok;
        total.failed += r.failed;
        total.unmatched += r.unmatched;
        for (const auto &[code, n] : r.codes)
            total.codes[code] += n;
        total.latencyUs.insert(total.latencyUs.end(), r.latencyUs.begin(),
                               r.latencyUs.end());
        total.doneUs.insert(total.doneUs.end(), r.doneUs.begin(),
                            r.doneUs.end());
        total.lagUs.insert(total.lagUs.end(), r.lagUs.begin(),
                           r.lagUs.end());
        total.lastReplyUs = std::max(total.lastReplyUs, r.lastReplyUs);
        if (!r.error.empty())
            errors.push_back(r.error);
    }
    const std::string &out_path = required(args, "out");
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot write " + out_path);
    // The phase origin on CLOCK_MONOTONIC (steady_clock on Linux), so
    // the runner can line its host samples up with the client's windows.
    const double origin_s =
        std::chrono::duration<double>(origin.time_since_epoch()).count();
    std::fprintf(f,
                 "{\"origin_s\":%.6f,\"attempted\":%llu,\"ok\":%llu,"
                 "\"failed\":%llu,\"unmatched\":%llu,\"elapsed_us\":%.3f,"
                 "\"codes\":{",
                 origin_s,
                 static_cast<unsigned long long>(total.attempted),
                 static_cast<unsigned long long>(total.ok),
                 static_cast<unsigned long long>(total.failed),
                 static_cast<unsigned long long>(total.unmatched),
                 total.lastReplyUs);
    bool first = true;
    for (const auto &[code, n] : total.codes) {
        std::fprintf(f, "%s\"%s\":%llu", first ? "" : ",", code.c_str(),
                     static_cast<unsigned long long>(n));
        first = false;
    }
    std::fprintf(f, "},\"errors\":%s,",
                 common::Json(errors.empty() ? "" : errors.front())
                     .dump(0)
                     .c_str());
    writeSamples(f, "latency_us", total.latencyUs);
    std::fprintf(f, ",");
    writeSamples(f, "done_us", total.doneUs);
    std::fprintf(f, ",");
    writeSamples(f, "lag_us", total.lagUs);
    std::fprintf(f, "}\n");
    std::fclose(f);
    return 0;
}

/** Blocking line-oriented connection for the sequential probe. */
class SyncConn
{
  public:
    explicit SyncConn(int port) : fd(connectTo(port))
    {
        if (fd < 0)
            throw std::runtime_error("probe: cannot connect");
        timeval tv{60, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    ~SyncConn() { ::close(fd); }
    SyncConn(const SyncConn &) = delete;
    SyncConn &operator=(const SyncConn &) = delete;

    std::string roundTrip(const std::string &text)
    {
        size_t off = 0;
        while (off < text.size()) {
            const ssize_t n = ::send(fd, text.data() + off,
                                     text.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("probe: send failed");
            off += static_cast<size_t>(n);
        }
        std::string line;
        char buf[65536];
        while (framer.next(line) != serve::LineFramer::Event::Line) {
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0)
                throw std::runtime_error("probe: connection lost");
            framer.feed(buf, static_cast<size_t>(n));
        }
        return line;
    }

  private:
    int fd;
    serve::LineFramer framer;
};

/** Reply members that carry the forecast (timing and cache fields
 *  legitimately differ between the server and a fresh engine). */
const char *const kAnswerFields[] = {"ok",      "error",      "latency_ms",
                                     "oom",     "strategy",   "comm_bytes",
                                     "bubble_ms", "exposed_ddp_ms",
                                     "kernels"};

std::string
fieldText(const common::Json &obj, const char *key)
{
    return obj.has(key) ? obj.at(key).dump(0) : std::string("<absent>");
}

int
probe(const common::ArgParser &args)
{
    const std::vector<Planned> plan = readPlan(required(args, "requests"));
    auto engine = std::make_shared<api::ForecastEngine>(
        api::EngineConfig()
            .backend(required(args, "backend"))
            .predictor(required(args, "predictor")));
    SyncConn conn(static_cast<int>(args.getInt("port")));
    const int64_t rounds = args.getInt("rounds");
    const int64_t pings = args.getInt("pings");

    common::Json mismatches{common::Json::Array{}};
    common::Json replies{common::Json::Object{}};
    std::vector<double> outside_us;
    std::vector<double> ping_us;
    for (size_t i = 0; i < plan.size(); ++i) {
        const std::string tag = "probe" + std::to_string(i);
        const common::Json reply =
            common::Json::parse(conn.roundTrip(tagged(plan[i].line, tag)));
        serve::ForecastRequest req =
            serve::requestFromJson(common::Json::parse(plan[i].line));
        req.tag = tag;
        const common::Json expect =
            serve::resultToJson(engine->forecast(req));
        std::string diff;
        if (fieldText(reply, "tag") != fieldText(expect, "tag"))
            diff = "tag " + fieldText(reply, "tag");
        for (const char *key : kAnswerFields)
            if (fieldText(reply, key) != fieldText(expect, key))
                diff += std::string(diff.empty() ? "" : "; ") + key +
                        ": served " + fieldText(reply, key) +
                        " vs in-process " + fieldText(expect, key);
        if (!diff.empty()) {
            common::Json m;
            m.set("request", plan[i].line);
            m.set("diff", diff);
            mismatches.push(m);
        }
        replies.set(tag, reply);
    }
    for (int64_t r = 0; r < rounds; ++r)
        for (size_t i = 0; i < plan.size(); ++i) {
            const std::string text =
                tagged(plan[i].line, "round" + std::to_string(i));
            const Clock::time_point t0 = Clock::now();
            const common::Json reply =
                common::Json::parse(conn.roundTrip(text));
            const double rtt = usSince(t0, Clock::now());
            outside_us.push_back(rtt - reply.numberOr("service_us", 0.0));
        }
    for (int64_t p = 0; p < pings; ++p) {
        const Clock::time_point t0 = Clock::now();
        conn.roundTrip("{\"op\":\"ping\",\"tag\":\"ping\"}\n");
        ping_us.push_back(usSince(t0, Clock::now()));
    }

    common::Json out;
    out.set("checked", static_cast<uint64_t>(plan.size()));
    out.set("mismatches", mismatches);
    out.set("replies", replies);
    common::Json outside{common::Json::Array{}};
    for (double v : outside_us)
        outside.push(v);
    common::Json ping{common::Json::Array{}};
    for (double v : ping_us)
        ping.push(v);
    out.set("outside_us", outside);
    out.set("ping_us", ping);
    std::ofstream(required(args, "out")) << out.dump(0) << "\n";
    return 0;
}

int
fingerprints(const common::ArgParser &args)
{
    for (const Planned &p : readPlan(required(args, "requests")))
        std::printf("%s\n", serve::requestFromJson(
                                common::Json::parse(p.line))
                                .fingerprint()
                                .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: perfbench-client drive|probe|fingerprints "
                     "[--key value ...]\n");
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd != "drive" && cmd != "probe" && cmd != "fingerprints") {
        std::fprintf(stderr, "perfbench-client: unknown command %s\n",
                     cmd.c_str());
        return 2;
    }
    try {
        common::ArgParser args("perfbench-client " + cmd,
                               "the forecast-service benchmark's TCP side");
        args.addString("requests", "",
                       "request lines: \"<due_us>\\t<JSON>\" or JSON");
        if (cmd != "fingerprints") {
            args.addInt("port", 0, "neusight-serve's loopback port");
            args.addString("out", "", "result JSON path");
        }
        if (cmd == "drive") {
            args.addString("mode", "", "open or closed loop");
            args.addInt("connections", 1, "connections (1..4)");
            args.addInt("depth", 1, "closed loop: in flight per connection");
            args.addDouble("seconds", 1.0, "phase length");
            args.addFlag("cycle", "closed loop: reuse the requests");
        } else if (cmd == "probe") {
            args.addString("backend", "", "the server's backend");
            args.addString("predictor", "", "the server's predictor path");
            args.addInt("rounds", 0, "timed sequential rounds of the probes");
            args.addInt("pings", 0, "timed inline pings");
        }
        // argv[1] (the command) stands in for the program name.
        if (!args.parse(argc - 1, argv + 1))
            return 0;
        if (cmd == "drive")
            return drive(args);
        if (cmd == "probe")
            return probe(args);
        return fingerprints(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench-client: %s\n", e.what());
        return 1;
    }
}
