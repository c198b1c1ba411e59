/**
 * @file
 * JSON line protocol for the forecast server: one request object per
 * line in, one result object per line out, so forecast workloads can be
 * scripted from files, pipes, or sockets (src/net/) without any new
 * dependency — the reader/writer is common/json. Byte-stream transports
 * reassemble partial lines through LineFramer below.
 *
 * Request lines:
 *   {"op":"inference","model":"GPT3-XL","batch":4,"gpu":"H100"}
 *   {"op":"decode","model":"GPT3-XL","batch":4,"past":2048,"gpu":"H100"}
 *   {"op":"training","model":"GPT2-Large","batch":8,"gpu":"A100-40GB"}
 *   {"op":"distributed","model":"GPT2-Large","gpu":"H100","num_gpus":4,
 *    "global_batch":8,"strategy":"tensor"}
 *   {"op":"hybrid","model":"GPT2-Large","gpu":"H100","global_batch":8,
 *    "tp":2,"dp":2,"micro_batches":2,"recompute":true}
 *   {"op":"sweep","model":"GPT2-Large","gpu":"H100","num_gpus":4,
 *    "global_batch":8}
 * Control ops carry no workload:
 *   {"op":"stats"}   — merged metrics-registry snapshot
 *   {"op":"ping"}    — liveness probe, answered inline by the socket
 *                      layer ({"ok":true,"pong":true})
 * Optional fields: "tag" (echoed), "dtype" ("fp32"|"fp16"), "backend"
 * (alias "predictor": registry name of the predictor answering this
 * request — one server hosts heterogeneous backends side by side),
 * "timeout_ms" (per-request deadline; expired requests answer
 * {"ok":false,"code":"timeout"}), and for multi-GPU requests
 * "micro_batches", "schedule" ("gpipe"|"1f1b"|"interleaved"),
 * "virtual_stages", "recompute", "link_gbps". "gpu" accepts a Table-4
 * name or a spec-JSON path (gpusim::resolveGpu). Error replies carry a
 * machine-readable "code" ("timeout"|"overload"|"unavailable"|
 * "draining") beside the human-readable "error" text.
 */

#ifndef NEUSIGHT_SERVE_WIRE_HPP
#define NEUSIGHT_SERVE_WIRE_HPP

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "serve/request.hpp"

namespace neusight::serve {

/**
 * Incremental line framer for byte-stream transports. Sockets deliver
 * the JSON-lines protocol in arbitrary chunks — a request line may
 * arrive split across reads or merged with its neighbors — so the
 * stream side feeds raw bytes in and pulls complete lines out. A bound
 * on the line length protects the server from a client that never sends
 * a newline: the oversized line's payload is discarded as it streams
 * through (memory stays bounded) and reported once, so the caller can
 * answer with an error and keep or drop the connection.
 *
 * Trailing '\r' is stripped (telnet/CRLF clients). The framer is a
 * pure byte machine: JSON validation stays with requestFromJson.
 */
class LineFramer
{
  public:
    /** What next() produced. */
    enum class Event
    {
        /** No complete line buffered; feed more bytes. */
        None,
        /** One complete line, in @p out (newline stripped). */
        Line,
        /** A line exceeded maxLineBytes; its payload was discarded. */
        Oversized,
    };

    explicit LineFramer(size_t max_line_bytes = kDefaultMaxLineBytes);

    /** Append @p size raw bytes from the transport. */
    void feed(const char *data, size_t size);

    /**
     * Pull the next framing event. Call until it returns None, then
     * feed more bytes. Line fills @p out; Oversized reports one
     * over-long line (already consumed up to its terminating newline —
     * if the newline has not arrived yet, subsequent bytes of that
     * line keep being discarded).
     */
    Event next(std::string &out);

    /** Bytes buffered waiting for a newline. */
    size_t buffered() const;

    /** True while inside an oversized line whose newline is pending. */
    bool discarding() const { return discardingLine; }

    static constexpr size_t kDefaultMaxLineBytes = 1 << 20;

  private:
    size_t maxLineBytes;
    std::string pending;
    /** Start of the unconsumed region (compacted lazily, so pulling
     *  many merged lines out of one big feed stays linear). */
    size_t consumed = 0;
    /** End of the region already scanned for '\n'. */
    size_t scanned = 0;
    bool discardingLine = false;
};

/**
 * Decode one request object. fatal() (throws) on unknown ops, missing
 * fields, or unresolvable GPUs — callers reading untrusted scripts
 * should catch and report per line.
 */
ForecastRequest requestFromJson(const common::Json &json);

/** Encode a request back to its wire object (round-trips through
 *  requestFromJson up to GPU resolution). */
common::Json requestToJson(const ForecastRequest &request);

/**
 * Encode a result as its wire object. "tag", when set, is the first
 * member: the shard router splices replies on that prefix.
 */
common::Json resultToJson(const ForecastResult &result);

/** The answer to a "ping" op, "tag" first as in resultToJson. */
common::Json pongToJson(const std::string &tag);

/**
 * True for lines a request stream ignores: blank, or first
 * non-whitespace character '#'. One definition shared by
 * readRequestScript and the neusight-serve REPL so script and REPL
 * mode always parse the same input identically.
 */
bool isSkippableRequestLine(const std::string &line);

/**
 * Read a JSON-lines request script: one object per line; skippable
 * lines (see isSkippableRequestLine) are ignored. fatal() with the
 * offending line number on parse errors.
 */
std::vector<ForecastRequest> readRequestScript(std::istream &in);

} // namespace neusight::serve

#endif // NEUSIGHT_SERVE_WIRE_HPP
