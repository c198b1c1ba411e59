/**
 * @file
 * Thread-count invariance: a fixed list of forecast requests answers
 * bit-identically whether it runs serially through one ForecastEngine,
 * from four threads at once against that engine and its (by then warm)
 * prediction cache, or through a ForecastServer with one worker or
 * four. Covers every kind the planner exercises — the closed-form
 * strategy sweep, the event simulator with and without jitter, a fixed
 * hybrid plan — plus single-GPU inference and training, on two models
 * and two GPUs.
 */

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace neusight::serve {
namespace {

/** The request list: six kinds on each (model, GPU) pair. */
std::vector<ForecastRequest>
requestList()
{
    std::vector<std::string> lines;
    for (const char *model : {"GPT2-Large", "GPT3-XL"}) {
        for (const char *gpu : {"H100", "A100-40GB"}) {
            const std::string head = std::string("{\"model\":\"") + model +
                                     "\",\"gpu\":\"" + gpu + "\",";
            lines.push_back(head +
                            "\"op\":\"sweep\",\"num_gpus\":4,"
                            "\"global_batch\":16}");
            lines.push_back(head +
                            "\"op\":\"simulate\",\"global_batch\":16,"
                            "\"pp\":2,\"dp\":2,\"micro_batches\":4,"
                            "\"schedule\":\"1f1b\"}");
            lines.push_back(head +
                            "\"op\":\"simulate\",\"global_batch\":16,"
                            "\"pp\":4,\"micro_batches\":8,"
                            "\"schedule\":\"zero-bubble\","
                            "\"jitter\":0.1,\"seed\":11}");
            lines.push_back(head +
                            "\"op\":\"hybrid\",\"global_batch\":16,"
                            "\"tp\":2,\"dp\":2,\"micro_batches\":2,"
                            "\"recompute\":true}");
            lines.push_back(head + "\"op\":\"inference\",\"batch\":4}");
            lines.push_back(head + "\"op\":\"training\",\"batch\":8}");
        }
    }
    std::vector<ForecastRequest> requests;
    for (const std::string &line : lines) {
        ForecastRequest req = requestFromJson(common::Json::parse(line));
        req.backend = "oracle";
        req.tag = std::to_string(requests.size());
        requests.push_back(std::move(req));
    }
    return requests;
}

std::shared_ptr<api::ForecastEngine>
makeEngine()
{
    return std::make_shared<api::ForecastEngine>(
        api::EngineConfig().backend("oracle").cache(1 << 16));
}

/** Every forecast field must match the serial answer bit for bit. */
void
expectSameAnswers(const std::vector<ForecastResult> &serial,
                  const std::vector<ForecastResult> &other,
                  const std::string &arm)
{
    ASSERT_EQ(serial.size(), other.size()) << arm;
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(arm + ", request " + std::to_string(i));
        ASSERT_TRUE(other[i].ok) << other[i].error;
        EXPECT_EQ(other[i].latencyMs, serial[i].latencyMs);
        EXPECT_EQ(other[i].strategy, serial[i].strategy);
        EXPECT_EQ(other[i].commBytes, serial[i].commBytes);
        EXPECT_EQ(other[i].bubbleMs, serial[i].bubbleMs);
        EXPECT_EQ(other[i].exposedDdpMs, serial[i].exposedDdpMs);
    }
}

/** The list through a ForecastServer of @p workers on a fresh engine. */
std::vector<ForecastResult>
serveAll(const std::vector<ForecastRequest> &requests, size_t workers)
{
    const auto engine = makeEngine();
    ServerOptions options;
    options.workers = workers;
    options.cache = engine->predictionCache();
    ForecastServer server(engine, options);
    std::vector<std::future<ForecastResult>> pending;
    for (const ForecastRequest &req : requests)
        pending.push_back(server.submit(req));
    std::vector<ForecastResult> results;
    for (auto &f : pending)
        results.push_back(f.get());
    server.stop();
    return results;
}

TEST(ThreadInvariance, ForecastsDoNotDependOnThreadCount)
{
    setQuiet(true);
    const std::vector<ForecastRequest> requests = requestList();

    const auto engine = makeEngine();
    std::vector<ForecastResult> serial;
    for (const ForecastRequest &req : requests) {
        serial.push_back(engine->forecast(req));
        ASSERT_TRUE(serial.back().ok) << serial.back().error;
    }
    // The list exercises what it claims to: a sweep winner, a bubble,
    // and an exposed DDP tail somewhere.
    bool saw_strategy = false, saw_bubble = false, saw_ddp = false;
    for (const ForecastResult &r : serial) {
        saw_strategy |= !r.strategy.empty();
        saw_bubble |= r.bubbleMs > 0.0;
        saw_ddp |= r.exposedDdpMs > 0.0;
    }
    EXPECT_TRUE(saw_strategy);
    EXPECT_TRUE(saw_bubble);
    EXPECT_TRUE(saw_ddp);

    // Four threads at once on the same engine and prediction cache,
    // each walking the list from a different offset so different
    // kinds overlap.
    constexpr size_t kThreads = 4;
    std::vector<std::vector<ForecastResult>> concurrent(
        kThreads, std::vector<ForecastResult>(requests.size()));
    std::vector<std::thread> pool;
    for (size_t t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            const size_t n = requests.size();
            for (size_t k = 0; k < n; ++k) {
                const size_t i = (k + t * n / kThreads) % n;
                concurrent[t][i] = engine->forecast(requests[i]);
            }
        });
    for (std::thread &th : pool)
        th.join();
    for (size_t t = 0; t < kThreads; ++t)
        expectSameAnswers(serial, concurrent[t],
                          "engine thread " + std::to_string(t));

    expectSameAnswers(serial, serveAll(requests, 1), "server, 1 worker");
    expectSameAnswers(serial, serveAll(requests, 4), "server, 4 workers");
}

} // namespace
} // namespace neusight::serve
