/**
 * @file
 * perfbench-layers: times the public functions of each layer
 * in-process, on the same generated requests a workload sends over
 * TCP. Every timing leaves as raw samples (the runner computes every
 * percentile from them); counts leave as exact values.
 *
 *   perfbench-layers --requests FILE --warm FILE --probes FILE
 *       --backend B --predictor PATH [--depth D] [--budget S]
 *       [--train] [--trace-out FILE] --out FILE
 *
 * --requests are the workload's timed requests, --warm its warm-up set
 * (replayed first, as the server's set-up does), --probes its fixed
 * probe set, which supplies the ops a workload does not carry. --train
 * also times the NeuSight fit. --budget bounds each timing loop in
 * seconds. With --trace-out every measured block is a span in a Chrome
 * trace, next to the serve layer's own spans from the in-process
 * ForecastServer replay.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/engine.hpp"
#include "common/argparse.hpp"
#include "common/json.hpp"
#include "core/kernel_cache.hpp"
#include "core/predictor.hpp"
#include "core/tile_db.hpp"
#include "dataset/dataset.hpp"
#include "dist/parallel.hpp"
#include "eval/oracle.hpp"
#include "graph/model_io.hpp"
#include "graph/models.hpp"
#include "nn/module.hpp"
#include "obs/trace.hpp"
#include "serve/prediction_cache.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace neusight;
using Clock = std::chrono::steady_clock;

/** Requests of a fixed-count measurement (exact counts repeat). */
constexpr size_t kGraphRequests = 128;
constexpr size_t kPlanRequests = 6;
constexpr size_t kMlpRows = 256;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Input
{
    std::vector<std::string> lines;
    std::vector<serve::ForecastRequest> requests;
};

Input
readRequests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    Input input;
    std::string raw;
    while (std::getline(in, raw)) {
        if (raw.empty())
            continue;
        const size_t tab = raw.find('\t');
        std::string line = tab == std::string::npos ? raw : raw.substr(tab + 1);
        input.requests.push_back(
            serve::requestFromJson(common::Json::parse(line)));
        input.lines.push_back(std::move(line));
    }
    return input;
}

class Report
{
  public:
    std::vector<double> &samples(const std::string &name)
    {
        return raw[name];
    }
    void value(const std::string &name, double v) { values[name] = v; }

    void write(const std::string &path) const
    {
        common::Json samples_json{common::Json::Object{}};
        for (const auto &[name, v] : raw) {
            common::Json arr{common::Json::Array{}};
            for (double x : v)
                arr.push(x);
            samples_json.set(name, arr);
        }
        common::Json values_json{common::Json::Object{}};
        for (const auto &[name, v] : values)
            values_json.set(name, v);
        common::Json out;
        out.set("samples", samples_json);
        out.set("values", values_json);
        std::ofstream(path) << out.dump(0) << "\n";
    }

  private:
    std::map<std::string, std::vector<double>> raw;
    std::map<std::string, double> values;
};

/**
 * Run @p pass repeatedly until @p budget seconds pass (at least
 * @p min_passes times); each pass returns its own sample.
 */
void
repeatFor(double budget, size_t min_passes, std::vector<double> &out,
          const std::function<double()> &pass)
{
    const Clock::time_point t0 = Clock::now();
    for (size_t n = 0; n < min_passes || secondsSince(t0) < budget; ++n)
        out.push_back(pass());
}

bool
isGraphKind(serve::RequestKind kind)
{
    return kind == serve::RequestKind::Inference ||
           kind == serve::RequestKind::DecodeStep ||
           kind == serve::RequestKind::Training;
}

/** The per-GPU graph the engine builds for a single-GPU request. */
graph::KernelGraph
buildGraph(const serve::ForecastRequest &req)
{
    const graph::ModelConfig model = graph::resolveModel(req.model);
    if (req.kind == serve::RequestKind::Inference)
        return graph::buildInferenceGraph(model, req.batch, req.dtype);
    if (req.kind == serve::RequestKind::DecodeStep)
        return graph::buildDecodeGraph(model, req.batch, req.pastLen,
                                       req.dtype);
    return graph::buildTrainingGraph(model, req.batch, req.dtype);
}

std::vector<gpusim::KernelDesc>
computeKernels(const graph::KernelGraph &g)
{
    std::vector<gpusim::KernelDesc> descs;
    for (const graph::KernelNode &node : g.nodes)
        if (node.kind == graph::NodeKind::Compute)
            descs.push_back(node.kernel);
    return descs;
}

/** The multi-GPU server of a sweep/simulate request, as the engine
 *  derives it. */
dist::ServerConfig
serverFor(const serve::ForecastRequest &req)
{
    dist::ServerConfig server;
    server.systemName = req.gpu.name + "-server";
    server.numGpus = req.numGpus;
    server.linkGBps = req.linkGBps;
    server.setGpu(req.gpu);
    return server;
}

/** Up to @p n requests of @p kinds from @p primary, else from
 *  @p fallback (the probe set). */
std::vector<serve::ForecastRequest>
pick(const Input &primary, const Input &fallback,
     const std::function<bool(serve::RequestKind)> &kinds, size_t n)
{
    std::vector<serve::ForecastRequest> out;
    for (const auto &req : primary.requests)
        if (kinds(req.kind) && out.size() < n)
            out.push_back(req);
    if (out.empty())
        for (const auto &req : fallback.requests)
            if (kinds(req.kind) && out.size() < n)
                out.push_back(req);
    return out;
}

/**
 * The serve layer in-process: a ForecastServer with the CLI's default
 * options answers @p timed with @p depth requests in flight; the
 * server's own "serve.queue_wait" / "serve.execute" spans give the raw
 * per-request samples.
 */
void
replayServe(const std::string &backend, const std::string &predictor,
            const Input &warm, const Input &timed, size_t depth,
            double budget, Report &report)
{
    auto engine = std::make_shared<api::ForecastEngine>(
        api::EngineConfig().backend(backend).predictor(predictor));
    serve::ServerOptions options;
    options.cache = engine->predictionCache();
    serve::ForecastServer server(engine, options);
    for (const auto &req : warm.requests)
        server.submit(req).get();

    obs::Tracer &tracer = obs::Tracer::global();
    const bool was_enabled = tracer.enabled();
    tracer.setEnabled(true);
    const double start_us = tracer.nowUs();
    std::mutex mutex;
    std::condition_variable cv;
    size_t in_flight = 0;
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < timed.requests.size() && secondsSince(t0) < budget;
         ++i) {
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return in_flight < depth; });
            ++in_flight;
        }
        const auto done = [&](serve::ForecastResult) {
            std::lock_guard<std::mutex> lock(mutex);
            --in_flight;
            cv.notify_all();
        };
        if (!server.trySubmit(timed.requests[i], done)) {
            std::lock_guard<std::mutex> lock(mutex);
            --in_flight;
        }
    }
    server.drain();
    tracer.setEnabled(was_enabled);
    for (const obs::TraceEvent &e : tracer.events()) {
        if (e.startUs < start_us)
            continue;
        if (e.name == "serve.queue_wait")
            report.samples("serve.queue_wait_us").push_back(e.durationUs);
        else if (e.name == "serve.execute")
            report.samples("serve.execute_us").push_back(e.durationUs);
    }
}

struct Options
{
    std::string backend;
    std::string predictor;
    size_t depth = 32;
    double budget = 0.5;
    bool train = false;
    std::string traceOut;
};

void
measure(const Options &opt, const Input &timed, const Input &warm,
        const Input &probes, Report &report)
{
    // net: wire decode and encode of the workload's lines.
    {
        obs::TraceSpan span("layer.net.decode", "bench");
        std::string joined;
        for (const auto &line : timed.lines)
            joined += line + "\n";
        repeatFor(opt.budget, 3, report.samples("net.decode_us"), [&] {
            const Clock::time_point t0 = Clock::now();
            serve::LineFramer framer;
            framer.feed(joined.data(), joined.size());
            std::string line;
            size_t n = 0;
            while (framer.next(line) == serve::LineFramer::Event::Line) {
                serve::requestFromJson(common::Json::parse(line));
                ++n;
            }
            return secondsSince(t0) * 1e6 / static_cast<double>(n);
        });
    }

    // api: ForecastEngine::forecast per op on a warmed engine.
    std::vector<serve::ForecastResult> results;
    {
        obs::TraceSpan span("layer.api.forecast", "bench");
        api::ForecastEngine engine(
            api::EngineConfig().backend(opt.backend).predictor(opt.predictor));
        for (const auto &req : warm.requests)
            engine.forecast(req);
        std::set<std::string> seen;
        const Clock::time_point t0 = Clock::now();
        for (const auto &req : timed.requests) {
            if (secondsSince(t0) >= 4 * opt.budget)
                break;
            const Clock::time_point t1 = Clock::now();
            results.push_back(engine.forecast(req));
            const std::string op = serve::requestKindName(req.kind);
            report.samples("engine.forecast_us." + op)
                .push_back(secondsSince(t1) * 1e6);
            seen.insert(op);
        }
        for (const auto &req : probes.requests) {
            const std::string op = serve::requestKindName(req.kind);
            if (seen.count(op))
                continue;
            for (int r = 0; r < 5; ++r) {
                const Clock::time_point t1 = Clock::now();
                engine.forecast(req);
                report.samples("engine.forecast_us." + op)
                    .push_back(secondsSince(t1) * 1e6);
            }
        }
    }
    {
        obs::TraceSpan span("layer.net.encode", "bench");
        repeatFor(opt.budget, 3, report.samples("net.encode_us"), [&] {
            const Clock::time_point t0 = Clock::now();
            size_t bytes = 0;
            for (const auto &r : results)
                bytes += serve::resultToJson(r).dump(0).size();
            (void)bytes;
            return secondsSince(t0) * 1e6 /
                   static_cast<double>(results.size());
        });
    }

    // graph: construction plus exact kernel counts.
    const std::vector<serve::ForecastRequest> graph_reqs =
        pick(timed, probes, isGraphKind, kGraphRequests);
    std::vector<graph::KernelGraph> graphs;
    {
        obs::TraceSpan span("layer.graph.build", "bench");
        for (const auto &req : graph_reqs) {
            const Clock::time_point t0 = Clock::now();
            graphs.push_back(buildGraph(req));
            report.samples("graph.build_us").push_back(secondsSince(t0) * 1e6);
        }
    }
    std::vector<std::vector<gpusim::KernelDesc>> kernels;
    std::vector<std::string> keys;
    for (size_t i = 0; i < graphs.size(); ++i) {
        kernels.push_back(computeKernels(graphs[i]));
        for (const auto &desc : kernels.back())
            keys.push_back(core::cacheFingerprint(desc, graph_reqs[i].gpu));
    }
    const std::unordered_set<std::string> unique_keys(keys.begin(),
                                                      keys.end());
    report.value("graph.kernels_per_request",
                 static_cast<double>(keys.size()) /
                     static_cast<double>(graphs.size()));
    report.value("graph.unique_kernel_frac",
                 static_cast<double>(unique_keys.size()) /
                     static_cast<double>(keys.size()));

    // core: fingerprints, uncached batched prediction, tile lookups.
    {
        obs::TraceSpan span("layer.core.fingerprint", "bench");
        repeatFor(opt.budget, 3, report.samples("core.fingerprint_ns"), [&] {
            const Clock::time_point t0 = Clock::now();
            size_t bytes = 0;
            for (size_t i = 0; i < graphs.size(); ++i)
                for (const auto &desc : kernels[i])
                    bytes +=
                        core::cacheFingerprint(desc, graph_reqs[i].gpu).size();
            (void)bytes;
            return secondsSince(t0) * 1e9 / static_cast<double>(keys.size());
        });
    }
    {
        obs::TraceSpan span("layer.core.predict_kernels", "bench");
        auto registry = api::PredictorRegistry::withBuiltins(opt.predictor);
        const graph::LatencyPredictor &raw = registry->get(opt.backend);
        const Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < graphs.size() &&
                           (i < 3 || secondsSince(t0) < 2 * opt.budget);
             ++i) {
            const Clock::time_point t1 = Clock::now();
            raw.predictKernelsMs(kernels[i], graph_reqs[i].gpu);
            report.samples("core.predict_kernels_us")
                .push_back(secondsSince(t1) * 1e6);
        }
    }
    {
        obs::TraceSpan span("layer.gpusim.oracle", "bench");
        const eval::SimulatorOracle oracle;
        repeatFor(opt.budget, 1, report.samples("gpusim.oracle_kernel_us"),
                  [&] {
                      const Clock::time_point t0 = Clock::now();
                      size_t n = 0;
                      for (size_t i = 0; i < graphs.size() && n < 4096; ++i)
                          for (const auto &desc : kernels[i]) {
                              oracle.predictKernelMs(desc, graph_reqs[i].gpu);
                              ++n;
                          }
                      return secondsSince(t0) * 1e6 / static_cast<double>(n);
                  });
    }
    std::map<gpusim::OpType, dataset::OperatorDataset> corpus;
    {
        obs::TraceSpan span("layer.dataset.generate", "bench");
        const Clock::time_point t0 = Clock::now();
        corpus = dataset::generateOperatorData(gpusim::nvidiaTrainingSet(),
                                               dataset::SamplerConfig{});
        report.samples("dataset.generate_s").push_back(secondsSince(t0));
    }
    {
        obs::TraceSpan span("layer.core.tile_lookup", "bench");
        core::TileDatabase tiles;
        for (const auto &[type, data] : corpus)
            for (const auto &sample : data.samples)
                tiles.record(sample.desc, sample.launch.tile.dims,
                             gpusim::findGpu(sample.gpuName));
        const std::set<gpusim::OpType> learned = {
            gpusim::OpType::BatchedMatmul, gpusim::OpType::FullyConnected,
            gpusim::OpType::Elementwise, gpusim::OpType::Softmax,
            gpusim::OpType::LayerNorm};
        std::vector<std::vector<gpusim::KernelDesc>> queries(graphs.size());
        for (size_t i = 0; i < graphs.size(); ++i)
            for (auto desc : kernels[i])
                if (learned.count(desc.type)) {
                    desc.opName = core::canonicalOpName(desc.opName);
                    queries[i].push_back(std::move(desc));
                }
        const Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < graphs.size() &&
                           (i < 3 || secondsSince(t0) < opt.budget);
             ++i) {
            if (queries[i].empty())
                continue;
            const Clock::time_point t1 = Clock::now();
            tiles.lookupBatch(queries[i], graph_reqs[i].gpu);
            report.samples("core.tile_lookup_ns")
                .push_back(secondsSince(t1) * 1e9 /
                           static_cast<double>(queries[i].size()));
        }
    }

    // nn: the MLP rows of the NeuSight predictor's shape, both lanes.
    {
        obs::TraceSpan span("layer.nn.infer_rows", "bench");
        const core::PredictorConfig pcfg;
        nn::MlpConfig mcfg;
        mcfg.inputDim = 5;
        mcfg.hiddenDim = pcfg.hiddenDim;
        mcfg.hiddenLayers = pcfg.hiddenLayers;
        mcfg.outputDim = 2;
        nn::Mlp mlp(mcfg);
        mlp.syncF32();
        Matrix x(kMlpRows, mcfg.inputDim);
        std::mt19937_64 rng(7);
        std::uniform_real_distribution<double> u(-1.0, 1.0);
        for (size_t r = 0; r < x.rows(); ++r)
            for (size_t c = 0; c < x.cols(); ++c)
                x.at(r, c) = u(rng);
        const MatrixF32 x32 = MatrixF32::fromMatrix(x);
        repeatFor(opt.budget, 3, report.samples("nn.infer_rows_per_s.f64"),
                  [&] {
                      const Clock::time_point t0 = Clock::now();
                      const Matrix y = mlp.inferRows(x);
                      return static_cast<double>(y.rows()) / secondsSince(t0);
                  });
        repeatFor(opt.budget, 3, report.samples("nn.infer_rows_per_s.f32"),
                  [&] {
                      const Clock::time_point t0 = Clock::now();
                      const MatrixF32 y = mlp.inferRowsF32(x32);
                      return static_cast<double>(y.rows()) / secondsSince(t0);
                  });
    }
    if (opt.train) {
        obs::TraceSpan span("layer.nn.train", "bench");
        const Clock::time_point t0 = Clock::now();
        core::NeuSight fresh;
        fresh.train(corpus);
        report.samples("nn.train_s").push_back(secondsSince(t0));
    }

    // dist and sim: the sweep and the event simulator on the engine's
    // cached backend, as the server runs them.
    {
        api::ForecastEngine engine(
            api::EngineConfig().backend(opt.backend).predictor(opt.predictor));
        const graph::LatencyPredictor &predictor = engine.backend();
        {
            obs::TraceSpan span("layer.dist.sweep", "bench");
            dist::SweepStats total;
            for (const auto &req :
                 pick(timed, probes,
                      [](serve::RequestKind k) {
                          return k == serve::RequestKind::HybridSweep;
                      },
                      kPlanRequests)) {
                dist::SweepStats stats;
                const Clock::time_point t0 = Clock::now();
                dist::sweepStrategies(predictor, engine.collectives(),
                                      serverFor(req),
                                      graph::resolveModel(req.model),
                                      req.globalBatch, dist::SweepOptions{},
                                      &stats);
                report.samples("dist.sweep_ms")
                    .push_back(secondsSince(t0) * 1e3);
                total.evaluatedPoints += stats.evaluatedPoints;
                total.skippedPoints += stats.skippedPoints;
                total.stagePriceHits += stats.stagePriceHits;
                total.stagePriceMisses += stats.stagePriceMisses;
            }
            report.value("sweep.evaluated_points",
                         static_cast<double>(total.evaluatedPoints));
            const double points = static_cast<double>(
                total.evaluatedPoints + total.skippedPoints);
            report.value("sweep.skipped_frac",
                         points > 0 ? total.skippedPoints / points : 0.0);
            const double prices = static_cast<double>(
                total.stagePriceHits + total.stagePriceMisses);
            report.value("sweep.stage_price_hit_frac",
                         prices > 0 ? total.stagePriceHits / prices : 0.0);
        }
        {
            obs::TraceSpan span("layer.sim.simulate", "bench");
            uint64_t events = 0;
            double seconds = 0.0;
            for (const auto &req :
                 pick(timed, probes,
                      [](serve::RequestKind k) {
                          return k == serve::RequestKind::Simulate;
                      },
                      kPlanRequests)) {
                sim::SimOptions sopt;
                sopt.jitterFraction = req.jitterFraction;
                sopt.seed = req.simSeed;
                const Clock::time_point t0 = Clock::now();
                const sim::SimResult r = sim::simulateHybrid(
                    predictor, engine.collectives(), serverFor(req),
                    graph::resolveModel(req.model), req.globalBatch,
                    req.hybrid, sopt);
                seconds += secondsSince(t0);
                events += r.events;
            }
            report.value("sim.events", static_cast<double>(events));
            report.samples("sim.events_per_s")
                .push_back(static_cast<double>(events) / seconds);
        }
    }

    // serve: cache probes on the workload's keys, then the queue.
    {
        obs::TraceSpan span("layer.serve.cache_probe", "bench");
        serve::PredictionCache cache(1 << 16);
        core::PredictionDetail detail;
        for (const auto &key : unique_keys)
            cache.insert(key, detail);
        repeatFor(opt.budget, 3, report.samples("cache.probe_ns"), [&] {
            const Clock::time_point t0 = Clock::now();
            core::PredictionDetail out;
            for (const auto &key : keys)
                cache.lookup(key, out);
            return secondsSince(t0) * 1e9 / static_cast<double>(keys.size());
        });
    }
    {
        obs::TraceSpan span("layer.serve.replay", "bench");
        replayServe(opt.backend, opt.predictor, warm, timed, opt.depth,
                    2 * opt.budget, report);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        common::ArgParser args("perfbench-layers",
                               "time each layer's public functions "
                               "in-process on a workload's requests");
        args.addString("requests", "", "the workload's timed requests");
        args.addString("warm", "", "its warm-up set");
        args.addString("probes", "", "its fixed probe set");
        args.addString("backend", "", "predictor backend");
        args.addString("predictor", "", "trained predictor path");
        args.addInt("depth", 32, "in-flight requests of the serve replay");
        args.addDouble("budget", 0.5, "seconds per timing loop");
        args.addFlag("train", "also time the NeuSight fit");
        args.addString("trace-out", "", "Chrome trace of every measured "
                                        "block");
        args.addString("out", "", "result JSON path");
        if (!args.parse(argc, argv))
            return 0;
        const auto need = [&](const char *key) -> const std::string & {
            const std::string &value = args.getString(key);
            if (value.empty())
                throw std::runtime_error(std::string("missing --") + key);
            return value;
        };
        Options opt;
        opt.backend = need("backend");
        opt.predictor = need("predictor");
        if (args.getInt("depth") < 1)
            throw std::runtime_error("--depth must be at least 1");
        opt.depth = static_cast<size_t>(args.getInt("depth"));
        opt.budget = args.getDouble("budget");
        opt.train = args.getFlag("train");
        opt.traceOut = args.getString("trace-out");
        if (!opt.traceOut.empty())
            obs::Tracer::global().setEnabled(true);

        const Input timed = readRequests(need("requests"));
        const Input warm = readRequests(need("warm"));
        const Input probes = readRequests(need("probes"));
        if (timed.requests.empty() || probes.requests.empty())
            throw std::runtime_error("empty request set");
        Report report;
        measure(opt, timed, warm, probes, report);
        report.write(need("out"));
        if (!opt.traceOut.empty())
            obs::Tracer::global().writeChromeTrace(opt.traceOut);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench-layers: %s\n", e.what());
        return 1;
    }
}
