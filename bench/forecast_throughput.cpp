/**
 * @file
 * Forecast-throughput bench seeding the perf trajectory of the batched
 * inference path (PR 4): single-kernel vs deduplicated/batched
 * kernels/s on a repeated-model graph forecast, and exhaustive-serial
 * vs branch-and-bound/memoized/parallel strategy-sweep wall-clock on
 * the 8x A100-40GB GPT3-2.7B flagship. Writes a BENCH_forecast.json
 * artifact for CI and exits nonzero when the batched speedup falls
 * under --min-kernel-speedup, the sweep speedup falls under
 * --min-sweep-speedup, or the pruned sweep's winner disagrees with the
 * exhaustive winner.
 *
 *   bench_forecast_throughput --json BENCH_forecast.json \
 *       --min-kernel-speedup 3
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/argparse.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "dist/parallel.hpp"
#include "graph/models.hpp"
#include "serve/prediction_cache.hpp"

namespace {

using namespace neusight;

double
secondsSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * The pre-PR-4 forecast semantics, for the baseline sweep arm: forward
 * per-kernel predictions but inherit the base-class per-node graph
 * loop, hiding NeuSight's dedup + batched override — exactly what
 * every sweep point paid before the batched path existed.
 */
class PerNodePredictor : public graph::LatencyPredictor
{
  public:
    explicit PerNodePredictor(const graph::LatencyPredictor &inner_)
        : inner(inner_)
    {
    }

    std::string name() const override { return inner.name(); }

    double
    predictKernelMs(const gpusim::KernelDesc &desc,
                    const gpusim::GpuSpec &gpu) const override
    {
        return inner.predictKernelMs(desc, gpu);
    }

  private:
    const graph::LatencyPredictor &inner;
};

} // namespace

int
run(int argc, const char *const *argv)
{
    common::ArgParser args(
        "bench_forecast_throughput",
        "kernels/s single vs batched, and strategy-sweep wall-clock "
        "exhaustive vs pruned");
    args.addInt("reps", 12, "timed repetitions of each graph forecast");
    args.addString("json", "BENCH_forecast.json",
                   "JSON report output path");
    args.addDouble("min-kernel-speedup", 0.0,
                   "fail (exit 3) when batched/single kernels/s falls "
                   "below this; 0 disables");
    args.addDouble("min-sweep-speedup", 0.0,
                   "fail (exit 5) when exhaustive/pruned sweep "
                   "wall-clock falls below this; 0 disables");
    if (!args.parse(argc, argv))
        return 0;
    setQuiet(false);
    const int reps = static_cast<int>(args.getInt("reps"));
    if (reps < 1)
        fatal("--reps must be at least 1");

    core::NeuSight &neusight = bench::nvidiaNeuSight();
    common::Json report;

    // ------------------------------------------------------------------
    // 1. Kernel-prediction throughput on a repeated-model graph: the
    // GPT2-Large training graph dispatches the same few dozen kernel
    // shapes across its 36 layers — the dedup + one-matrix-pass-per-
    // family path must beat per-node prediction by a wide margin.
    // ------------------------------------------------------------------
    const gpusim::GpuSpec &gpu = gpusim::findGpu("A100-40GB");
    const graph::KernelGraph g = graph::buildTrainingGraph(
        graph::findModel("GPT2-Large"), 8);
    const double kernels =
        static_cast<double>(g.computeNodeCount()) * reps;

    neusight.attachCache(nullptr);
    double checksum_single = 0.0;
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        for (const auto &node : g.nodes)
            if (node.kind == graph::NodeKind::Compute)
                checksum_single +=
                    neusight.predictKernelMs(node.kernel, gpu);
    const double single_s = secondsSince(t0);

    double checksum_batched = 0.0;
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        checksum_batched += neusight.predictGraphMs(g, gpu);
    const double batched_s = secondsSince(t0);

    // Third lane: batched path with the kernel-prediction cache warm —
    // the serving steady state.
    auto cache = std::make_shared<serve::PredictionCache>(1 << 16);
    neusight.attachCache(cache);
    neusight.predictGraphMs(g, gpu); // Warm.
    double checksum_cached = 0.0;
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        checksum_cached += neusight.predictGraphMs(g, gpu);
    const double cached_s = secondsSince(t0);
    neusight.attachCache(nullptr);

    ensure(std::abs(checksum_single - checksum_batched) <
               1e-6 * checksum_single,
           "single and batched forecasts disagree");
    ensure(std::abs(checksum_single - checksum_cached) <
               1e-6 * checksum_single,
           "cached forecast disagrees");

    const double single_kps = kernels / std::max(single_s, 1e-9);
    const double batched_kps = kernels / std::max(batched_s, 1e-9);
    const double cached_kps = kernels / std::max(cached_s, 1e-9);
    const double kernel_speedup = batched_kps / single_kps;

    TextTable kernel_table(
        "Kernel-prediction throughput (GPT2-Large training graph, " +
            std::to_string(g.computeNodeCount()) + " kernels, " +
            std::to_string(reps) + " reps)",
        {"path", "kernels/s", "speedup"});
    kernel_table.addRow({"single (per-node)", TextTable::num(single_kps, 0),
                         "1.0x"});
    kernel_table.addRow({"batched (dedup + matrix pass)",
                         TextTable::num(batched_kps, 0),
                         TextTable::num(kernel_speedup, 1) + "x"});
    kernel_table.addRow({"batched + warm kernel cache",
                         TextTable::num(cached_kps, 0),
                         TextTable::num(cached_kps / single_kps, 1) + "x"});
    kernel_table.print();

    common::Json kernel_json;
    kernel_json.set("graph", "GPT2-Large-training-b8");
    kernel_json.set("gpu", gpu.name);
    kernel_json.set("kernels_per_graph",
                    static_cast<uint64_t>(g.computeNodeCount()));
    kernel_json.set("single_kernels_per_s", single_kps);
    kernel_json.set("batched_kernels_per_s", batched_kps);
    kernel_json.set("cached_kernels_per_s", cached_kps);
    kernel_json.set("batched_speedup", kernel_speedup);
    report.set("kernel_throughput", std::move(kernel_json));

    // ------------------------------------------------------------------
    // 2. Strategy-sweep wall-clock on the flagship grid (GPT3-2.7B,
    // global batch 32, 8x A100-40GB): the PR-3 baseline semantics
    // (exhaustive, no cross-point memo) against the default
    // branch-and-bound + memo sweep, both on this thread. Both arms get
    // a fresh kernel-prediction cache; the winner must be identical.
    // ------------------------------------------------------------------
    dist::ServerConfig server;
    server.systemName = "A100-NVLink-x8";
    server.gpuName = "A100-40GB";
    server.numGpus = 8;
    const dist::EstimatedCollectives comms("A100-NVLink", 600.0);
    const graph::ModelConfig &model = graph::findModel("GPT3-2.7B");
    const uint64_t global_batch = 32;

    dist::SweepOptions exhaustive;
    exhaustive.exhaustive = true;
    exhaustive.reuseStagePrices = false;
    dist::SweepStats ex_stats;
    neusight.attachCache(
        std::make_shared<serve::PredictionCache>(1 << 16));
    const PerNodePredictor baseline(neusight);
    t0 = std::chrono::steady_clock::now();
    const auto full =
        dist::sweepStrategies(baseline, comms, server, model,
                              global_batch, exhaustive, &ex_stats);
    const double exhaustive_ms = secondsSince(t0) * 1e3;

    dist::SweepStats pr_stats;
    neusight.attachCache(
        std::make_shared<serve::PredictionCache>(1 << 16));
    t0 = std::chrono::steady_clock::now();
    const auto pruned =
        dist::sweepStrategies(neusight, comms, server, model,
                              global_batch, dist::SweepOptions{},
                              &pr_stats);
    const double pruned_ms = secondsSince(t0) * 1e3;
    neusight.attachCache(nullptr);

    if (full.empty() || pruned.empty())
        fatal("flagship sweep produced no runnable strategy");
    const double sweep_speedup = exhaustive_ms / std::max(pruned_ms, 1e-9);
    const auto &ex_win = full.front();
    const auto &pr_win = pruned.front();
    const bool winner_matches =
        ex_win.config.tpDegree == pr_win.config.tpDegree &&
        ex_win.config.ppDegree == pr_win.config.ppDegree &&
        ex_win.config.dpDegree == pr_win.config.dpDegree &&
        ex_win.config.numMicroBatches == pr_win.config.numMicroBatches &&
        ex_win.config.schedule == pr_win.config.schedule &&
        ex_win.config.recomputeActivations ==
            pr_win.config.recomputeActivations &&
        // The per-node baseline sums kernels in node order, the batched
        // path as count x ms — identical to the last ulp or two.
        std::abs(ex_win.result.latencyMs - pr_win.result.latencyMs) <=
            1e-9 * ex_win.result.latencyMs;

    TextTable sweep_table(
        "Strategy-sweep wall-clock (GPT3-2.7B, batch 32, 8x A100-40GB)",
        {"arm", "wall ms", "points priced", "winner"});
    sweep_table.addRow(
        {"exhaustive, no memo (PR-3 semantics)",
         TextTable::num(exhaustive_ms, 0),
         std::to_string(ex_stats.evaluatedPoints),
         ex_win.config.describe() + " m" +
             std::to_string(ex_win.config.numMicroBatches)});
    sweep_table.addRow(
        {"pruned + memo (default)",
         TextTable::num(pruned_ms, 0),
         std::to_string(pr_stats.evaluatedPoints),
         pr_win.config.describe() + " m" +
             std::to_string(pr_win.config.numMicroBatches)});
    sweep_table.print();
    std::printf("\nsweep speedup %.1fx (memo %llu hits / %llu misses, "
                "%zu points pruned), winner %s\n",
                sweep_speedup,
                static_cast<unsigned long long>(pr_stats.stagePriceHits),
                static_cast<unsigned long long>(pr_stats.stagePriceMisses),
                pr_stats.skippedPoints,
                winner_matches ? "identical" : "MISMATCH");

    common::Json sweep_json;
    sweep_json.set("model", model.name);
    sweep_json.set("server", "8x A100-40GB");
    sweep_json.set("global_batch", global_batch);
    sweep_json.set("exhaustive_ms", exhaustive_ms);
    sweep_json.set("pruned_ms", pruned_ms);
    sweep_json.set("speedup", sweep_speedup);
    sweep_json.set("exhaustive_points",
                   static_cast<uint64_t>(ex_stats.evaluatedPoints));
    sweep_json.set("pruned_points",
                   static_cast<uint64_t>(pr_stats.evaluatedPoints));
    sweep_json.set("skipped_points",
                   static_cast<uint64_t>(pr_stats.skippedPoints));
    sweep_json.set("winner_matches", winner_matches);
    common::Json winner;
    winner.set("strategy", pr_win.config.describe());
    winner.set("micro_batches", pr_win.config.numMicroBatches);
    winner.set("schedule",
               dist::pipelineScheduleName(pr_win.config.schedule));
    winner.set("recompute", pr_win.config.recomputeActivations);
    winner.set("latency_ms", pr_win.result.latencyMs);
    sweep_json.set("winner", std::move(winner));
    report.set("sweep", std::move(sweep_json));

    const std::string path = args.getString("json");
    std::ofstream out(path);
    if (!out)
        fatal("cannot write JSON report '" + path + "'");
    out << report.dump(2) << "\n";
    std::printf("\nJSON report written to %s\n", path.c_str());

    if (!winner_matches) {
        std::fprintf(stderr,
                     "forecast_throughput: pruned sweep winner differs "
                     "from the exhaustive winner\n");
        return 4;
    }
    const double min_kernel = args.getDouble("min-kernel-speedup");
    if (min_kernel > 0.0 && kernel_speedup < min_kernel) {
        std::fprintf(stderr,
                     "forecast_throughput: batched/single kernel "
                     "speedup %.1fx is below the required %.1fx\n",
                     kernel_speedup, min_kernel);
        return 3;
    }
    const double min_sweep = args.getDouble("min-sweep-speedup");
    if (min_sweep > 0.0 && sweep_speedup < min_sweep) {
        std::fprintf(stderr,
                     "forecast_throughput: sweep speedup %.1fx is "
                     "below the required %.1fx\n",
                     sweep_speedup, min_sweep);
        return 5;
    }
    return 0;
}

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
