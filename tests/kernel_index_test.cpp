/**
 * @file
 * The per-graph kernel index: its structure (distinct kernels in
 * first-appearance order, one slot per compute node, bitwise field
 * equality), and exactness — a graph forecast through the index equals
 * the node-order sum of predictKernelsMs over every compute node, bit
 * for bit, on every Table-5 model's inference, decode and training
 * graphs, for the oracle (through the caching decorator), NeuSight and
 * roofline backends, and on both a graph-cache miss and a hit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "api/registry.hpp"
#include "baselines/roofline.hpp"
#include "common/logging.hpp"
#include "core/predictor.hpp"
#include "eval/oracle.hpp"
#include "graph/kernel_index.hpp"
#include "graph/models.hpp"
#include "serve/prediction_cache.hpp"

namespace neusight::graph {
namespace {

using gpusim::KernelDesc;

/** The forecast before the index: predictKernelsMs over every compute
 *  node, summed in node order. */
double
nodeOrderSum(const LatencyPredictor &predictor, const KernelGraph &g,
             const gpusim::GpuSpec &gpu)
{
    std::vector<KernelDesc> descs;
    for (const KernelNode &node : g.nodes)
        if (node.kind == NodeKind::Compute)
            descs.push_back(node.kernel);
    double total = 0.0;
    for (double ms : predictor.predictKernelsMs(descs, gpu))
        total += ms;
    return total;
}

/** Inference, decode and training graphs of one model. */
std::vector<std::pair<std::string, KernelGraph>>
modelGraphs(const ModelConfig &model)
{
    std::vector<std::pair<std::string, KernelGraph>> graphs;
    graphs.emplace_back("inference", buildInferenceGraph(model, 2));
    graphs.emplace_back("decode", buildDecodeGraph(model, 2, 128));
    graphs.emplace_back("training", buildTrainingGraph(model, 2));
    return graphs;
}

TEST(KernelIndex, SlotsPointAtEqualDistinctKernelsInFirstAppearanceOrder)
{
    for (const ModelConfig &model : paperWorkloads()) {
        for (const auto &[kind, g] : modelGraphs(model)) {
            const KernelIndex index(g);
            ASSERT_EQ(index.slots.size(), g.computeNodeCount())
                << model.name << ' ' << kind;
            EXPECT_LT(index.distinct.size(), index.slots.size() / 4)
                << model.name << ' ' << kind
                << ": every model repeats its layers";
            uint32_t next_new = 0;
            size_t i = 0;
            for (const KernelNode &node : g.nodes) {
                if (node.kind != NodeKind::Compute)
                    continue;
                const uint32_t slot = index.slots[i++];
                ASSERT_LE(slot, next_new) << "slot out of first-"
                                             "appearance order";
                if (slot == next_new)
                    ++next_new;
                EXPECT_TRUE(sameKernel(index.distinct[slot], node.kernel));
            }
            EXPECT_EQ(next_new, index.distinct.size());
            for (size_t a = 0; a < index.distinct.size(); ++a)
                for (size_t b = a + 1; b < index.distinct.size(); ++b)
                    EXPECT_FALSE(sameKernel(index.distinct[a],
                                            index.distinct[b]));
        }
    }
}

TEST(KernelIndex, SkipsCommunicationNodes)
{
    KernelGraph g;
    g.add(gpusim::makeLinear(64, 64, 64), "fc0");
    g.nodes.push_back(KernelNode::comm(NodeKind::AllReduce, 1e6, "ar"));
    g.add(gpusim::makeLinear(64, 64, 64), "fc1");
    const KernelIndex index(g);
    EXPECT_EQ(index.distinct.size(), 1u);
    EXPECT_EQ(index.slots, (std::vector<uint32_t>{0, 0}));
}

TEST(KernelIndex, EveryFieldSeparatesKernelsAndDoublesCompareBitwise)
{
    const KernelDesc base = gpusim::makeLinear(128, 256, 512);
    std::vector<KernelDesc> variants(9, base);
    variants[1].type = gpusim::OpType::BatchedMatmul;
    variants[2].opName = "linear_gelu";
    variants[3].outDims = {128, 513};
    variants[4].reduceDim += 1;
    variants[5].flops = std::nextafter(base.flops, 0.0);
    variants[6].memBytes = std::nextafter(base.memBytes, 0.0);
    variants[7].dtype = gpusim::DataType::Fp16;
    variants[8].usesTensorCore = !base.usesTensorCore;
    EXPECT_TRUE(sameKernel(base, variants[0]));
    for (size_t v = 1; v < variants.size(); ++v)
        EXPECT_FALSE(sameKernel(base, variants[v])) << "variant " << v;

    // Signed zeros are equal as doubles but not bit for bit: kept apart,
    // never merged.
    KernelDesc pos = gpusim::makeMemoryOp("copy", 4096.0);
    pos.flops = 0.0;
    KernelDesc neg = pos;
    neg.flops = -0.0;
    EXPECT_FALSE(sameKernel(pos, neg));

    KernelGraph g;
    for (const KernelDesc &desc : variants)
        g.add(desc, "v");
    g.add(pos, "pos");
    g.add(neg, "neg");
    g.add(base, "again");
    const KernelIndex index(g);
    EXPECT_EQ(index.distinct.size(), 11u);
    EXPECT_EQ(index.slots.back(), 0u);
}

/** Registry of the three covered backends; NeuSight is a tiny framework
 *  trained once on first use. */
std::shared_ptr<api::PredictorRegistry>
testRegistry()
{
    auto registry = std::make_shared<api::PredictorRegistry>();
    registry->add("oracle", [] {
        return std::make_unique<eval::SimulatorOracle>();
    });
    registry->add("roofline", [] {
        return std::make_unique<baselines::RooflinePredictor>();
    });
    registry->add("neusight", [] {
        dataset::SamplerConfig sampler;
        sampler.bmmSamples = 150;
        sampler.fcSamples = 120;
        sampler.elementwiseSamples = 80;
        sampler.softmaxSamples = 60;
        sampler.layernormSamples = 60;
        core::PredictorConfig cfg;
        cfg.hiddenDim = 16;
        cfg.hiddenLayers = 2;
        cfg.train.epochs = 3;
        auto framework = std::make_unique<core::NeuSight>(cfg);
        framework->train(dataset::generateOperatorData(
            gpusim::nvidiaTrainingSet(), sampler));
        return framework;
    });
    return registry;
}

const std::vector<std::string> kBackends = {"oracle", "neusight",
                                            "roofline"};

class IndexedForecast : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setQuiet(true);
        registry = testRegistry();
    }

    static void TearDownTestSuite() { registry.reset(); }

    static api::ForecastEngine
    makeEngine()
    {
        api::EngineConfig config;
        config.registry = registry;
        return api::ForecastEngine(std::move(config));
    }

    static std::shared_ptr<api::PredictorRegistry> registry;
};

std::shared_ptr<api::PredictorRegistry> IndexedForecast::registry;

TEST_F(IndexedForecast, GraphForecastEqualsNodeOrderSumOnEveryModel)
{
    const api::ForecastEngine engine = makeEngine();
    const gpusim::GpuSpec &gpu = gpusim::findGpu("A100-40GB");
    for (const std::string &name : kBackends) {
        // The engine's wiring (oracle and roofline behind the caching
        // decorator, NeuSight with the cache attached natively) and the
        // raw registry instance.
        const LatencyPredictor &wired = engine.backend(name);
        const LatencyPredictor &raw = registry->get(name);
        for (const LatencyPredictor *predictor : {&wired, &raw}) {
            for (const ModelConfig &model : paperWorkloads()) {
                for (const auto &[kind, g] : modelGraphs(model)) {
                    const double expected = nodeOrderSum(*predictor, g, gpu);
                    EXPECT_EQ(predictor->predictGraphMs(g, gpu), expected)
                        << predictor->name() << ' ' << model.name << ' '
                        << kind;
                    EXPECT_EQ(predictor->predictGraphMs(KernelIndex(g), gpu),
                              expected)
                        << predictor->name() << ' ' << model.name << ' '
                        << kind;
                }
            }
        }
    }
}

TEST_F(IndexedForecast, EngineForecastIsExactOnGraphCacheMissAndHit)
{
    const gpusim::GpuSpec &gpu = gpusim::findGpu("H100");
    for (const std::string &name : kBackends) {
        // A fresh engine per backend: the graph-cache key omits the
        // backend, so each backend's first request must build.
        const api::ForecastEngine engine = makeEngine();
        const LatencyPredictor &predictor = engine.backend(name);
        for (const ModelConfig &model : paperWorkloads()) {
            for (const api::RequestKind kind :
                 {api::RequestKind::Inference, api::RequestKind::DecodeStep,
                  api::RequestKind::Training}) {
                api::ForecastRequest req;
                req.kind = kind;
                req.model = model.name;
                req.batch = 2;
                req.pastLen = 128;
                req.gpu = gpu;
                req.backend = name;
                const KernelGraph g =
                    kind == api::RequestKind::Inference
                        ? buildInferenceGraph(model, 2)
                    : kind == api::RequestKind::DecodeStep
                        ? buildDecodeGraph(model, 2, 128)
                        : buildTrainingGraph(model, 2);
                const double expected = nodeOrderSum(predictor, g, gpu);
                for (const bool hit : {false, true}) {
                    const serve::CacheStats before =
                        engine.modelGraphCache()->stats();
                    const api::ForecastResult result = engine.forecast(req);
                    const serve::CacheStats after =
                        engine.modelGraphCache()->stats();
                    ASSERT_TRUE(result.ok) << result.error;
                    EXPECT_EQ(after.hits - before.hits, hit ? 1u : 0u);
                    EXPECT_EQ(after.misses - before.misses, hit ? 0u : 1u);
                    EXPECT_EQ(result.latencyMs, expected)
                        << name << ' ' << model.name << ' '
                        << serve::requestKindName(kind)
                        << (hit ? " hit" : " miss");
                    EXPECT_EQ(result.kernelCount, g.computeNodeCount());
                }
            }
        }
    }
}

TEST(CachedPredictorIndex, GraphForecastLooksUpEachDistinctKernelOnce)
{
    const eval::SimulatorOracle oracle;
    auto cache = std::make_shared<serve::PredictionCache>(1 << 16);
    const serve::CachedPredictor cached(oracle, cache, "oracle");
    const gpusim::GpuSpec &gpu = gpusim::findGpu("L4");
    const KernelGraph g =
        buildTrainingGraph(findModel("GPT2-Large"), 4);
    const KernelIndex index(g);
    ASSERT_LT(index.distinct.size(), g.computeNodeCount());

    const double cold = cached.predictGraphMs(g, gpu);
    serve::CacheStats stats = cache->stats();
    EXPECT_EQ(stats.hits + stats.misses, index.distinct.size());
    EXPECT_EQ(stats.misses, index.distinct.size());

    EXPECT_EQ(cached.predictGraphMs(index, gpu), cold);
    stats = cache->stats();
    EXPECT_EQ(stats.hits, index.distinct.size());
    EXPECT_EQ(stats.misses, index.distinct.size());
}

} // namespace
} // namespace neusight::graph
