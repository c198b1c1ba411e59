/**
 * @file
 * Abstract latency-predictor interface implemented by NeuSight and by
 * every baseline (roofline analysis, Habitat, Li et al.), so the
 * evaluation harness and benches can sweep them uniformly.
 */

#ifndef NEUSIGHT_GRAPH_LATENCY_PREDICTOR_HPP
#define NEUSIGHT_GRAPH_LATENCY_PREDICTOR_HPP

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/kernel_index.hpp"
#include "gpusim/gpu_spec.hpp"

namespace neusight::graph {

/** Predicts DNN kernel / model latency on a (possibly unseen) GPU. */
class LatencyPredictor
{
  public:
    virtual ~LatencyPredictor() = default;

    /** Display name ("NeuSight", "Roofline", "Habitat", "Li et al."). */
    virtual std::string name() const = 0;

    /** Latency of one kernel on @p gpu in milliseconds. */
    virtual double predictKernelMs(const gpusim::KernelDesc &desc,
                                   const gpusim::GpuSpec &gpu) const = 0;

    /**
     * Latencies of @p descs on @p gpu, in order. The batched seam of the
     * interface: the default loops predictKernelMs, and backends that
     * can amortize work across kernels (NeuSight dedups repeated
     * fingerprints and evaluates each operator family's MLP in one
     * matrix pass) override this once and every graph forecast
     * inherits the speedup.
     */
    virtual std::vector<double>
    predictKernelsMs(const std::vector<gpusim::KernelDesc> &descs,
                     const gpusim::GpuSpec &gpu) const;

    /**
     * Per-GPU latency of a kernel graph: kernels execute sequentially on
     * the device (Section 5), so the latency is the node-order sum of
     * the compute nodes' predictKernelsMs latencies. Builds the graph's
     * KernelIndex and prices through the overload below.
     */
    double predictGraphMs(const KernelGraph &g,
                          const gpusim::GpuSpec &gpu) const;

    /**
     * Per-GPU latency of the graph @p index was built from: one
     * predictKernelsMs call over index.distinct, then the node-order sum
     * of each slot's latency — bit-identical to summing predictKernelsMs
     * over every compute node, at the cost of the distinct kernels only.
     * Callers that keep a graph around (the engine's graph cache) keep
     * its index with it and call this directly.
     */
    virtual double predictGraphMs(const KernelIndex &index,
                                  const gpusim::GpuSpec &gpu) const;
};

} // namespace neusight::graph

#endif // NEUSIGHT_GRAPH_LATENCY_PREDICTOR_HPP
