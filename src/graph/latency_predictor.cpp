#include "graph/latency_predictor.hpp"

#include "obs/trace.hpp"

namespace neusight::graph {

std::vector<double>
LatencyPredictor::predictKernelsMs(
    const std::vector<gpusim::KernelDesc> &descs,
    const gpusim::GpuSpec &gpu) const
{
    std::vector<double> out;
    out.reserve(descs.size());
    for (const auto &desc : descs)
        out.push_back(predictKernelMs(desc, gpu));
    return out;
}

double
LatencyPredictor::predictGraphMs(const KernelGraph &g,
                                 const gpusim::GpuSpec &gpu) const
{
    return predictGraphMs(KernelIndex(g), gpu);
}

double
LatencyPredictor::predictGraphMs(const KernelIndex &index,
                                 const gpusim::GpuSpec &gpu) const
{
    obs::TraceSpan span("graph.predict", "graph");
    const std::vector<double> lat = predictKernelsMs(index.distinct, gpu);
    double total = 0.0;
    for (uint32_t slot : index.slots)
        total += lat[slot];
    return total;
}

} // namespace neusight::graph
