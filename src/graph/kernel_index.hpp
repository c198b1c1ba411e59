/**
 * @file
 * Per-graph kernel index: a graph's distinct compute kernels plus, for
 * every compute node, which of them it dispatches. Transformer graphs
 * repeat the same few kernel shapes in every layer (a few percent of the
 * nodes are distinct), so pricing the distinct list once and fanning the
 * latencies back out over the slots replaces one per-node prediction
 * (or cache-key build) with one per-node array read.
 *
 * The index is a separate immutable value, not part of KernelGraph:
 * graphs stay appendable (the distributed transforms add nodes after a
 * graph is built), and an index stored on the graph could go stale
 * without notice. Build it after the graph's last append.
 */

#ifndef NEUSIGHT_GRAPH_KERNEL_INDEX_HPP
#define NEUSIGHT_GRAPH_KERNEL_INDEX_HPP

#include <cstdint>
#include <vector>

#include "gpusim/kernel_desc.hpp"
#include "graph/graph.hpp"

namespace neusight::graph {

/**
 * True when every KernelDesc field of @p a and @p b is equal, doubles
 * compared bit for bit. As fine as any cache fingerprint of the
 * descriptor (each of them is a function of these fields), so two
 * kernels it merges always receive the same forecast.
 */
bool sameKernel(const gpusim::KernelDesc &a, const gpusim::KernelDesc &b);

/** Distinct compute kernels of one graph and each compute node's slot. */
struct KernelIndex
{
    /** The distinct compute kernels, in first-appearance order. */
    std::vector<gpusim::KernelDesc> distinct;
    /** One entry per compute node, in node order: the node's kernel is
     *  distinct[slots[i]]. */
    std::vector<uint32_t> slots;

    /** Index the compute nodes of @p g (one field hash per node). */
    explicit KernelIndex(const KernelGraph &g);
};

} // namespace neusight::graph

#endif // NEUSIGHT_GRAPH_KERNEL_INDEX_HPP
