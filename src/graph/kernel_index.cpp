#include "graph/kernel_index.hpp"

#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>

namespace neusight::graph {

using gpusim::KernelDesc;

namespace {

uint64_t
doubleBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Hash of every field sameKernel compares. */
struct KernelHash
{
    size_t operator()(const KernelDesc *d) const
    {
        uint64_t h = std::hash<std::string>{}(d->opName);
        const auto mix = [&h](uint64_t v) {
            h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        };
        mix(static_cast<uint64_t>(d->type));
        mix(d->outDims.size());
        for (uint64_t dim : d->outDims)
            mix(dim);
        mix(d->reduceDim);
        mix(doubleBits(d->flops));
        mix(doubleBits(d->memBytes));
        mix(static_cast<uint64_t>(d->dtype));
        mix(d->usesTensorCore ? 1 : 0);
        return static_cast<size_t>(h);
    }
};

struct KernelEq
{
    bool operator()(const KernelDesc *a, const KernelDesc *b) const
    {
        return sameKernel(*a, *b);
    }
};

} // namespace

bool
sameKernel(const KernelDesc &a, const KernelDesc &b)
{
    return a.type == b.type && a.opName == b.opName &&
           a.outDims == b.outDims && a.reduceDim == b.reduceDim &&
           doubleBits(a.flops) == doubleBits(b.flops) &&
           doubleBits(a.memBytes) == doubleBits(b.memBytes) &&
           a.dtype == b.dtype && a.usesTensorCore == b.usesTensorCore;
}

KernelIndex::KernelIndex(const KernelGraph &g)
{
    // Keys point at the graph's own descriptors: arena nodes never move,
    // and the map dies before this constructor returns.
    std::unordered_map<const KernelDesc *, uint32_t, KernelHash, KernelEq>
        slot_of;
    slot_of.reserve(64);
    slots.reserve(g.nodes.size());
    for (const KernelNode &node : g.nodes) {
        if (node.kind != NodeKind::Compute)
            continue;
        const auto [it, inserted] = slot_of.emplace(
            &node.kernel, static_cast<uint32_t>(distinct.size()));
        if (inserted)
            distinct.push_back(node.kernel);
        slots.push_back(it->second);
    }
}

} // namespace neusight::graph
