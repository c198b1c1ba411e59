#include "core/kernel_cache.hpp"

#include "common/format.hpp"
#include "core/predictor.hpp"

namespace neusight::core {

using gpusim::GpuSpec;
using gpusim::KernelDesc;

std::string
cacheFingerprint(const KernelDesc &desc, const GpuSpec &gpu,
                 bool canonical_op)
{
    std::string key = kernelFingerprintPart(desc, canonical_op);
    key += gpuFeatureFingerprint(gpu);
    return key;
}

std::string
kernelFingerprintPart(const KernelDesc &desc, bool canonical_op)
{
    std::string key;
    key.reserve(192);
    appendInt(key, static_cast<int>(desc.type));
    key += '|';
    key += canonical_op ? canonicalOpName(desc.opName) : desc.opName;
    key += '|';
    for (uint64_t d : desc.outDims) {
        appendInt(key, d);
        key += 'x';
    }
    // %.17g round-trips doubles: distinct FLOP/byte counts never collide.
    key += '|';
    appendInt(key, desc.reduceDim);
    key += '|';
    appendG17(key, desc.flops);
    key += '|';
    appendG17(key, desc.memBytes);
    key += '|';
    appendInt(key, static_cast<int>(desc.dtype));
    key += desc.usesTensorCore ? "|1@" : "|0@";
    return key;
}

std::string
gpuFeatureFingerprint(const GpuSpec &gpu)
{
    // Two specs sharing a name but differing in any number must key
    // apart (hypothetical GPUs can shadow a database name).
    std::string key;
    key.reserve(gpu.name.size() + 200);
    key += gpu.name;
    key += '|';
    appendInt(key, static_cast<int>(gpu.vendor));
    for (double v : {gpu.peakFp32Tflops, gpu.matrixFp32Tflops,
                     gpu.fp16TensorTflops, gpu.memorySizeGB,
                     gpu.memoryBwGBps}) {
        key += '|';
        appendG17(key, v);
    }
    key += '|';
    appendInt(key, gpu.numSms);
    key += '|';
    appendG17(key, gpu.l2CacheMB);
    key += '|';
    appendG17(key, gpu.interconnectGBps);
    return key;
}

} // namespace neusight::core
