#include "serve/request.hpp"

#include "common/format.hpp"
#include "common/logging.hpp"

namespace neusight::serve {

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::Inference:
        return "inference";
      case RequestKind::DecodeStep:
        return "decode";
      case RequestKind::Training:
        return "training";
      case RequestKind::Distributed:
        return "distributed";
      case RequestKind::Hybrid:
        return "hybrid";
      case RequestKind::Simulate:
        return "simulate";
      case RequestKind::HybridSweep:
        return "sweep";
      case RequestKind::Stats:
        return "stats";
      case RequestKind::Ping:
        return "ping";
    }
    panic("requestKindName: bad kind");
}

std::string
ForecastRequest::fingerprint() const
{
    std::string key;
    key.reserve(160);
    if (kind == RequestKind::Stats || kind == RequestKind::Ping) {
        // A snapshot (or liveness probe) is point-in-time state, not a
        // deterministic function of the request: every one must run
        // (the tag keeps concurrent ones from coalescing with each
        // other).
        key += requestKindName(kind);
        key += '!';
        key += tag;
        return key;
    }
    // The backend leads the key: the same workload through two different
    // predictors is two different forecasts, so they must never coalesce.
    // Fingerprints are process-local (coalescing/dedup only), so the
    // format change relative to the pre-backend layout is free.
    key += backend;
    key += '!';
    key += requestKindName(kind);
    key += '|';
    key += model;
    key += "|b";
    appendInt(key, batch);
    key += "|p";
    appendInt(key, pastLen);
    key += "|d";
    appendInt(key, static_cast<int>(dtype));
    if (kind == RequestKind::Distributed) {
        key += "|n";
        appendInt(key, numGpus);
        key += "|g";
        appendInt(key, globalBatch);
        key += "|s";
        appendInt(key, static_cast<int>(strategy));
        key += "|m";
        appendInt(key, pipeline.numMicroBatches);
        key += "|sch";
        appendInt(key, static_cast<int>(pipeline.schedule));
        key += "|l";
        appendG17(key, linkGBps);
    }
    if (kind == RequestKind::Hybrid || kind == RequestKind::Simulate) {
        key += "|n";
        appendInt(key, numGpus);
        key += "|g";
        appendInt(key, globalBatch);
        key += "|tp";
        appendInt(key, hybrid.tpDegree);
        key += "|pp";
        appendInt(key, hybrid.ppDegree);
        key += "|dp";
        appendInt(key, hybrid.dpDegree);
        key += "|m";
        appendInt(key, hybrid.numMicroBatches);
        key += "|sch";
        appendInt(key, static_cast<int>(hybrid.schedule));
        key += "|v";
        appendInt(key, hybrid.virtualStagesPerGpu);
        key += "|r";
        key += hybrid.recomputeActivations ? '1' : '0';
        key += "|l";
        appendG17(key, linkGBps);
        if (kind == RequestKind::Simulate) {
            // The jitter stream is part of the forecast's identity;
            // only identical (fraction, seed) pairs may coalesce.
            key += "|j";
            appendG17(key, jitterFraction);
            key += "|s";
            appendInt(key, simSeed);
        }
    }
    if (kind == RequestKind::HybridSweep) {
        key += "|n";
        appendInt(key, numGpus);
        key += "|g";
        appendInt(key, globalBatch);
        key += "|l";
        appendG17(key, linkGBps);
    }
    key += '@';
    key += gpuFeatureFingerprint(gpu);
    return key;
}

} // namespace neusight::serve
