#include "serve/prediction_cache.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "common/logging.hpp"

namespace neusight::serve {

using core::PredictionDetail;
using gpusim::GpuSpec;
using gpusim::KernelDesc;

struct PredictionCache::Entry
{
    std::string key;
    core::PredictionDetail detail;
    size_t hash = 0;
    /** LRU timestamp; the only field mutated after publication. */
    std::atomic<uint64_t> lastUsed{0};
};

struct PredictionCache::Stripe
{
    /** Serializes insert/evict/compact/clear; never taken by lookup. */
    mutable std::mutex writerMutex;
    /** Open-addressing slots: null = chain end, tombstone = deleted. */
    std::unique_ptr<std::atomic<Entry *>[]> slots;
    /** Live entries (writer-mutex guarded). */
    size_t liveCount = 0;
    /** Empty (null) slots left (writer-mutex guarded). */
    size_t nullCount = 0;
    /** In-flight lock-free readers; gates limbo reclamation. */
    mutable std::atomic<uint64_t> activeReaders{0};
    /** Unpublished entries awaiting a reader-free grace period. */
    std::vector<Entry *> limbo;
};

namespace {

/** Writers spin for a reader-free window past this limbo backlog. */
constexpr size_t kLimboBackstop = 4096;

size_t
nextPow2(size_t v)
{
    size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

PredictionCache::Entry *
PredictionCache::tombstone()
{
    // Distinguished sentinel address; never dereferenced, never freed.
    static Entry sentinel;
    return &sentinel;
}

PredictionCache::PredictionCache(size_t capacity, size_t num_shards)
{
    ensure(capacity > 0, "PredictionCache: capacity must be positive");
    ensure(num_shards > 0, "PredictionCache: need at least one shard");
    if (num_shards > capacity)
        num_shards = capacity;
    // Floor division so the stripes together never exceed the stated
    // budget (size() <= capacity() always holds); the clamp above
    // guarantees at least one entry per stripe.
    totalCapacity = capacity;
    stripeCapacity = capacity / num_shards;
    // At least 2x headroom over the per-stripe entry budget, so probe
    // chains stay short and a null terminator always exists.
    slotsPerStripe = nextPow2(std::max<size_t>(8, 2 * stripeCapacity));
    slotMask = slotsPerStripe - 1;
    stripes.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
        auto stripe = std::make_unique<Stripe>();
        stripe->slots =
            std::make_unique<std::atomic<Entry *>[]>(slotsPerStripe);
        for (size_t s = 0; s < slotsPerStripe; ++s)
            stripe->slots[s].store(nullptr, std::memory_order_relaxed);
        stripe->nullCount = slotsPerStripe;
        stripes.push_back(std::move(stripe));
    }
}

PredictionCache::~PredictionCache()
{
    // No concurrent access by contract at destruction time.
    for (auto &stripe : stripes) {
        for (size_t i = 0; i < slotsPerStripe; ++i) {
            Entry *e = stripe->slots[i].load(std::memory_order_relaxed);
            if (e != nullptr && e != tombstone())
                delete e;
        }
        for (Entry *e : stripe->limbo)
            delete e;
    }
}

PredictionCache::Stripe &
PredictionCache::stripeFor(size_t hash) const
{
    return *stripes[hash % stripes.size()];
}

uint64_t
PredictionCache::nextTick() const
{
    return clock.fetch_add(1, std::memory_order_relaxed);
}

bool
PredictionCache::lookup(const std::string &key, PredictionDetail &out)
{
    const size_t h = std::hash<std::string>{}(key);
    Stripe &stripe = stripeFor(h);
    // Reader protocol: register in the stripe's epoch counter BEFORE
    // loading any slot. A writer only frees a retired entry after
    // unpublishing it and then observing the counter at zero, so (by
    // the sequentially consistent ordering of the two counter accesses
    // against the slot store) any reader that could still hold the
    // pointer is either counted — blocking the free — or started after
    // the unpublish and cannot obtain the pointer at all.
    stripe.activeReaders.fetch_add(1, std::memory_order_seq_cst);
    bool hit = false;
    size_t idx = h & slotMask;
    for (size_t probe = 0; probe < slotsPerStripe;
         ++probe, idx = (idx + 1) & slotMask) {
        Entry *e = stripe.slots[idx].load(std::memory_order_seq_cst);
        if (e == nullptr)
            break; // End of probe chain: not present.
        if (e == tombstone())
            continue;
        if (e->hash == h && e->key == key) {
            out = e->detail;
            // LRU promotion is a timestamp bump — no list splice, no
            // lock, no contention with other readers.
            e->lastUsed.store(nextTick(), std::memory_order_relaxed);
            hit = true;
            break;
        }
    }
    stripe.activeReaders.fetch_sub(1, std::memory_order_seq_cst);
    (hit ? *hits : *misses).inc();
    return hit;
}

void
PredictionCache::evictLru(Stripe &stripe)
{
    // Exact LRU: the entry with the smallest timestamp. Ticks are
    // unique (one atomic counter), so the victim is deterministic.
    size_t victim_idx = slotsPerStripe;
    Entry *victim = nullptr;
    uint64_t oldest = UINT64_MAX;
    for (size_t i = 0; i < slotsPerStripe; ++i) {
        Entry *e = stripe.slots[i].load(std::memory_order_relaxed);
        if (e == nullptr || e == tombstone())
            continue;
        const uint64_t used = e->lastUsed.load(std::memory_order_relaxed);
        if (used < oldest) {
            oldest = used;
            victim = e;
            victim_idx = i;
        }
    }
    ensure(victim != nullptr, "PredictionCache: eviction on empty stripe");
    // Tombstone, not null: the victim may sit mid-chain for other keys.
    stripe.slots[victim_idx].store(tombstone(),
                                   std::memory_order_seq_cst);
    stripe.limbo.push_back(victim);
    --stripe.liveCount;
    evictions->inc();
}

void
PredictionCache::compact(Stripe &stripe)
{
    // Rewrite the slot array without tombstones. Entries are NOT moved
    // or freed — only the slot array is reshuffled — so a concurrent
    // reader can at worst see a transient spurious miss (the value is
    // deterministic, so a recompute returns the same detail), never a
    // stale or dangling pointer.
    std::vector<Entry *> live;
    live.reserve(stripe.liveCount);
    for (size_t i = 0; i < slotsPerStripe; ++i) {
        Entry *e = stripe.slots[i].load(std::memory_order_relaxed);
        if (e != nullptr && e != tombstone())
            live.push_back(e);
        stripe.slots[i].store(nullptr, std::memory_order_seq_cst);
    }
    stripe.nullCount = slotsPerStripe;
    for (Entry *e : live) {
        size_t idx = e->hash & slotMask;
        while (stripe.slots[idx].load(std::memory_order_relaxed) !=
               nullptr)
            idx = (idx + 1) & slotMask;
        stripe.slots[idx].store(e, std::memory_order_seq_cst);
        --stripe.nullCount;
    }
}

void
PredictionCache::reclaim(Stripe &stripe)
{
    if (stripe.limbo.empty())
        return;
    if (stripe.activeReaders.load(std::memory_order_seq_cst) != 0) {
        if (stripe.limbo.size() < kLimboBackstop)
            return; // Try again on a later write.
        // Backstop: readers are wait-free and short, so a reader-free
        // window arrives quickly; spin rather than grow without bound.
        while (stripe.activeReaders.load(std::memory_order_seq_cst) != 0)
            std::this_thread::yield();
    }
    // Grace period reached: every reader that could have loaded one of
    // these pointers has deregistered.
    for (Entry *e : stripe.limbo)
        delete e;
    stripe.limbo.clear();
}

void
PredictionCache::insert(const std::string &key,
                        const PredictionDetail &detail)
{
    const size_t h = std::hash<std::string>{}(key);
    Stripe &stripe = stripeFor(h);
    std::lock_guard<std::mutex> lock(stripe.writerMutex);

    // Probe for an existing entry first (refresh path).
    size_t idx = h & slotMask;
    for (size_t probe = 0; probe < slotsPerStripe;
         ++probe, idx = (idx + 1) & slotMask) {
        Entry *e = stripe.slots[idx].load(std::memory_order_relaxed);
        if (e == nullptr)
            break;
        if (e == tombstone())
            continue;
        if (e->hash == h && e->key == key) {
            // Refresh: publish a fresh immutable entry in place and
            // retire the old one. Counts neither as an insert nor as an
            // eviction, and promotes the key to most-recently-used —
            // the exact semantics of the locked implementation.
            Entry *fresh = new Entry;
            fresh->key = key;
            fresh->detail = detail;
            fresh->hash = h;
            fresh->lastUsed.store(nextTick(),
                                  std::memory_order_relaxed);
            stripe.slots[idx].store(fresh, std::memory_order_seq_cst);
            stripe.limbo.push_back(e);
            reclaim(stripe);
            return;
        }
    }

    if (stripe.liveCount >= stripeCapacity)
        evictLru(stripe);

    // Re-probe for the insertion slot: the eviction above may have
    // turned a slot of this very chain into a tombstone.
    Entry *fresh = new Entry;
    fresh->key = key;
    fresh->detail = detail;
    fresh->hash = h;
    fresh->lastUsed.store(nextTick(), std::memory_order_relaxed);
    idx = h & slotMask;
    for (;; idx = (idx + 1) & slotMask) {
        Entry *e = stripe.slots[idx].load(std::memory_order_relaxed);
        if (e == nullptr) {
            --stripe.nullCount;
            stripe.slots[idx].store(fresh, std::memory_order_seq_cst);
            break;
        }
        if (e == tombstone()) {
            stripe.slots[idx].store(fresh, std::memory_order_seq_cst);
            break;
        }
    }
    ++stripe.liveCount;
    inserts->inc();
    // Keep enough null terminators for short, always-terminating probe
    // chains; tombstones otherwise accumulate under eviction churn.
    if (stripe.nullCount < slotsPerStripe / 4)
        compact(stripe);
    reclaim(stripe);
}

namespace {

/** One snapshot line: the key plus every PredictionDetail field. */
common::Json
entryToJson(const std::string &key, const PredictionDetail &detail)
{
    common::Json json;
    json.set("key", key);
    common::Json::Array tiles;
    tiles.reserve(detail.tileDims.size());
    for (const uint64_t dim : detail.tileDims)
        tiles.push_back(common::Json(dim));
    json.set("tile_dims", common::Json(std::move(tiles)));
    json.set("num_tiles", detail.numTiles);
    json.set("num_waves", detail.numWaves);
    json.set("alpha", detail.alpha);
    json.set("beta", detail.beta);
    json.set("utilization", detail.utilization);
    json.set("roofline_per_sm", detail.rooflinePerSm);
    json.set("latency_ms", detail.latencyMs);
    json.set("memory_fallback", detail.memoryFallback);
    return json;
}

PredictionDetail
entryFromJson(const common::Json &json, std::string &key_out)
{
    key_out = json.at("key").asString();
    PredictionDetail detail;
    for (const common::Json &dim : json.at("tile_dims").asArray())
        detail.tileDims.push_back(static_cast<uint64_t>(dim.asInt()));
    detail.numTiles =
        static_cast<uint64_t>(json.at("num_tiles").asInt());
    detail.numWaves =
        static_cast<uint64_t>(json.at("num_waves").asInt());
    detail.alpha = json.at("alpha").asDouble();
    detail.beta = json.at("beta").asDouble();
    detail.utilization = json.at("utilization").asDouble();
    detail.rooflinePerSm = json.at("roofline_per_sm").asDouble();
    detail.latencyMs = json.at("latency_ms").asDouble();
    detail.memoryFallback = json.at("memory_fallback").asBool();
    return detail;
}

} // namespace

size_t
PredictionCache::saveTo(std::ostream &out) const
{
    size_t written = 0;
    for (const auto &stripe : stripes) {
        std::lock_guard<std::mutex> lock(stripe->writerMutex);
        // Least recently used first, so loadFrom's in-order inserts
        // leave the most recent entries most recent.
        std::vector<const Entry *> live;
        live.reserve(stripe->liveCount);
        for (size_t i = 0; i < slotsPerStripe; ++i) {
            const Entry *e =
                stripe->slots[i].load(std::memory_order_seq_cst);
            if (e != nullptr && e != tombstone())
                live.push_back(e);
        }
        std::sort(live.begin(), live.end(),
                  [](const Entry *a, const Entry *b) {
                      return a->lastUsed.load(
                                 std::memory_order_relaxed) <
                             b->lastUsed.load(std::memory_order_relaxed);
                  });
        for (const Entry *e : live) {
            out << entryToJson(e->key, e->detail).dump(0) << '\n';
            ++written;
        }
    }
    return written;
}

size_t
PredictionCache::saveTo(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("PredictionCache: cannot write snapshot '" + path + "'");
    const size_t written = saveTo(static_cast<std::ostream &>(out));
    // Flush before the state check: buffered write failures (disk
    // full) would otherwise surface only in the destructor, silently.
    out.flush();
    if (!out)
        fatal("PredictionCache: I/O error writing snapshot '" + path +
              "'");
    return written;
}

size_t
PredictionCache::loadFrom(std::istream &in)
{
    size_t loaded = 0;
    size_t line_no = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++line_no;
        const size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::string key;
        PredictionDetail detail;
        try {
            detail = entryFromJson(common::Json::parse(line), key);
        } catch (const std::exception &e) {
            fatal("PredictionCache: snapshot line " +
                  std::to_string(line_no) + ": " + e.what());
        }
        insert(key, detail);
        ++loaded;
    }
    return loaded;
}

size_t
PredictionCache::loadFrom(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("PredictionCache: cannot read snapshot '" + path + "'");
    return loadFrom(static_cast<std::istream &>(in));
}

CacheStats
PredictionCache::stats() const
{
    CacheStats s;
    s.hits = hits->value();
    s.misses = misses->value();
    s.evictions = evictions->value();
    s.inserts = inserts->value();
    s.capacity = totalCapacity;
    for (const auto &stripe : stripes) {
        std::lock_guard<std::mutex> lock(stripe->writerMutex);
        s.size += stripe->liveCount;
    }
    return s;
}

void
PredictionCache::registerMetrics(
    const std::shared_ptr<PredictionCache> &cache,
    obs::MetricsRegistry &registry, const std::string &prefix)
{
    ensure(cache != nullptr,
           "PredictionCache::registerMetrics: null cache");
    registry.adopt(prefix + ".hits", cache->hits);
    registry.adopt(prefix + ".misses", cache->misses);
    registry.adopt(prefix + ".evictions", cache->evictions);
    registry.adopt(prefix + ".inserts", cache->inserts);
    registry.probe(prefix + ".size", [cache] {
        return static_cast<double>(cache->size());
    });
    registry.probe(prefix + ".capacity", [cache] {
        return static_cast<double>(cache->capacity());
    });
}

void
PredictionCache::clear()
{
    for (auto &stripe : stripes) {
        std::lock_guard<std::mutex> lock(stripe->writerMutex);
        for (size_t i = 0; i < slotsPerStripe; ++i) {
            Entry *e = stripe->slots[i].load(std::memory_order_relaxed);
            if (e != nullptr && e != tombstone())
                stripe->limbo.push_back(e);
            stripe->slots[i].store(nullptr, std::memory_order_seq_cst);
        }
        stripe->liveCount = 0;
        stripe->nullCount = slotsPerStripe;
        reclaim(*stripe);
    }
}

size_t
PredictionCache::size() const
{
    size_t n = 0;
    for (const auto &stripe : stripes) {
        std::lock_guard<std::mutex> lock(stripe->writerMutex);
        n += stripe->liveCount;
    }
    return n;
}

ScopedKernelCache::ScopedKernelCache(
    std::shared_ptr<PredictionCache> cache, std::string scope)
    : cachePtr(std::move(cache)),
      prefix(std::move(scope) + kCacheScopeSeparator)
{
    ensure(cachePtr != nullptr, "ScopedKernelCache: null cache");
}

bool
ScopedKernelCache::lookup(const std::string &key, PredictionDetail &out)
{
    return cachePtr->lookup(prefix + key, out);
}

void
ScopedKernelCache::insert(const std::string &key,
                          const PredictionDetail &detail)
{
    cachePtr->insert(prefix + key, detail);
}

CachedPredictor::CachedPredictor(const graph::LatencyPredictor &inner_,
                                 std::shared_ptr<PredictionCache> cache,
                                 std::string key_scope)
    : inner(inner_), cachePtr(std::move(cache))
{
    ensure(cachePtr != nullptr, "CachedPredictor: null cache");
    if (!key_scope.empty())
        prefix = std::move(key_scope) + kCacheScopeSeparator;
}

std::string
CachedPredictor::name() const
{
    return inner.name() + "+cache";
}

double
CachedPredictor::predictKernelMs(const KernelDesc &desc,
                                 const GpuSpec &gpu) const
{
    return cachedKernelMs(desc, gpu, gpuFeatureFingerprint(gpu));
}

std::vector<double>
CachedPredictor::predictKernelsMs(const std::vector<KernelDesc> &descs,
                                  const GpuSpec &gpu) const
{
    const std::string gpu_part = gpuFeatureFingerprint(gpu);
    std::vector<double> out;
    out.reserve(descs.size());
    for (const KernelDesc &desc : descs)
        out.push_back(cachedKernelMs(desc, gpu, gpu_part));
    return out;
}

double
CachedPredictor::cachedKernelMs(const KernelDesc &desc, const GpuSpec &gpu,
                                const std::string &gpu_part) const
{
    // Raw op name: the inner predictor may tell kernels apart that the
    // NeuSight canonicalization deliberately merges (the simulator's
    // ground truth does, via its per-kernel-name behaviour).
    const std::string key =
        prefix + core::kernelFingerprintPart(desc, /*canonical_op=*/false) +
        gpu_part;
    PredictionDetail detail;
    if (cachePtr->lookup(key, detail))
        return detail.latencyMs;
    detail = PredictionDetail{};
    detail.latencyMs = inner.predictKernelMs(desc, gpu);
    cachePtr->insert(key, detail);
    return detail.latencyMs;
}

} // namespace neusight::serve
