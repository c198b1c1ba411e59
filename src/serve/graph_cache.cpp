#include "serve/graph_cache.hpp"

#include <utility>

#include "common/logging.hpp"

namespace neusight::serve {

ModelGraphCache::ModelGraphCache(size_t capacity) : maxEntries(capacity)
{
    ensure(capacity >= 1, "ModelGraphCache: capacity must be at least 1");
}

std::shared_ptr<const IndexedGraph>
ModelGraphCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = index.find(key);
    if (it == index.end()) {
        missCount->inc();
        return nullptr;
    }
    hitCount->inc();
    lru.splice(lru.begin(), lru, it->second);
    return it->second->second;
}

void
ModelGraphCache::insert(const std::string &key,
                        std::shared_ptr<const IndexedGraph> graph)
{
    std::lock_guard<std::mutex> lock(mutex);
    insertCount->inc();
    const auto it = index.find(key);
    if (it != index.end()) {
        it->second->second = std::move(graph);
        lru.splice(lru.begin(), lru, it->second);
        return;
    }
    if (lru.size() >= maxEntries) {
        index.erase(lru.back().first);
        lru.pop_back();
        evictionCount->inc();
    }
    lru.emplace_front(key, std::move(graph));
    index[key] = lru.begin();
}

std::shared_ptr<const IndexedGraph>
ModelGraphCache::getOrBuild(
    const std::string &key,
    const std::function<graph::KernelGraph()> &build)
{
    if (auto hit = lookup(key))
        return hit;
    auto built = std::make_shared<const IndexedGraph>(build());
    insert(key, built);
    return built;
}

void
ModelGraphCache::registerMetrics(
    const std::shared_ptr<ModelGraphCache> &cache,
    obs::MetricsRegistry &registry, const std::string &prefix)
{
    ensure(cache != nullptr,
           "ModelGraphCache::registerMetrics: null cache");
    registry.adopt(prefix + ".hits", cache->hitCount);
    registry.adopt(prefix + ".misses", cache->missCount);
    registry.adopt(prefix + ".evictions", cache->evictionCount);
    registry.adopt(prefix + ".inserts", cache->insertCount);
    registry.probe(prefix + ".size", [cache] {
        return static_cast<double>(cache->size());
    });
    registry.probe(prefix + ".capacity", [cache] {
        return static_cast<double>(cache->capacity());
    });
}

CacheStats
ModelGraphCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    CacheStats s;
    s.hits = hitCount->value();
    s.misses = missCount->value();
    s.evictions = evictionCount->value();
    s.inserts = insertCount->value();
    s.size = lru.size();
    s.capacity = maxEntries;
    return s;
}

void
ModelGraphCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    lru.clear();
    index.clear();
}

size_t
ModelGraphCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return lru.size();
}

} // namespace neusight::serve
