/**
 * @file
 * Model-graph cache for the forecast-serving subsystem. At high
 * kernel-prediction-cache hit rates the residual per-request cost is
 * constructing the KernelGraph itself (thousands of KernelDesc nodes for
 * a large transformer), and production traffic asks about the same few
 * (model, batch, context) points over and over — so the server memoizes
 * built graphs behind a canonical request fingerprint. Graphs are
 * GPU-independent (the builders take only model/batch/dtype), shared as
 * immutable shared_ptr snapshots, and evicted LRU. Each entry carries
 * the graph's KernelIndex, built once with the graph, so a cached
 * request prices its distinct kernels without touching the nodes.
 */

#ifndef NEUSIGHT_SERVE_GRAPH_CACHE_HPP
#define NEUSIGHT_SERVE_GRAPH_CACHE_HPP

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "graph/graph.hpp"
#include "graph/kernel_index.hpp"
#include "serve/prediction_cache.hpp"

namespace neusight::serve {

/** A built graph and its kernel index, immutable once cached. */
struct IndexedGraph
{
    graph::KernelGraph graph;
    /** Built from graph after its last append. */
    graph::KernelIndex index;

    explicit IndexedGraph(graph::KernelGraph g)
        : graph(std::move(g)), index(graph)
    {
    }
};

/**
 * Thread-safe LRU cache from a graph fingerprint to an immutable built
 * KernelGraph and its index. A single mutex guards the map: entries are
 * two orders of magnitude fewer (and three heavier) than kernel
 * predictions, so shard contention is not the bottleneck the prediction
 * cache has to dodge.
 */
class ModelGraphCache
{
  public:
    /** @param capacity maximum cached graphs (>= 1). */
    explicit ModelGraphCache(size_t capacity = 128);

    /**
     * Find @p key; on a hit promote the entry and return it, else
     * nullptr. Counts one hit or one miss.
     */
    std::shared_ptr<const IndexedGraph> lookup(const std::string &key);

    /** Insert (or refresh) @p key, evicting the LRU entry when full. */
    void insert(const std::string &key,
                std::shared_ptr<const IndexedGraph> graph);

    /**
     * lookup(), falling back to @p build + insert on a miss; the
     * index is built here, with the graph. The builder runs outside
     * the lock; two threads racing on the same
     * cold key may both build (construction is idempotent) and the
     * later insert wins.
     */
    std::shared_ptr<const IndexedGraph>
    getOrBuild(const std::string &key,
               const std::function<graph::KernelGraph()> &build);

    /** Point-in-time counters. */
    CacheStats stats() const;

    /**
     * Adopt @p cache's live counters into @p registry as
     * "<prefix>.hits" etc., plus size/capacity probes, so registry
     * snapshots and stats() read the same objects (see
     * PredictionCache::registerMetrics).
     */
    static void registerMetrics(const std::shared_ptr<ModelGraphCache> &cache,
                                obs::MetricsRegistry &registry,
                                const std::string &prefix);

    /** Drop every entry; counters keep accumulating. */
    void clear();

    /** Current number of cached graphs. */
    size_t size() const;

    /** Maximum cached graphs. */
    size_t capacity() const { return maxEntries; }

  private:
    using Entry = std::pair<std::string, std::shared_ptr<const IndexedGraph>>;

    mutable std::mutex mutex;
    /** Front = most recently used. */
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    size_t maxEntries;
    /** obs counters (adoptable into a MetricsRegistry); incremented
     *  under the mutex but independently readable. */
    std::shared_ptr<obs::Counter> hitCount =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> missCount =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> evictionCount =
        std::make_shared<obs::Counter>();
    std::shared_ptr<obs::Counter> insertCount =
        std::make_shared<obs::Counter>();
};

} // namespace neusight::serve

#endif // NEUSIGHT_SERVE_GRAPH_CACHE_HPP
