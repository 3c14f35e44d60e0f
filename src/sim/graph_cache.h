/**
 * @file
 * Memoized graph build + compile, plus whole-run memoization.
 *
 * Two cache levels, both pure-function memos over one MemoCache
 * template:
 *
 *  1. CompiledGraphCache — buildGraph + compileGraph are pure
 *     functions of (workload, run setup, chip generation): the
 *     workload enum and RunSetup fully determine the emitted operator
 *     graph, and the generation's NpuConfig fully determines the
 *     fusion/tiling annotations. A warm simulateWorkload call skips
 *     graph construction entirely.
 *
 *  2. WorkloadRunCache — Engine::run over a compiled graph is itself
 *     a pure function of (workload, setup, generation, gating
 *     params), so the whole WorkloadRun is memoized one level up.
 *     Sweeps that revisit a grid point (SLO searches re-simulating
 *     the NPU-D anchor per call, overlapping candidate setups, figure
 *     binaries sharing cases) replay the stored run without touching
 *     the engine at all.
 *
 * Thread-safe, same shape as OpExecutionCache: entries are immutable
 * shared_ptrs, so a hit is a pointer bump under the lock and the
 * compiled graph is shared read-only by every engine run (Engine::run
 * takes the graph const). A hit is bitwise identical to a cold
 * compile/simulation because every pass is deterministic — with one
 * documented exception: a replayed WorkloadRun carries the
 * opCacheHits/opCacheMisses diagnostics of the run that was stored
 * (the replay itself runs no engine, so it has no counters of its
 * own; see WorkloadRun in sim/engine.h).
 */

#ifndef REGATE_SIM_GRAPH_CACHE_H
#define REGATE_SIM_GRAPH_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "arch/gating_params.h"
#include "arch/npu_config.h"
#include "common/hash.h"
#include "compiler/compiler.h"
#include "models/workload.h"
#include "sim/engine.h"

namespace regate {
namespace sim {

/**
 * Thread-safe content-keyed memo: immutable shared_ptr entries,
 * first-writer-wins stores, hit/miss counters, clear() invalidation.
 * Key must provide operator== and Hash must hash it.
 */
template <typename Key, typename Value, typename Hash>
class MemoCache
{
  public:
    /** The cached value, or nullptr on miss. Counts hits/misses. */
    std::shared_ptr<const Value>
    lookup(const Key &key) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            ++misses_;
            return nullptr;
        }
        ++hits_;
        return it->second;
    }

    /**
     * Store a value and return the canonical entry (the already-
     * present one if another worker raced this store: the first
     * writer wins, so every reader shares one entry — the values are
     * identical either way because the memoized functions are
     * deterministic).
     */
    std::shared_ptr<const Value>
    store(const Key &key, Value value)
    {
        auto entry = std::make_shared<const Value>(std::move(value));
        std::lock_guard<std::mutex> lock(mu_);
        return map_.emplace(key, entry).first->second;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return map_.size();
    }

    /** Invalidate every entry (memoized code changed, tests). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        map_.clear();
    }

    /** Lifetime lookup counters (diagnostics; monotonic). */
    std::uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return hits_;
    }

    std::uint64_t
    misses() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return misses_;
    }

  private:
    mutable std::mutex mu_;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
    std::unordered_map<Key, std::shared_ptr<const Value>, Hash> map_;
};

/** Shared key prefix of both cache levels. */
struct GraphKey
{
    models::Workload w{};
    arch::NpuGeneration gen{};
    models::RunSetup setup;

    /**
     * Scenario identity (ScenarioSpec::identityText) for
     * registry-driven custom scenarios; empty for the enum workload
     * path. Two scenarios with equal identity build identical graphs
     * (the display name is excluded), so the text is exactly the
     * cache key the spec path needs.
     */
    std::string scen;

    bool
    operator==(const GraphKey &o) const
    {
        return w == o.w && gen == o.gen && setup == o.setup &&
               scen == o.scen;
    }
};

struct GraphKeyHash
{
    std::size_t
    operator()(const GraphKey &k) const
    {
        std::size_t seed = k.setup.contentHash();
        hashCombine(seed, static_cast<std::size_t>(k.w));
        hashCombine(seed, static_cast<std::size_t>(k.gen));
        if (!k.scen.empty())
            hashCombine(seed, static_cast<std::size_t>(fnv1a64(
                                  k.scen.data(), k.scen.size())));
        return seed;
    }
};

/** GraphKey plus the gating params the engine evaluated under. */
struct RunKey
{
    GraphKey graph;
    arch::GatingParams params;

    bool
    operator==(const RunKey &o) const
    {
        return graph == o.graph && params == o.params;
    }
};

struct RunKeyHash
{
    std::size_t
    operator()(const RunKey &k) const
    {
        std::size_t seed = GraphKeyHash{}(k.graph);
        hashCombine(seed, k.params.contentHash());
        return seed;
    }
};

/** Memoized (workload, setup, generation) -> CompileResult. */
class CompiledGraphCache
{
  public:
    std::shared_ptr<const compiler::CompileResult>
    lookup(models::Workload w, const models::RunSetup &setup,
           arch::NpuGeneration gen) const
    {
        return cache_.lookup({w, gen, setup, {}});
    }

    std::shared_ptr<const compiler::CompileResult>
    store(models::Workload w, const models::RunSetup &setup,
          arch::NpuGeneration gen, compiler::CompileResult result)
    {
        return cache_.store({w, gen, setup, {}}, std::move(result));
    }

    /** Full-key forms (the scenario path sets GraphKey::scen). */
    std::shared_ptr<const compiler::CompileResult>
    lookup(const GraphKey &key) const
    {
        return cache_.lookup(key);
    }

    std::shared_ptr<const compiler::CompileResult>
    store(const GraphKey &key, compiler::CompileResult result)
    {
        return cache_.store(key, std::move(result));
    }

    std::size_t size() const { return cache_.size(); }
    void clear() { cache_.clear(); }
    std::uint64_t hits() const { return cache_.hits(); }
    std::uint64_t misses() const { return cache_.misses(); }

  private:
    MemoCache<GraphKey, compiler::CompileResult, GraphKeyHash> cache_;
};

/**
 * Memoized whole-run simulation results:
 * (workload, setup, generation, gating params) -> WorkloadRun.
 *
 * Unlike the build/compile memo this cache is LRU-bounded: a
 * long-lived sweep service revisits an unbounded stream of grid
 * points, and each WorkloadRun carries opRecords/timeline vectors
 * that make entries kilobytes each. Every entry is charged its
 * approximate heap footprint (entryBytes) against a byte budget;
 * storing past the budget evicts least-recently-used entries.
 * Eviction never affects results — an evicted point is simply
 * re-simulated on its next visit — and a budget of 0 disables the
 * bound. The process-wide instance (sharedRunCache) takes its budget
 * from the REGATE_RUN_CACHE_MB environment variable.
 */
class WorkloadRunCache
{
  public:
    /** Default byte budget of the process-wide cache, 512 MiB. */
    static constexpr std::size_t kDefaultByteBudget =
        std::size_t(512) << 20;

    explicit WorkloadRunCache(
        std::size_t byte_budget = kDefaultByteBudget)
        : byteBudget_(byte_budget)
    {}

    /** Approximate heap footprint of one cached run, bytes. */
    static std::size_t entryBytes(const WorkloadRun &run);

    std::shared_ptr<const WorkloadRun>
    lookup(models::Workload w, const models::RunSetup &setup,
           arch::NpuGeneration gen,
           const arch::GatingParams &params) const;

    std::shared_ptr<const WorkloadRun>
    store(models::Workload w, const models::RunSetup &setup,
          arch::NpuGeneration gen, const arch::GatingParams &params,
          WorkloadRun run);

    /** Full-key forms (the scenario path sets GraphKey::scen). */
    std::shared_ptr<const WorkloadRun> lookup(const RunKey &key) const;

    std::shared_ptr<const WorkloadRun> store(const RunKey &key,
                                             WorkloadRun run);

    /**
     * Change the byte budget (0 = unbounded), evicting immediately
     * if the cache is already over the new bound.
     */
    void setByteBudget(std::size_t bytes);

    std::size_t byteBudget() const;

    /** Total bytes currently charged against the budget. */
    std::size_t totalBytes() const;

    std::size_t size() const;
    void clear();
    std::uint64_t hits() const;
    std::uint64_t misses() const;

    /** Lifetime count of LRU evictions (diagnostics; monotonic). */
    std::uint64_t evictions() const;

  private:
    struct Entry
    {
        RunKey key;
        std::shared_ptr<const WorkloadRun> run;
        std::size_t bytes = 0;
    };

    using LruList = std::list<Entry>;

    /** Drop LRU entries until the budget is met. Caller holds mu_. */
    void evictOverBudgetLocked();

    mutable std::mutex mu_;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::size_t byteBudget_ = kDefaultByteBudget;
    std::size_t totalBytes_ = 0;
    mutable LruList lru_;  ///< Front = most recently used.
    mutable std::unordered_map<RunKey, LruList::iterator, RunKeyHash>
        map_;
};

/**
 * The process-wide compiled-graph cache shared by every
 * simulateWorkload call (and safe to share across sweep workers).
 * One cache for all generations: the generation is part of the key.
 */
CompiledGraphCache &sharedGraphCache();

/**
 * The process-wide whole-run memo shared by every simulateWorkload
 * call; same sharing/thread-safety story as sharedGraphCache().
 * Its byte budget defaults to WorkloadRunCache::kDefaultByteBudget
 * and can be overridden with the REGATE_RUN_CACHE_MB environment
 * variable (a non-negative number of MiB; 0 = unbounded; malformed
 * values fall back to the default, like REGATE_THREADS).
 */
WorkloadRunCache &sharedRunCache();

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_GRAPH_CACHE_H
