#include "sim/graph_cache.h"

#include <cstdint>
#include <cstdlib>

namespace regate {
namespace sim {

std::size_t
WorkloadRunCache::entryBytes(const WorkloadRun &run)
{
    // Charge the entry's true heap footprint: allocated capacities,
    // not element counts. The old accounting summed sizeof(OpRecord)
    // + name.size() per record, which both missed vector slack and
    // undercounted the record storage itself — the dominant
    // allocation — so the LRU budget (REGATE_RUN_CACHE_MB) could blow
    // far past its configured bytes.
    std::size_t bytes = sizeof(Entry) + sizeof(WorkloadRun);
    bytes += run.name.capacity();
    bytes += run.opRecords.heapBytes();
    for (auto c : arch::kAllComponents)
        bytes += run.timeline[c].gaps().capacity() *
                 sizeof(core::GapGroup);
    return bytes;
}

std::shared_ptr<const WorkloadRun>
WorkloadRunCache::lookup(models::Workload w,
                         const models::RunSetup &setup,
                         arch::NpuGeneration gen,
                         const arch::GatingParams &params) const
{
    return lookup(RunKey{{w, gen, setup, {}}, params});
}

std::shared_ptr<const WorkloadRun>
WorkloadRunCache::lookup(const RunKey &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    // A hit becomes the most-recently-used entry; splice just
    // relinks list nodes, so the iterator in map_ stays valid.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->run;
}

std::shared_ptr<const WorkloadRun>
WorkloadRunCache::store(models::Workload w,
                        const models::RunSetup &setup,
                        arch::NpuGeneration gen,
                        const arch::GatingParams &params,
                        WorkloadRun run)
{
    return store(RunKey{{w, gen, setup, {}}, params}, std::move(run));
}

std::shared_ptr<const WorkloadRun>
WorkloadRunCache::store(const RunKey &key, WorkloadRun run)
{
    auto entry = std::make_shared<const WorkloadRun>(std::move(run));
    std::size_t bytes = entryBytes(*entry);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        // First writer wins (the memoized function is deterministic,
        // so the racing values are identical); refresh recency.
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->run;
    }
    lru_.push_front(Entry{key, entry, bytes});
    map_.emplace(key, lru_.begin());
    totalBytes_ += bytes;
    evictOverBudgetLocked();
    return entry;
}

void
WorkloadRunCache::evictOverBudgetLocked()
{
    if (byteBudget_ == 0)
        return;
    // Never evict the most-recently-used entry: a store must survive
    // its own insertion even if one run exceeds the whole budget.
    while (totalBytes_ > byteBudget_ && lru_.size() > 1) {
        const auto &victim = lru_.back();
        totalBytes_ -= victim.bytes;
        map_.erase(victim.key);
        lru_.pop_back();
        ++evictions_;
    }
}

void
WorkloadRunCache::setByteBudget(std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    byteBudget_ = bytes;
    evictOverBudgetLocked();
}

std::size_t
WorkloadRunCache::byteBudget() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return byteBudget_;
}

std::size_t
WorkloadRunCache::totalBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return totalBytes_;
}

std::size_t
WorkloadRunCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

void
WorkloadRunCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    totalBytes_ = 0;
}

std::uint64_t
WorkloadRunCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

std::uint64_t
WorkloadRunCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

std::uint64_t
WorkloadRunCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

CompiledGraphCache &
sharedGraphCache()
{
    static CompiledGraphCache cache;
    return cache;
}

namespace {

/** REGATE_RUN_CACHE_MB in bytes; default on unset/malformed input. */
std::size_t
runCacheBudgetFromEnv()
{
    const char *env = std::getenv("REGATE_RUN_CACHE_MB");
    if (!env || *env == '\0')
        return WorkloadRunCache::kDefaultByteBudget;
    char *end = nullptr;
    double mb = std::strtod(env, &end);
    if (end == env || *end != '\0' || !(mb >= 0))
        return WorkloadRunCache::kDefaultByteBudget;
    // Clamp before the float->integer conversion: casting a value
    // outside size_t's range is undefined behavior.
    constexpr double max_mb =
        static_cast<double>(SIZE_MAX >> 21);
    if (mb >= max_mb)
        return SIZE_MAX;
    return static_cast<std::size_t>(mb * (std::size_t(1) << 20));
}

}  // namespace

WorkloadRunCache &
sharedRunCache()
{
    static WorkloadRunCache cache(runCacheBudgetFromEnv());
    return cache;
}

}  // namespace sim
}  // namespace regate
