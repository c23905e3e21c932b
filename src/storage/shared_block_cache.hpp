/**
 * @file
 * Shared, reference-counted cache of coarse block loads.
 *
 * Concurrent walk-service runs over the same GraphFile repeatedly load
 * the same hot blocks.  This cache lets every BlockReader publish the
 * raw bytes of a completed coarse load and serve later loads of the
 * same block without touching the device: a hit costs one memcpy
 * instead of a modeled multi-millisecond SSD read.
 *
 * Entries are held by shared_ptr, so a reader that obtained an entry
 * keeps it alive even if the LRU policy evicts it concurrently
 * (reference counting is what makes the cache safe to share across
 * worker threads without a reader lock on the bytes).  Capacity is
 * byte-bounded and, when a shared util::MemoryBudget is attached,
 * every resident entry is charged against it — the cache shrinks to
 * whatever the engines leave over and never causes a BudgetExceeded.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/memory_budget.hpp"

namespace noswalker::storage {

/** Thread-safe byte-bounded LRU cache of coarse block bytes. */
class SharedBlockCache {
  public:
    /** One cached coarse load: the page-aligned span of a block. */
    struct Entry {
        std::uint32_t block_id = 0;
        /** Absolute file offset of bytes[0] (page aligned). */
        std::uint64_t aligned_begin = 0;
        std::vector<std::uint8_t> bytes;
        /**
         * Bytes reserved against the attached budget when this entry
         * was inserted.  Zero for entries inserted while no budget was
         * attached — eviction releases exactly this amount, never the
         * byte size, so attaching a budget to a pre-populated cache
         * cannot over-release.
         */
        std::uint64_t reserved_bytes = 0;
    };

    /**
     * @param capacity_bytes  max resident entry bytes (0 disables
     *        caching entirely; every lookup misses).
     * @param budget  optional shared budget every resident entry is
     *        charged against (best effort: entries that do not fit are
     *        simply not cached).
     */
    explicit SharedBlockCache(std::uint64_t capacity_bytes,
                              util::MemoryBudget *budget = nullptr)
        : capacity_(capacity_bytes), budget_(budget)
    {
    }

    ~SharedBlockCache() { clear(); }

    SharedBlockCache(const SharedBlockCache &) = delete;
    SharedBlockCache &operator=(const SharedBlockCache &) = delete;

    /**
     * Look up @p block_id, bumping it to most-recently-used.
     * @return a pinned entry, or nullptr on a miss.
     */
    std::shared_ptr<const Entry> find(std::uint32_t block_id);

    /**
     * Publish a completed coarse load (best effort).  Oversized entries
     * and entries that cannot fit the byte capacity or the attached
     * budget after evicting colder blocks are dropped silently.
     */
    void insert(std::uint32_t block_id, std::uint64_t aligned_begin,
                std::vector<std::uint8_t> bytes);

    /** Drop every entry (pinned readers keep theirs alive). */
    void clear();

    /**
     * Attach (or detach, with nullptr) the budget later insertions
     * reserve against.  Entries already resident stay unaccounted —
     * their reserved_bytes is zero, so their eviction releases
     * nothing.  Reservations made under a previously attached budget
     * are released against the new one's pointer only via their
     * recorded reserved_bytes; detach only when no reserved entries
     * remain resident.
     */
    void attach_budget(util::MemoryBudget *budget);

    std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
    std::uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }

    /** Bytes of resident entries. */
    std::uint64_t used_bytes() const;

    /** The configured byte capacity. */
    std::uint64_t capacity_bytes() const { return capacity_; }

  private:
    using LruList =
        std::list<std::pair<std::uint32_t, std::shared_ptr<const Entry>>>;

    /** Drop the LRU tail entry. @pre lru_ not empty; mutex held. */
    void evict_tail();

    const std::uint64_t capacity_;
    util::MemoryBudget *budget_;

    mutable std::mutex mutex_;
    std::uint64_t used_ = 0;
    LruList lru_; ///< front = most recently used
    std::unordered_map<std::uint32_t, LruList::iterator> index_;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace noswalker::storage
