#include "storage/shared_block_cache.hpp"

namespace noswalker::storage {

std::shared_ptr<const SharedBlockCache::Entry>
SharedBlockCache::find(std::uint32_t block_id)
{
    std::lock_guard lock(mutex_);
    const auto it = index_.find(block_id);
    if (it == index_.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
}

void
SharedBlockCache::insert(std::uint32_t block_id,
                         std::uint64_t aligned_begin,
                         std::vector<std::uint8_t> bytes)
{
    const std::uint64_t need = bytes.size();
    if (need == 0 || need > capacity_) {
        return;
    }
    std::lock_guard lock(mutex_);
    if (index_.count(block_id) != 0) {
        return; // someone else published it first
    }
    while (used_ + need > capacity_ && !lru_.empty()) {
        evict_tail();
    }
    if (used_ + need > capacity_) {
        return;
    }
    if (budget_ != nullptr) {
        // The engines need the memory more than the cache does: evict
        // colder blocks to make the reservation fit, else give up.
        bool reserved = budget_->try_reserve(need);
        while (!reserved && !lru_.empty()) {
            evict_tail();
            reserved = budget_->try_reserve(need);
        }
        if (!reserved) {
            return;
        }
    }
    auto entry = std::make_shared<Entry>();
    entry->block_id = block_id;
    entry->aligned_begin = aligned_begin;
    entry->bytes = std::move(bytes);
    entry->reserved_bytes = budget_ != nullptr ? need : 0;
    lru_.emplace_front(block_id, std::move(entry));
    index_[block_id] = lru_.begin();
    used_ += need;
}

void
SharedBlockCache::evict_tail()
{
    const auto &victim = lru_.back();
    const std::uint64_t bytes = victim.second->bytes.size();
    // Release exactly what was reserved at insertion — entries that
    // predate the attached budget were never charged against it.
    const std::uint64_t reserved = victim.second->reserved_bytes;
    index_.erase(victim.first);
    used_ -= bytes;
    if (budget_ != nullptr && reserved != 0) {
        budget_->release(reserved);
    }
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
}

void
SharedBlockCache::attach_budget(util::MemoryBudget *budget)
{
    std::lock_guard lock(mutex_);
    budget_ = budget;
}

void
SharedBlockCache::clear()
{
    std::lock_guard lock(mutex_);
    while (!lru_.empty()) {
        evict_tail();
    }
}

std::uint64_t
SharedBlockCache::used_bytes() const
{
    std::lock_guard lock(mutex_);
    return used_;
}

} // namespace noswalker::storage
