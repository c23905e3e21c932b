#include "core/block_scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "util/error.hpp"

namespace noswalker::core {

BlockScheduler::BlockScheduler(std::uint32_t num_blocks, double alpha,
                               std::uint64_t graph_bytes,
                               std::uint32_t page_bytes)
    : counts_(num_blocks, 0), alpha_(alpha), graph_bytes_(graph_bytes),
      page_bytes_(page_bytes)
{
}

void
BlockScheduler::remove_walker(std::uint32_t block)
{
    NOSWALKER_CHECK(counts_[block] > 0);
    --counts_[block];
}

void
BlockScheduler::remove_walkers(std::uint32_t block, std::uint64_t n)
{
    assert(counts_[block] >= n);
    // Clamp rather than wrap: an underflowing subtraction would turn
    // the bucket into a ~2^64 "hottest" block and wedge the schedule
    // on it forever in release builds.
    counts_[block] -= std::min(counts_[block], n);
}

std::uint32_t
BlockScheduler::hottest() const
{
    std::uint32_t best = kNoBlock;
    std::uint64_t best_count = 0;
    for (std::uint32_t b = 0; b < counts_.size(); ++b) {
        if (counts_[b] > best_count) {
            best_count = counts_[b];
            best = b;
        }
    }
    return best;
}

void
BlockScheduler::heat_heap(std::vector<std::uint32_t> &heap) const
{
    heap.clear();
    for (std::uint32_t b = 0; b < counts_.size(); ++b) {
        if (counts_[b] != 0) {
            heap.push_back(b);
        }
    }
    std::make_heap(heap.begin(), heap.end(), colder());
}

std::uint32_t
BlockScheduler::pop_hottest(std::vector<std::uint32_t> &heap) const
{
    if (heap.empty()) {
        return kNoBlock;
    }
    std::pop_heap(heap.begin(), heap.end(), colder());
    const std::uint32_t block = heap.back();
    heap.pop_back();
    return block;
}

std::vector<std::uint32_t>
BlockScheduler::top_k_excluding(std::size_t k,
                                std::span<const std::uint32_t> skip) const
{
    std::vector<std::uint32_t> picks;
    if (k == 0) {
        return picks;
    }
    picks.reserve(k);
    // Selection by repeated max scan: k is the prefetch depth (a small
    // constant), so O(k·B) beats sorting all B blocks.
    while (picks.size() < k) {
        std::uint32_t best = kNoBlock;
        std::uint64_t best_count = 0;
        for (std::uint32_t b = 0; b < counts_.size(); ++b) {
            if (counts_[b] <= best_count) {
                continue;
            }
            const auto excluded = [&](std::uint32_t id) {
                for (std::uint32_t s : skip) {
                    if (s == id) {
                        return true;
                    }
                }
                for (std::uint32_t p : picks) {
                    if (p == id) {
                        return true;
                    }
                }
                return false;
            };
            if (excluded(b)) {
                continue;
            }
            best_count = counts_[b];
            best = b;
        }
        if (best == kNoBlock) {
            break;
        }
        picks.push_back(best);
    }
    return picks;
}

bool
BlockScheduler::fine_mode(std::uint64_t active_walkers)
{
    if (!fine_) {
        const double lhs = alpha_ * static_cast<double>(active_walkers) *
                           static_cast<double>(page_bytes_);
        if (lhs < static_cast<double>(graph_bytes_)) {
            fine_ = true;
        }
    }
    return fine_;
}

} // namespace noswalker::core
