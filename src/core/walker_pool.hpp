/**
 * @file
 * Bounded walker pool with per-block parking (§2.4.2).
 *
 * Walkers live by value in per-block buckets; the pool only bounds how
 * many are live at once.  With dynamic walker management the bound is
 * small and no state ever touches disk; the engine generates a new
 * walker whenever one retires, which is what keeps walker-state I/O at
 * zero.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/memory_budget.hpp"

namespace noswalker::core {

/** Per-block buckets of live walkers with a global live-count bound. */
template <typename WalkerT>
class WalkerPool {
  public:
    /**
     * @param num_blocks     parking buckets (one per graph block).
     * @param capacity       max live walkers.
     * @param budget         pool storage is reserved here.
     * @param reserve_bytes  bytes to charge the budget; defaults to
     *        capacity × sizeof(WalkerT).  The spill-emulating mode
     *        passes only the in-memory buffer share — the remainder is
     *        "on disk" and its traffic is charged via WalkerSpill.
     */
    WalkerPool(std::uint32_t num_blocks, std::uint64_t capacity,
               util::MemoryBudget &budget, std::uint64_t reserve_bytes = 0)
        : capacity_(capacity),
          reservation_(budget,
                       reserve_bytes == 0 ? capacity * sizeof(WalkerT)
                                          : reserve_bytes,
                       "walker pool"),
          buckets_(num_blocks)
    {
        NOSWALKER_CHECK(capacity_ > 0);
    }

    /** Max live walkers. */
    std::uint64_t capacity() const { return capacity_; }

    /** Live walkers right now (parked + in flight). */
    std::uint64_t live() const { return live_; }

    /** Whether another walker may be admitted. */
    bool can_admit() const { return live_ < capacity_; }

    /** Admit a walker that the caller is about to move (in flight). */
    void
    admit()
    {
        NOSWALKER_CHECK(live_ < capacity_);
        ++live_;
    }

    /** Park @p w in @p block's bucket until that block is serviced. */
    void
    park(std::uint32_t block, const WalkerT &w)
    {
        buckets_[block].push_back(w);
    }

    /** Retire one in-flight walker (terminated or dead-ended). */
    void
    retire()
    {
        NOSWALKER_CHECK(live_ > 0);
        --live_;
    }

    /** Retire @p n in-flight walkers at once (parallel-step merge). */
    void
    retire_n(std::uint64_t n)
    {
        NOSWALKER_CHECK(live_ >= n);
        live_ -= n;
    }

    /** Walkers currently parked in @p block. */
    std::uint64_t
    parked(std::uint32_t block) const
    {
        return buckets_[block].size();
    }

    /** Read-only view of @p block's bucket (fine-mode needed lists). */
    const std::vector<WalkerT> &
    bucket_view(std::uint32_t block) const
    {
        return buckets_[block];
    }

    /**
     * Move block @p block's bucket out for processing into @p out, and
     * give the bucket @p out's emptied storage: a scratch vector passed
     * on every call keeps the buckets' capacity circulating instead of
     * regrowing each refill.  The caller owns the walkers (they become
     * in-flight) and re-parks or retires each one.
     */
    void
    take_bucket(std::uint32_t block, std::vector<WalkerT> &out)
    {
        out.clear();
        out.swap(buckets_[block]);
    }

    /** Total parked walkers over all buckets. */
    std::uint64_t
    total_parked() const
    {
        std::uint64_t n = 0;
        for (const auto &b : buckets_) {
            n += b.size();
        }
        return n;
    }

  private:
    std::uint64_t capacity_;
    std::uint64_t live_ = 0;
    util::Reservation reservation_;
    std::vector<std::vector<WalkerT>> buckets_;
};

} // namespace noswalker::core
