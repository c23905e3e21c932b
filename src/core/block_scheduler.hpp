/**
 * @file
 * Walker-count block scheduler with the adaptive-granularity switch.
 *
 * Chooses the hottest block (most waiting walkers) for the next load —
 * the same state-aware policy GraphWalker introduced — and decides when
 * to flip from coarse sequential loads to fine-grained 4 KiB loads
 * using the paper's rule α·|Wa|·4KiB < S_G (§3.3.1).  The flip is
 * sticky: walker counts only shrink, so once fine mode starts it stays.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace noswalker::core {

/** Tracks per-block walker counts and picks the next block to load. */
class BlockScheduler {
  public:
    /** Sentinel returned by hottest() when no block has walkers. */
    static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

    /**
     * @param num_blocks      blocks in the partition.
     * @param alpha           unevenness factor of the fine-mode rule.
     * @param graph_bytes     S_G, total edge-region bytes.
     * @param page_bytes      fine block size (4 KiB).
     */
    BlockScheduler(std::uint32_t num_blocks, double alpha,
                   std::uint64_t graph_bytes, std::uint32_t page_bytes);

    /** A walker is now waiting in @p block. */
    void
    add_walker(std::uint32_t block)
    {
        ++counts_[block];
    }

    /** A walker left @p block (moved on or retired). */
    void remove_walker(std::uint32_t block);

    /**
     * Remove @p n walkers from @p block at once.  Removing more than
     * are waiting asserts in debug builds and clamps to zero in
     * release builds — an underflow wrap would make the bucket the
     * hottest block forever.
     */
    void remove_walkers(std::uint32_t block, std::uint64_t n);

    /** Waiting walkers in @p block. */
    std::uint64_t count(std::uint32_t block) const
    {
        return counts_[block];
    }

    /**
     * Block with the most waiting walkers, or kNoBlock.
     *
     * Tie-break contract: equal counts resolve toward the LOWEST block
     * id.  This is a stated invariant, not an implementation accident —
     * the processed-block schedule and the prefetch nomination both
     * rely on it for bit-identical walk output across prefetch depths,
     * thread counts, and shard counts.
     */
    std::uint32_t hottest() const;

    /**
     * Every block with waiting walkers into @p out, in hottest()'s
     * order: count descending, equal counts toward the lowest id.  A
     * fine round (DESIGN.md §12) takes its blocks in this order.
     */
    void heat_order(std::vector<std::uint32_t> &out) const;

    /**
     * The up to @p k hottest blocks with waiting walkers, hottest
     * first, excluding every id in @p skip.  The depth-K prefetch
     * pipeline uses this to nominate the next speculative loads.
     *
     * Same tie-break contract as hottest(): equal counts resolve
     * toward the lowest block id, at every rank of the result.
     */
    std::vector<std::uint32_t>
    top_k_excluding(std::size_t k,
                    std::span<const std::uint32_t> skip) const;

    /**
     * Whether the engine should use fine-grained loads given the
     * number of active walkers.  Sticky once triggered.
     */
    bool fine_mode(std::uint64_t active_walkers);

    /** True once the sticky fine-mode switch has fired. */
    bool fine_mode_active() const { return fine_; }

  private:
    std::vector<std::uint64_t> counts_;
    double alpha_;
    std::uint64_t graph_bytes_;
    std::uint32_t page_bytes_;
    bool fine_ = false;
};

} // namespace noswalker::core
