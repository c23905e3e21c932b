/**
 * @file
 * The engine's pre-sample pool (§3.3.2 — §3.3.3): one PreSampleBuffer
 * slot per block, the rule for when a coarse load rebuilds its block's
 * buffer, and coldest-buffer eviction under the pool's own byte cap.
 *
 * Slots are a vector indexed by block id, so lookups on the step path
 * are one indexed load, and eviction scans blocks in ascending id
 * order: equal scheduler counts evict the LOWEST block id — the same
 * tie-break contract as BlockScheduler::hottest() (DESIGN.md §9).
 *
 * The pool charges its own accountant, whose cap the engine claims up
 * front from the global budget: eviction pressure then depends only on
 * this depth-invariant cap, never on speculation buffers or other
 * tenants (DESIGN.md §10).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/block_scheduler.hpp"
#include "core/presample_buffer.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "util/memory_budget.hpp"

namespace noswalker::core {

/** Per-block pre-sample buffers under one byte cap. */
class PreSamplePool {
  public:
    /**
     * @param file        the graph the buffers serve.
     * @param num_blocks  blocks in the partition (slot count).
     * @param pool_bytes  cap of the pool's accountant (> 0).
     * @param params      build parameters; params.max_bytes caps one
     *                    buffer.
     */
    PreSamplePool(const graph::GraphFile &file, std::uint32_t num_blocks,
                  std::uint64_t pool_bytes,
                  const PreSampleBuffer::BuildParams &params);

    /** @p block's buffer, or nullptr when it has none. */
    PreSampleBuffer *
    find(std::uint32_t block) const
    {
        return buffers_[block].get();
    }

    /**
     * Rebuild @p block's buffer for a fill from its fresh coarse load,
     * evicting the coldest other buffers (fewest walkers waiting in
     * @p scheduler, ties to the lowest id) until it fits.
     *
     * @return the planned, unfilled buffer, its generation advanced —
     *         or nullptr when the block keeps its current buffer (not
     *         drained enough to resample) or cannot get one.
     */
    PreSampleBuffer *prepare(const graph::BlockInfo &block,
                             const BlockScheduler &scheduler);

    /** Rebuilds of @p block so far (names its fill streams). */
    std::uint64_t
    generation(std::uint32_t block) const
    {
        return gen_[block];
    }

    /** Publish every live buffer's drain (between step rounds). */
    void publish_drain();

    /** The pool's byte cap. */
    std::uint64_t capacity() const { return budget_.limit(); }

    /** Most bytes the live buffers held after any rebuild. */
    std::uint64_t peak_bytes() const { return peak_bytes_; }

  private:
    /** Take out the buffer whose block has the fewest waiting walkers
     *  (ties: lowest id), never @p except's, and release its charge.
     *  Null when none is left. */
    std::unique_ptr<PreSampleBuffer>
    evict_coldest(std::uint32_t except, const BlockScheduler &scheduler);

    const graph::GraphFile *file_;
    PreSampleBuffer::BuildParams params_;
    /** Declared before buffers_ so their reservations release against
     *  a live accountant on destruction. */
    util::MemoryBudget budget_;
    std::vector<std::unique_ptr<PreSampleBuffer>> buffers_;
    std::vector<std::uint64_t> gen_;
    /** Scratch plan; swaps storage with each rebuilt buffer. */
    PreSampleBuffer::Plan plan_;
    std::uint64_t peak_bytes_ = 0;
};

} // namespace noswalker::core
