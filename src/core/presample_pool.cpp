#include "core/presample_pool.hpp"

#include <algorithm>
#include <optional>

namespace noswalker::core {

PreSamplePool::PreSamplePool(const graph::GraphFile &file,
                             std::uint32_t num_blocks,
                             std::uint64_t pool_bytes,
                             const PreSampleBuffer::BuildParams &params)
    : file_(&file), params_(params), budget_(pool_bytes),
      buffers_(num_blocks), gen_(num_blocks, 0)
{
}

PreSampleBuffer *
PreSamplePool::prepare(const graph::BlockInfo &block,
                       const BlockScheduler &scheduler)
{
    std::unique_ptr<PreSampleBuffer> &slot = buffers_[block.id];
    const PreSampleBuffer *previous = slot.get();
    // Rebuild only "when it should sample new edges" (§3.3.2): when the
    // buffer is substantially drained or walkers have been stalling on
    // it (unmet demand).  Otherwise the reserved samples stay valid and
    // rebuilding would discard them.
    if (previous != nullptr && previous->consumed_fraction() < 0.3 &&
        previous->stall_count() <
            std::max<std::uint64_t>(64, previous->slot_count() / 8)) {
        return nullptr;
    }

    if (!PreSampleBuffer::plan(*file_, block, params_, previous, plan_)) {
        // The meta array alone is over the per-buffer cap, so this
        // block never gets a buffer.  Its load still evicts every other
        // buffer, as a failed fit always has: the flush acts as a
        // periodic refresh that the rebuild rule above otherwise
        // withholds, and skipping it costs I/O (ROADMAP open item).
        while (evict_coldest(block.id, scheduler) != nullptr) {
        }
        return nullptr;
    }
    // The previous generation keeps its charge while the new one is
    // reserved, so eviction sees both.
    std::unique_ptr<PreSampleBuffer> spare;
    std::optional<util::Reservation> charge;
    while (!(charge = util::Reservation::try_make(budget_, plan_.bytes))) {
        std::unique_ptr<PreSampleBuffer> victim =
            evict_coldest(block.id, scheduler);
        if (victim == nullptr) {
            return nullptr; // cannot fit: skip pre-sampling it
        }
        if (spare == nullptr) {
            spare = std::move(victim);
        }
    }
    if (slot == nullptr) {
        // Reuse an evicted buffer's storage when there is one.
        slot = spare != nullptr ? std::move(spare)
                                : std::make_unique<PreSampleBuffer>();
    }
    slot->rebuild(plan_, std::move(*charge));
    ++gen_[block.id];
    // Only buffers charge this accountant, so its usage is the live
    // buffers' total.
    peak_bytes_ = std::max(peak_bytes_, budget_.used());
    return slot.get();
}

std::unique_ptr<PreSampleBuffer>
PreSamplePool::evict_coldest(std::uint32_t except,
                             const BlockScheduler &scheduler)
{
    std::uint32_t victim = BlockScheduler::kNoBlock;
    std::uint64_t coldest = ~std::uint64_t{0};
    // Ascending ids with a strict comparison: ties go to the lowest id.
    for (std::uint32_t id = 0; id < buffers_.size(); ++id) {
        if (id == except || buffers_[id] == nullptr) {
            continue;
        }
        const std::uint64_t c = scheduler.count(id);
        if (c < coldest) {
            coldest = c;
            victim = id;
        }
    }
    if (victim == BlockScheduler::kNoBlock) {
        return nullptr;
    }
    std::unique_ptr<PreSampleBuffer> out = std::move(buffers_[victim]);
    out->release();
    return out;
}

void
PreSamplePool::publish_drain()
{
    for (const std::unique_ptr<PreSampleBuffer> &buf : buffers_) {
        if (buf != nullptr) {
            buf->publish_drain();
        }
    }
}

} // namespace noswalker::core
