/**
 * @file
 * Coarse- and fine-grained block loading (§3.3.1).
 *
 * Coarse mode streams a whole block in large sequential requests
 * (bandwidth-bound on the SsdModel).  Fine mode loads only the 4 KiB
 * pages that stalled walkers need, following a page bitmap (IOPS-bound)
 * — adjacent marked pages are coalesced into single requests, exactly
 * like issuing one larger NVMe command.  What a walker needs is the
 * one target slot its next draw reads when the app can name it
 * (engine::SlotDrawApp), else its whole record (graph::kWholeRecord).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/shared_block_cache.hpp"
#include "util/bitmap.hpp"
#include "util/memory_budget.hpp"

namespace noswalker::storage {

/**
 * An in-memory copy of (part of) one block's edge region.
 *
 * The buffer covers the page-aligned byte span of the block; in fine
 * mode only marked pages hold valid data and `vertex_loaded` reports
 * whether what a vertex's next event reads is resident.
 */
class BlockBuffer {
  public:
    BlockBuffer() = default;

    /** The block this buffer holds (nullptr when empty). */
    const graph::BlockInfo *info() const { return info_; }

    /** True when the whole block is resident (coarse load). */
    bool complete() const { return complete_; }

    /**
     * Whether target slot @p slot of vertex @p v's record is resident —
     * with the default graph::kWholeRecord, whether the whole record is.
     */
    bool
    vertex_loaded(const graph::GraphFile &file, graph::VertexId v,
                  std::uint32_t slot = graph::kWholeRecord) const
    {
        if (info_ == nullptr || !info_->contains(v)) {
            return false;
        }
        return complete_ || pages_loaded(file, v, slot);
    }

    /** Decode vertex @p v. @pre vertex_loaded(file, v). */
    graph::VertexView
    view(const graph::GraphFile &file, graph::VertexId v) const
    {
        return file.decode(v, bytes(), aligned_begin_);
    }

    /** Bytes currently held by the buffer. */
    std::uint64_t capacity_bytes() const { return size_; }

    /** Device offset of the buffer's first byte. */
    std::uint64_t aligned_begin() const { return aligned_begin_; }

    /** Read-only view of the held bytes. */
    std::span<const std::uint8_t> bytes() const
    {
        return {data_.get(), size_};
    }

    /**
     * Detach from the block but retain the storage (and its budget
     * reservation) for the next load — a recycled buffer at its
     * capacity high-water mark never reallocates or re-reserves.
     */
    void clear();

    /** Release the storage and its reservation (full reset). */
    void release_storage();

    /**
     * Attach to @p block, sizing the storage for its page-aligned span.
     * The reservation against @p budget only grows past the high-water
     * mark; shrinking loads reuse the existing allocation untouched.
     */
    void resize_for(const graph::BlockInfo &block,
                    util::MemoryBudget &budget);

    /** Storage-growth events since construction (reuse telemetry). */
    std::uint64_t allocations() const { return allocations_; }

  private:
    friend class BlockReader;

    /** Fine mode: whether every page holding @p slot of @p v's
     *  record (all of it on kWholeRecord) is marked. */
    bool pages_loaded(const graph::GraphFile &file, graph::VertexId v,
                      std::uint32_t slot) const;

    /** Pages [first, last] covering what @p v's event reads: target
     *  @p slot, or the whole record on kWholeRecord.  first > last
     *  when there is nothing to read (a dead end). */
    std::pair<std::uint64_t, std::uint64_t>
    page_range(const graph::GraphFile &file, graph::VertexId v,
               std::uint32_t slot) const;

    const graph::BlockInfo *info_ = nullptr;
    std::uint64_t aligned_begin_ = 0;
    /** Storage of capacity_ bytes, never zeroed: only bytes a load
     *  wrote are ever decoded (fine mode checks valid_pages_). */
    std::unique_ptr<std::uint8_t[]> data_;
    std::uint64_t size_ = 0;
    std::uint64_t capacity_ = 0;
    util::Bitmap valid_pages_; ///< fine mode: which pages are resident
    bool complete_ = false;
    util::Reservation reservation_;
    std::uint64_t allocations_ = 0;
};

/** Result of one load operation. */
struct LoadResult {
    std::uint64_t bytes_read = 0;
    std::uint64_t requests = 0;
    /** Modeled device time of this load's requests, seconds. */
    double modeled_seconds = 0.0;
    /** True when a shared cache served the load without device I/O. */
    bool from_cache = false;
};

/**
 * Streams blocks of a GraphFile into BlockBuffers through its IoDevice.
 */
class BlockReader {
  public:
    /** Page size for fine-grained mode (one SSD page). */
    static constexpr std::uint32_t kPageBytes = 4096;

    /**
     * @param file       the on-disk graph.
     * @param budget     block-buffer memory is reserved here.
     * @param max_request cap on a single coarse request (default 8 MiB),
     *        mimicking bounded async-I/O submission sizes.
     * @param cache      optional shared block cache: coarse loads are
     *        served from it on a hit and published to it on a miss.
     */
    BlockReader(const graph::GraphFile &file, util::MemoryBudget &budget,
                std::uint64_t max_request = 8ULL << 20,
                SharedBlockCache *cache = nullptr);

    /** Load the whole of @p block into @p out (coarse mode). */
    LoadResult load_coarse(const graph::BlockInfo &block, BlockBuffer &out);

    /**
     * Load only the 4 KiB pages of @p block that @p needed_vertices'
     * next events read (fine mode, §3.3.1): for each vertex the page
     * holding its entry of @p slots, or its whole record where that
     * entry is graph::kWholeRecord.  Empty @p slots means whole records
     * for all.  Vertices outside the block are ignored.  A shared-cache
     * hit copies only the marked pages.
     */
    LoadResult load_fine(const graph::BlockInfo &block,
                         std::span<const graph::VertexId> needed_vertices,
                         BlockBuffer &out,
                         std::span<const std::uint32_t> slots = {});

    /**
     * Narrow a coarse (complete) buffer of @p block to a fine-mode view
     * exposing only the pages load_fine would mark for the same
     * arguments, without any I/O.  Bit-identical residency to a fresh
     * load_fine — used to serve a fine demand from a speculatively
     * coarse-loaded buffer.
     */
    void refine(const graph::BlockInfo &block,
                std::span<const graph::VertexId> needed_vertices,
                BlockBuffer &out,
                std::span<const std::uint32_t> slots = {}) const;

    /** The graph file being read. */
    const graph::GraphFile &file() const { return *file_; }

  private:
    /** Attach @p out to @p block and size its buffer (budgeted). */
    void prepare(const graph::BlockInfo &block, BlockBuffer &out);

    /** Mark in @p out the pages each needed vertex's event reads (its
     *  slot's page, or its whole record on kWholeRecord or empty
     *  @p slots). */
    void mark_needed_pages(const graph::BlockInfo &block,
                           std::span<const graph::VertexId> needed_vertices,
                           std::span<const std::uint32_t> slots,
                           BlockBuffer &out) const;

    const graph::GraphFile *file_;
    util::MemoryBudget *budget_;
    std::uint64_t max_request_;
    SharedBlockCache *cache_;
};

} // namespace noswalker::storage
