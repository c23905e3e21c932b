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
 *
 * A fine buffer keeps its pages in *segments*: the merged page extents
 * of the needed vertices' whole records, where touching extents merge.
 * Every run of marked pages lies in one segment, and a vertex is
 * served only when its whole record does, so a decoded record is
 * always contiguous.  Segments either sit in place in the buffer's own
 * block-sized storage, or are *packed* back to back into a host
 * buffer shared by several blocks' views (a fine round, DESIGN.md §10).
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
 * Block-relative pages [first_page, end_page) of a fine buffer, held at
 * byte @p host_offset of its host storage.
 */
struct PageSegment {
    std::uint32_t first_page = 0;
    std::uint32_t end_page = 0;
    std::uint64_t host_offset = 0;
};

/**
 * An in-memory copy of (part of) one block's edge region.
 *
 * A coarse buffer holds the page-aligned byte span of the block in its
 * own storage.  A fine buffer holds only segments (see the file
 * comment), in its own storage or packed into another buffer's (a
 * *view*, which owns no storage); only marked pages hold valid data,
 * and `vertex_loaded` reports whether what a vertex's next event reads
 * is resident.
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
        if (complete_) {
            return file.decode(v, bytes(), aligned_begin_);
        }
        return decode_fine(file, v);
    }

    /** Bytes currently held by the buffer. */
    std::uint64_t capacity_bytes() const { return size_; }

    /** Device offset of the block span's first byte. */
    std::uint64_t aligned_begin() const { return aligned_begin_; }

    /** Read-only view of the block span in the buffer's own storage
     *  (empty for a view). */
    std::span<const std::uint8_t> bytes() const
    {
        return {data_.get(), size_};
    }

    /** Whether the buffer owns storage (false for a packed view and a
     *  never-loaded buffer). */
    bool owns_storage() const { return data_ != nullptr; }

    /** Whether this is a packed view over another buffer's storage. */
    bool is_view() const { return host_ != nullptr && data_ == nullptr; }

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

    /** Fine mode: whether @p v's whole record lies in one segment and
     *  every page holding @p slot of it (all of it on kWholeRecord) is
     *  marked.  A dead end has nothing to read and always is. */
    bool pages_loaded(const graph::GraphFile &file, graph::VertexId v,
                      std::uint32_t slot) const;

    /** The segment holding all of @p v's (non-empty) record, or null. */
    const PageSegment *find_segment(const graph::GraphFile &file,
                                    graph::VertexId v) const;

    /** Fine-mode view(): decode through the record's segment; a dead
     *  end decodes without one. */
    graph::VertexView decode_fine(const graph::GraphFile &file,
                                  graph::VertexId v) const;

    /** Attach to @p block as a fine buffer over @p host (pages from
     *  its first byte on), no pages marked. */
    void attach_fine(const graph::BlockInfo &block, std::uint8_t *host);

    /** Grow the storage (and its reservation against @p budget) to at
     *  least @p bytes; never shrinks. */
    void reserve(std::uint64_t bytes, util::MemoryBudget &budget);

    /** Pages [first, last] covering what @p v's event reads: target
     *  @p slot, or the whole record on kWholeRecord.  first > last
     *  when there is nothing to read (a dead end). */
    std::pair<std::uint64_t, std::uint64_t>
    page_range(const graph::GraphFile &file, graph::VertexId v,
               std::uint32_t slot) const;

    const graph::BlockInfo *info_ = nullptr;
    std::uint64_t aligned_begin_ = 0;
    /** Storage of capacity_ bytes, never zeroed: only bytes a load
     *  wrote are ever decoded (fine mode checks valid_pages_).  Null
     *  in a view. */
    std::unique_ptr<std::uint8_t[]> data_;
    std::uint64_t size_ = 0;
    std::uint64_t capacity_ = 0;
    util::Bitmap valid_pages_; ///< fine mode: which pages are resident
    /** Fine mode: where the segments' host offsets point (data_ for an
     *  in-place buffer, another buffer's storage for a view). */
    std::uint8_t *host_ = nullptr;
    /** Fine mode: the needed records' merged page extents. */
    std::vector<PageSegment> segments_;
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
     * load_fine() into a packed view: @p out (its old storage, if any,
     * is released) is attached to @p block over @p host's storage,
     * holding @p segments — as plan_segments() returned them for
     * @p needed_vertices — at @p host_offset onwards.  Reads exactly
     * the page runs load_fine() reads for the same arguments, and
     * gives the same residency.
     * @pre @p host holds host_offset + the segments' bytes
     *      (reserve_host).
     */
    LoadResult load_fine_packed(
        const graph::BlockInfo &block,
        std::span<const graph::VertexId> needed_vertices,
        std::span<const std::uint32_t> slots,
        std::span<const PageSegment> segments, BlockBuffer &host,
        std::uint64_t host_offset, BlockBuffer &out);

    /** Detach @p host from any block and grow its storage to at least
     *  @p bytes, for packed views to borrow. */
    void reserve_host(BlockBuffer &host, std::uint64_t bytes);

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

    /**
     * The segments of a fine load of @p needed_vertices in @p block:
     * the runs of the page bitmap marking their whole records (@p pages
     * is scratch), in page order with host offsets packed from 0.
     * Vertices outside the block and dead ends add nothing.
     */
    static void
    plan_segments(const graph::GraphFile &file,
                  const graph::BlockInfo &block,
                  std::span<const graph::VertexId> needed_vertices,
                  util::Bitmap &pages, std::vector<PageSegment> &segments);

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

    /** Give the in-place fine buffer @p out the segments of
     *  @p needed_vertices, each at its own block-relative offset. */
    void place_in_place(const graph::BlockInfo &block,
                        std::span<const graph::VertexId> needed_vertices,
                        BlockBuffer &out) const;

    /** Mark @p out's needed pages and read their runs — from the
     *  shared cache's image on a hit, else from the device — into
     *  its segments.  Shared by every fine load. */
    LoadResult fill_fine(const graph::BlockInfo &block,
                         std::span<const graph::VertexId> needed_vertices,
                         std::span<const std::uint32_t> slots,
                         BlockBuffer &out);

    const graph::GraphFile *file_;
    util::MemoryBudget *budget_;
    std::uint64_t max_request_;
    SharedBlockCache *cache_;
};

} // namespace noswalker::storage
