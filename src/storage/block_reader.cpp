#include "storage/block_reader.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace noswalker::storage {

namespace {

std::uint64_t
align_down(std::uint64_t x, std::uint64_t a)
{
    return x / a * a;
}

std::uint64_t
align_up(std::uint64_t x, std::uint64_t a)
{
    return (x + a - 1) / a * a;
}

/**
 * Call @p fn(first, end) for each run [first, end) of marked pages in
 * @p pages, a run ending early once it spans @p max_bytes.
 */
template <typename Fn>
void
for_each_page_run(const util::Bitmap &pages, std::uint64_t max_bytes,
                  Fn &&fn)
{
    const std::uint64_t num_pages = pages.size();
    std::uint64_t p = 0;
    while (p < num_pages) {
        if (!pages.test(p)) {
            ++p;
            continue;
        }
        std::uint64_t run_end = p + 1;
        while (run_end < num_pages && pages.test(run_end) &&
               (run_end - p) * BlockReader::kPageBytes < max_bytes) {
            ++run_end;
        }
        fn(p, run_end);
        p = run_end;
    }
}

} // namespace

std::pair<std::uint64_t, std::uint64_t>
BlockBuffer::page_range(const graph::GraphFile &file, graph::VertexId v,
                        std::uint32_t slot) const
{
    std::uint64_t begin = file.vertex_byte_offset(v);
    std::uint64_t len = file.vertex_byte_size(v);
    if (len == 0) {
        return {1, 0};
    }
    if (slot != graph::kWholeRecord) {
        NOSWALKER_CHECK(slot < file.degree(v));
        begin += std::uint64_t{slot} * sizeof(graph::VertexId);
        len = sizeof(graph::VertexId);
    }
    return {(begin - aligned_begin_) / BlockReader::kPageBytes,
            (begin + len - 1 - aligned_begin_) / BlockReader::kPageBytes};
}

bool
BlockBuffer::pages_loaded(const graph::GraphFile &file, graph::VertexId v,
                          std::uint32_t slot) const
{
    const auto [first_page, last_page] = page_range(file, v, slot);
    for (std::uint64_t p = first_page; p <= last_page; ++p) {
        if (!valid_pages_.test(p)) {
            return false;
        }
    }
    return true;
}

void
BlockBuffer::clear()
{
    info_ = nullptr;
    size_ = 0; // capacity (and its reservation) is retained
    valid_pages_.resize(0);
    complete_ = false;
}

void
BlockBuffer::release_storage()
{
    clear();
    data_.reset();
    capacity_ = 0;
    reservation_.release();
}

void
BlockBuffer::resize_for(const graph::BlockInfo &block,
                        util::MemoryBudget &budget)
{
    const std::uint64_t aligned_begin =
        align_down(block.byte_begin, BlockReader::kPageBytes);
    const std::uint64_t aligned_end = align_up(
        block.byte_begin + block.byte_size, BlockReader::kPageBytes);
    const std::uint64_t bytes = aligned_end - aligned_begin;
    if (reservation_.budget() != nullptr &&
        reservation_.budget() != &budget) {
        // Buffer migrating between budgets: drop the old charge first.
        release_storage();
    }
    if (bytes > reservation_.bytes()) {
        if (reservation_.budget() == nullptr) {
            reservation_ = util::Reservation(budget, bytes, "block buffer");
        } else {
            reservation_.resize(bytes);
        }
    }
    if (bytes > capacity_) {
        ++allocations_;
        data_ = std::make_unique_for_overwrite<std::uint8_t[]>(bytes);
        capacity_ = bytes;
    }
    // Stale bytes past the new block's device span are never decoded
    // (every vertex record ends before the device end), so no zeroing.
    size_ = bytes;
    info_ = &block;
    aligned_begin_ = aligned_begin;
    valid_pages_.resize(bytes / BlockReader::kPageBytes);
    valid_pages_.reset();
    complete_ = false;
}

BlockReader::BlockReader(const graph::GraphFile &file,
                         util::MemoryBudget &budget,
                         std::uint64_t max_request,
                         SharedBlockCache *cache)
    : file_(&file), budget_(&budget), max_request_(max_request),
      cache_(cache)
{
    NOSWALKER_CHECK(max_request_ >= kPageBytes);
}

void
BlockReader::prepare(const graph::BlockInfo &block, BlockBuffer &out)
{
    out.resize_for(block, *budget_);
}

void
BlockReader::mark_needed_pages(
    const graph::BlockInfo &block,
    std::span<const graph::VertexId> needed_vertices,
    std::span<const std::uint32_t> slots, BlockBuffer &out) const
{
    NOSWALKER_CHECK(slots.empty() ||
                    slots.size() == needed_vertices.size());
    util::Bitmap &pages = out.valid_pages_;
    for (std::size_t i = 0; i < needed_vertices.size(); ++i) {
        const graph::VertexId v = needed_vertices[i];
        if (!block.contains(v)) {
            continue;
        }
        const auto [first_page, last_page] = out.page_range(
            *file_, v, slots.empty() ? graph::kWholeRecord : slots[i]);
        for (std::uint64_t p = first_page; p <= last_page; ++p) {
            pages.set(p);
        }
    }
}

void
BlockReader::refine(const graph::BlockInfo &block,
                    std::span<const graph::VertexId> needed_vertices,
                    BlockBuffer &out,
                    std::span<const std::uint32_t> slots) const
{
    NOSWALKER_CHECK(out.info() != nullptr &&
                    out.info()->id == block.id);
    NOSWALKER_CHECK(out.complete_);
    out.complete_ = false;
    out.valid_pages_.reset();
    mark_needed_pages(block, needed_vertices, slots, out);
}

LoadResult
BlockReader::load_coarse(const graph::BlockInfo &block, BlockBuffer &out)
{
    prepare(block, out);
    LoadResult result;
    if (cache_ != nullptr) {
        if (const auto entry = cache_->find(block.id)) {
            // A hit replaces the modeled device read with a memcpy;
            // sizes match because both sides cover the same aligned
            // span of the same block.
            NOSWALKER_CHECK(entry->bytes.size() <= out.size_);
            std::copy(entry->bytes.begin(), entry->bytes.end(),
                      out.data_.get());
            out.complete_ = true;
            result.from_cache = true;
            return result;
        }
    }
    // Clamp to the device end: the last page of the file may be partial.
    const std::uint64_t device_end = file_->device().size();
    std::uint64_t pos = out.aligned_begin_;
    const std::uint64_t end =
        std::min<std::uint64_t>(out.aligned_begin_ + out.size_,
                                device_end);
    while (pos < end) {
        const std::uint64_t len = std::min(max_request_, end - pos);
        file_->device().read(pos, len,
                             out.data_.get() + (pos - out.aligned_begin_));
        result.bytes_read += len;
        ++result.requests;
        result.modeled_seconds +=
            file_->device().model().request_seconds(len);
        pos += len;
    }
    out.complete_ = true;
    if (cache_ != nullptr) {
        const std::span<const std::uint8_t> image = out.bytes();
        cache_->insert(block.id, out.aligned_begin_,
                       std::vector<std::uint8_t>(image.begin(), image.end()));
    }
    return result;
}

LoadResult
BlockReader::load_fine(const graph::BlockInfo &block,
                       std::span<const graph::VertexId> needed_vertices,
                       BlockBuffer &out,
                       std::span<const std::uint32_t> slots)
{
    prepare(block, out);
    mark_needed_pages(block, needed_vertices, slots, out);
    const util::Bitmap &pages = out.valid_pages_;

    LoadResult result;
    if (cache_ != nullptr) {
        if (const auto entry = cache_->find(block.id)) {
            // The cache holds the whole coarse image; copy only the
            // marked pages out of it instead of device I/O.
            const std::vector<std::uint8_t> &image = entry->bytes;
            NOSWALKER_CHECK(image.size() <= out.size_);
            for_each_page_run(
                pages, ~std::uint64_t{0},
                [&](std::uint64_t first, std::uint64_t end) {
                    const std::uint64_t lo = first * kPageBytes;
                    const std::uint64_t hi = std::min<std::uint64_t>(
                        end * kPageBytes, image.size());
                    if (lo < hi) {
                        std::copy(image.begin() + lo, image.begin() + hi,
                                  out.data_.get() + lo);
                    }
                });
            result.from_cache = true;
            return result;
        }
    }

    // Coalesce runs of marked pages into single requests (bounded by
    // max_request_) and read them into place.
    const std::uint64_t device_end = file_->device().size();
    for_each_page_run(
        pages, max_request_, [&](std::uint64_t first, std::uint64_t end) {
            const std::uint64_t off = out.aligned_begin_ + first * kPageBytes;
            if (off >= device_end) {
                return;
            }
            const std::uint64_t len =
                std::min((end - first) * kPageBytes, device_end - off);
            file_->device().read(off, len,
                                 out.data_.get() + first * kPageBytes);
            result.bytes_read += len;
            ++result.requests;
            result.modeled_seconds +=
                file_->device().model().request_seconds(len);
        });
    return result;
}

} // namespace noswalker::storage
