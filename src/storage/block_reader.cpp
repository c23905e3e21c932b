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
    // ⌈max_bytes / page⌉ pages, without overflowing on ~0.
    const std::uint64_t max_pages =
        max_bytes / BlockReader::kPageBytes +
        (max_bytes % BlockReader::kPageBytes != 0 ? 1 : 0);
    pages.for_each_run([&](std::uint64_t first, std::uint64_t end) {
        for (std::uint64_t p = first; p < end; p += max_pages) {
            fn(p, std::min(end, p + max_pages));
        }
    });
}

/** Pages of @p block's page-aligned byte span. */
std::uint64_t
span_pages(const graph::BlockInfo &block)
{
    const std::uint64_t begin =
        align_down(block.byte_begin, BlockReader::kPageBytes);
    const std::uint64_t end = align_up(block.byte_begin + block.byte_size,
                                       BlockReader::kPageBytes);
    return (end - begin) / BlockReader::kPageBytes;
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

const PageSegment *
BlockBuffer::find_segment(const graph::GraphFile &file,
                          graph::VertexId v) const
{
    const std::uint64_t rel = file.vertex_byte_offset(v) - aligned_begin_;
    const std::uint64_t first = rel / BlockReader::kPageBytes;
    const std::uint64_t last =
        (rel + file.vertex_byte_size(v) - 1) / BlockReader::kPageBytes;
    // The last segment starting at or before the record's first page.
    auto it = std::upper_bound(
        segments_.begin(), segments_.end(), first,
        [](std::uint64_t page, const PageSegment &segment) {
            return page < segment.first_page;
        });
    if (it == segments_.begin()) {
        return nullptr;
    }
    --it;
    return last < it->end_page ? &*it : nullptr;
}

bool
BlockBuffer::pages_loaded(const graph::GraphFile &file, graph::VertexId v,
                          std::uint32_t slot) const
{
    if (file.vertex_byte_size(v) == 0) {
        return true;
    }
    if (find_segment(file, v) == nullptr) {
        return false;
    }
    const auto [first_page, last_page] = page_range(file, v, slot);
    for (std::uint64_t p = first_page; p <= last_page; ++p) {
        if (!valid_pages_.test(p)) {
            return false;
        }
    }
    return true;
}

graph::VertexView
BlockBuffer::decode_fine(const graph::GraphFile &file,
                         graph::VertexId v) const
{
    if (file.vertex_byte_size(v) == 0) {
        // A dead end reads nothing: decode its empty record in place.
        return file.decode(v, {host_, 0}, file.vertex_byte_offset(v));
    }
    const PageSegment *segment = find_segment(file, v);
    NOSWALKER_CHECK(segment != nullptr);
    const std::uint64_t pages = segment->end_page - segment->first_page;
    return file.decode(
        v, {host_ + segment->host_offset, pages * BlockReader::kPageBytes},
        aligned_begin_ +
            std::uint64_t{segment->first_page} * BlockReader::kPageBytes);
}

void
BlockBuffer::attach_fine(const graph::BlockInfo &block, std::uint8_t *host)
{
    info_ = &block;
    aligned_begin_ = align_down(block.byte_begin, BlockReader::kPageBytes);
    valid_pages_.resize(span_pages(block));
    complete_ = false;
    host_ = host;
    segments_.clear();
}

void
BlockBuffer::clear()
{
    info_ = nullptr;
    size_ = 0; // capacity (and its reservation) is retained
    valid_pages_.resize(0);
    complete_ = false;
    host_ = nullptr;
    segments_.clear();
}

void
BlockBuffer::reserve(std::uint64_t bytes, util::MemoryBudget &budget)
{
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
    reserve(bytes, budget);
    // Stale bytes past the new block's device span are never decoded
    // (every vertex record ends before the device end), so no zeroing.
    size_ = bytes;
    attach_fine(block, data_.get());
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
BlockReader::plan_segments(const graph::GraphFile &file,
                           const graph::BlockInfo &block,
                           std::span<const graph::VertexId> needed_vertices,
                           util::Bitmap &pages,
                           std::vector<PageSegment> &segments)
{
    const std::uint64_t aligned_begin = align_down(block.byte_begin,
                                                   kPageBytes);
    pages.resize(span_pages(block));
    for (const graph::VertexId v : needed_vertices) {
        const std::uint64_t len = file.vertex_byte_size(v);
        if (!block.contains(v) || len == 0) {
            continue;
        }
        const std::uint64_t rel = file.vertex_byte_offset(v) - aligned_begin;
        for (std::uint64_t p = rel / kPageBytes;
             p <= (rel + len - 1) / kPageBytes; ++p) {
            pages.set(p);
        }
    }
    segments.clear();
    std::uint64_t bytes = 0;
    for_each_page_run(pages, ~std::uint64_t{0},
                      [&](std::uint64_t first, std::uint64_t end) {
                          segments.push_back(
                              {static_cast<std::uint32_t>(first),
                               static_cast<std::uint32_t>(end), bytes});
                          bytes += (end - first) * kPageBytes;
                      });
}

void
BlockReader::place_in_place(const graph::BlockInfo &block,
                            std::span<const graph::VertexId> needed_vertices,
                            BlockBuffer &out) const
{
    // The residency bitmap doubles as the planning scratch.
    plan_segments(*file_, block, needed_vertices, out.valid_pages_,
                  out.segments_);
    for (PageSegment &segment : out.segments_) {
        segment.host_offset = std::uint64_t{segment.first_page} * kPageBytes;
    }
    out.host_ = out.data_.get();
    out.valid_pages_.reset();
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
    place_in_place(block, needed_vertices, out);
    mark_needed_pages(block, needed_vertices, slots, out);
}

void
BlockReader::reserve_host(BlockBuffer &host, std::uint64_t bytes)
{
    host.clear();
    host.reserve(bytes, *budget_);
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
    place_in_place(block, needed_vertices, out);
    return fill_fine(block, needed_vertices, slots, out);
}

LoadResult
BlockReader::load_fine_packed(
    const graph::BlockInfo &block,
    std::span<const graph::VertexId> needed_vertices,
    std::span<const std::uint32_t> slots,
    std::span<const PageSegment> segments, BlockBuffer &host,
    std::uint64_t host_offset, BlockBuffer &out)
{
    NOSWALKER_CHECK(host.owns_storage() && host.info() == nullptr);
    if (out.owns_storage()) {
        out.release_storage();
    }
    out.attach_fine(block, host.data_.get());
    out.segments_.assign(segments.begin(), segments.end());
    for (PageSegment &segment : out.segments_) {
        segment.host_offset += host_offset;
    }
    if (!out.segments_.empty()) {
        const PageSegment &last = out.segments_.back();
        NOSWALKER_CHECK(last.host_offset +
                            std::uint64_t{last.end_page - last.first_page} *
                                kPageBytes <=
                        host.capacity_);
    }
    return fill_fine(block, needed_vertices, slots, out);
}

LoadResult
BlockReader::fill_fine(const graph::BlockInfo &block,
                       std::span<const graph::VertexId> needed_vertices,
                       std::span<const std::uint32_t> slots,
                       BlockBuffer &out)
{
    mark_needed_pages(block, needed_vertices, slots, out);
    const util::Bitmap &pages = out.valid_pages_;
    // Where the run starting at page @p first goes.  Runs arrive in
    // page order and each lies in one segment (its pages belong to
    // touching record extents, which merge).
    std::size_t cursor = 0;
    const auto dest = [&](std::uint64_t first, std::uint64_t end) {
        while (cursor < out.segments_.size() &&
               out.segments_[cursor].end_page <= first) {
            ++cursor;
        }
        NOSWALKER_CHECK(cursor < out.segments_.size());
        const PageSegment &segment = out.segments_[cursor];
        NOSWALKER_CHECK(segment.first_page <= first &&
                        end <= segment.end_page);
        return out.host_ + segment.host_offset +
               (first - segment.first_page) * kPageBytes;
    };

    LoadResult result;
    if (cache_ != nullptr) {
        if (const auto entry = cache_->find(block.id)) {
            // The cache holds the whole coarse image; copy only the
            // marked pages out of it instead of device I/O.
            const std::vector<std::uint8_t> &image = entry->bytes;
            for_each_page_run(
                pages, ~std::uint64_t{0},
                [&](std::uint64_t first, std::uint64_t end) {
                    const std::uint64_t lo = first * kPageBytes;
                    const std::uint64_t hi = std::min<std::uint64_t>(
                        end * kPageBytes, image.size());
                    if (lo < hi) {
                        std::copy(image.begin() + lo, image.begin() + hi,
                                  dest(first, end));
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
            file_->device().read(off, len, dest(first, end));
            result.bytes_read += len;
            ++result.requests;
            result.modeled_seconds +=
                file_->device().model().request_seconds(len);
        });
    return result;
}

} // namespace noswalker::storage
