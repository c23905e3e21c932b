#include "graph/partition.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace noswalker::graph {

BlockPartition::BlockPartition(const GraphFile &file,
                               std::uint64_t block_bytes)
    : target_bytes_(block_bytes)
{
    if (block_bytes == 0) {
        throw util::ConfigError("BlockPartition: block_bytes must be > 0");
    }
    const VertexId num_vertices = file.num_vertices();
    VertexId v = 0;
    while (v < num_vertices) {
        BlockInfo info;
        info.id = static_cast<std::uint32_t>(blocks_.size());
        info.first_vertex = v;
        info.edge_begin = file.edge_begin(v);
        info.byte_begin = file.vertex_byte_offset(v);

        std::uint64_t bytes = 0;
        VertexId end = v;
        while (end < num_vertices) {
            const std::uint64_t rec = file.vertex_byte_size(end);
            if (bytes > 0 && bytes + rec > block_bytes) {
                break;
            }
            bytes += rec;
            ++end;
            if (bytes >= block_bytes) {
                break;
            }
        }
        info.end_vertex = end;
        info.byte_size = bytes;
        info.num_edges = file.edge_begin(end) - info.edge_begin;
        blocks_.push_back(info);
        firsts_.push_back(info.first_vertex);
        max_block_bytes_ = std::max(max_block_bytes_, bytes);
        v = end;
    }
    if (blocks_.empty()) {
        // Zero-vertex graph still gets one empty block for uniformity.
        blocks_.push_back(BlockInfo{});
        firsts_.push_back(0);
    }

    // Radix table for block_of: the coarsest power-of-two bucket width
    // that keeps the table within a small multiple of the block count
    // (its size never scales with the vertex count).
    const std::uint64_t max_buckets = 16 * std::uint64_t{num_blocks()};
    while ((std::uint64_t{num_vertices} >> radix_shift_) > max_buckets) {
        ++radix_shift_;
    }
    const std::size_t buckets =
        static_cast<std::size_t>(num_vertices >> radix_shift_) + 1;
    radix_.resize(buckets + 1);
    std::uint32_t b = 0;
    for (std::size_t k = 0; k < buckets; ++k) {
        const std::uint64_t first = std::uint64_t{k} << radix_shift_;
        while (b + 1 < num_blocks() && firsts_[b + 1] <= first) {
            ++b;
        }
        radix_[k] = b;
    }
    radix_[buckets] = num_blocks() - 1;
}

} // namespace noswalker::graph
