/**
 * @file
 * 1-D block partition of the on-disk edge region.
 *
 * All evaluated systems stream the graph in blocks of contiguous
 * vertices whose edge records fit a size target (the paper partitions
 * Kron30 into 33 blocks of a few GiB; we scale the block size with the
 * graph).  A block is the unit of coarse-grained loading and of walker
 * bucketing in the baselines; NosWalker additionally subdivides blocks
 * into 4 KiB pages for fine-grained loads (§3.3.1).
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph_file.hpp"
#include "graph/types.hpp"

namespace noswalker::graph {

/** One block: a contiguous vertex range and its edge-region byte span. */
struct BlockInfo {
    std::uint32_t id = 0;
    VertexId first_vertex = 0;
    VertexId end_vertex = 0; ///< one past the last vertex
    /** Absolute byte offset of the block's first edge record. */
    std::uint64_t byte_begin = 0;
    /** Bytes of edge records in the block. */
    std::uint64_t byte_size = 0;
    /** CSR index of the first edge. */
    EdgeIndex edge_begin = 0;
    /** Number of edges. */
    EdgeIndex num_edges = 0;

    VertexId
    num_vertices() const
    {
        return end_vertex - first_vertex;
    }

    bool
    contains(VertexId v) const
    {
        return v >= first_vertex && v < end_vertex;
    }
};

/**
 * Partition of a GraphFile into blocks of ≤ block_bytes of edge data
 * (a vertex whose record alone exceeds the target gets its own block).
 */
class BlockPartition {
  public:
    /**
     * Partition @p file into blocks of at most @p block_bytes edge
     * bytes.
     */
    BlockPartition(const GraphFile &file, std::uint64_t block_bytes);

    /** Number of blocks. */
    std::uint32_t
    num_blocks() const
    {
        return static_cast<std::uint32_t>(blocks_.size());
    }

    /** Block descriptor @p id. */
    const BlockInfo &block(std::uint32_t id) const { return blocks_[id]; }

    /** All blocks. */
    const std::vector<BlockInfo> &blocks() const { return blocks_; }

    /**
     * Block containing vertex @p v; v >= num_vertices maps to the last
     * block.  O(1) in practice: a radix table names the blocks holding
     * the first vertices of v's bucket and of the next bucket, and a
     * binary search covers only the block starts between the two —
     * usually none.
     */
    std::uint32_t
    block_of(VertexId v) const
    {
        const std::size_t k =
            std::min<std::size_t>(v >> radix_shift_, radix_.size() - 2);
        const auto first = firsts_.begin() + radix_[k] + 1;
        const auto last = firsts_.begin() + radix_[k + 1] + 1;
        return static_cast<std::uint32_t>(
            (std::upper_bound(first, last, v) - firsts_.begin()) - 1);
    }

    /** Largest block in bytes (sizes coarse block buffers). */
    std::uint64_t max_block_bytes() const { return max_block_bytes_; }

    /** The requested block-size target. */
    std::uint64_t target_block_bytes() const { return target_bytes_; }

  private:
    std::vector<BlockInfo> blocks_;
    std::vector<VertexId> firsts_; ///< first_vertex per block, for lookup
    /** radix_[k]: block holding vertex k << radix_shift_, for at most
     *  16 * num_blocks + 1 buckets; one more entry names the last block. */
    std::vector<std::uint32_t> radix_;
    unsigned radix_shift_ = 0;
    std::uint64_t max_block_bytes_ = 0;
    std::uint64_t target_bytes_ = 0;
};

} // namespace noswalker::graph
