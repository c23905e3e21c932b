/**
 * @file
 * Static assignment of the CSR block range to shards.
 *
 * Shards own contiguous block ranges balanced by edge bytes (the same
 * quantity BlockPartition balances blocks by), so each shard's private
 * device serves a near-equal share of the graph.  The plan is a pure
 * function of (partition, num_shards): routing a walker to its owner
 * shard is deterministic and identical on every host.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/partition.hpp"

namespace noswalker::shard {

/** One shard's contiguous block range. */
struct ShardRange {
    std::uint32_t first_block = 0;
    std::uint32_t end_block = 0; ///< one past the last block
    /** Edge bytes owned by the shard. */
    std::uint64_t bytes = 0;

    std::uint32_t
    num_blocks() const
    {
        return end_block - first_block;
    }

    bool
    contains(std::uint32_t block) const
    {
        return block >= first_block && block < end_block;
    }
};

/** Byte-balanced contiguous split of a BlockPartition across shards. */
class ShardPlan {
  public:
    /**
     * Split @p partition into @p num_shards contiguous ranges of
     * near-equal edge bytes.  Clamped: never more shards than blocks,
     * never fewer than one; every shard owns at least one block.
     */
    ShardPlan(const graph::BlockPartition &partition, unsigned num_shards);

    /** Shards actually planned (after clamping to the block count). */
    unsigned
    num_shards() const
    {
        return static_cast<unsigned>(ranges_.size());
    }

    /** Range of shard @p s. */
    const ShardRange &shard(unsigned s) const { return ranges_[s]; }

    /** Owning shard of @p block (O(log num_shards)). */
    unsigned shard_of_block(std::uint32_t block) const;

    /**
     * Locality-aware seed placement: the shard owning the block that
     * holds @p vertex.  A walker seeded here starts on the shard that
     * already has its first edge data, so round 1 begins with zero
     * migrations.  Pure function of (partition, plan, vertex) —
     * identical on every host and at every thread count.
     */
    unsigned assign_walker(const graph::BlockPartition &partition,
                           graph::VertexId vertex) const;

  private:
    std::vector<ShardRange> ranges_;
    std::vector<std::uint32_t> first_blocks_; ///< per shard, for lookup
};

} // namespace noswalker::shard
