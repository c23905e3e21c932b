/**
 * @file
 * Walker-migration cost constants and model, shared between the real
 * shard subsystem (shard::ShardedEngine) and the analytical KnightKing
 * baseline (baselines::ClusterModel).  One header, one set of numbers:
 * the modeled baseline and the implementation can never drift apart on
 * what a walker message costs on the wire.
 */
#pragma once

#include <cstdint>

namespace noswalker::shard {

/** Bytes per walker message on the wire (walker id + vertex + step;
 *  KnightKing's compact walker encoding, paper §5.2). */
inline constexpr std::uint32_t kWalkerMessageBytes = 16;

/** Interconnect bandwidth per peer link, bits per second (the paper's
 *  4-node 10 Gbps Ethernet cluster). */
inline constexpr double kInterconnectBps = 10e9;

/** Fixed per-batch exchange overhead, seconds: one syscall plus
 *  serialization per posted (src,dst) batch. */
inline constexpr double kBatchOverheadSeconds = 20e-6;

/**
 * Cost of exchanging walker batches between peers.  Every peer drives
 * its own full-duplex link and traffic is balanced, so wire time
 * divides by the peer count.
 */
struct MigrationCostModel {
    double network_bps = kInterconnectBps;
    std::uint32_t message_bytes = kWalkerMessageBytes;
    double batch_overhead_seconds = kBatchOverheadSeconds;

    /**
     * Modeled seconds for @p peers peers to exchange @p messages walker
     * messages packed into @p batches batches.  Zero with <= 1 peer
     * (nothing crosses a wire).
     */
    double exchange_seconds(std::uint64_t messages, std::uint64_t batches,
                            unsigned peers) const;
};

} // namespace noswalker::shard
