/**
 * @file
 * NosWalker engine configuration, including the optimization knobs the
 * paper's breakdown study (Fig 14) toggles one by one.
 */
#pragma once

#include <cstdint>

namespace noswalker::core {

/** Tunables of the NosWalker engine. */
struct EngineConfig {
    /** Memory cap in bytes (0 = unlimited). */
    std::uint64_t memory_budget = 0;

    /** Target coarse block size in bytes of edge data. */
    std::uint64_t block_bytes = 1ULL << 20;

    /**
     * Walkers kept live in memory (0 = derive from the budget).  The
     * paper keeps this "no need to be much larger than the number of
     * threads"; larger pools raise step concurrency per loaded block.
     */
    std::uint64_t max_walkers = 0;

    /** Base pre-samples per vertex before history reweighting. */
    std::uint32_t presamples_per_vertex = 4;

    /** Hard cap on pre-samples one vertex may be allocated.  Hubs are
     *  visited orders of magnitude more often than the mean, so the
     *  cap is generous; the buffer byte budget is the real bound. */
    std::uint32_t max_presamples_per_vertex = 1024;

    /**
     * Degree at or below which a vertex's full edge list is reserved
     * instead of pre-samples (§3.3.4; the paper uses 1–4 by graph size).
     */
    std::uint32_t low_degree_cutoff = 2;

    /** Walker-distribution unevenness factor for the fine-mode switch
     *  α·|Wa|·4KiB < S_G (§3.3.1; paper default 4). */
    double alpha = 4.0;

    /** Fraction of post-index budget granted to the walker pool.  The
     *  paper's walker pools "initially occupy most of the memory". */
    double walker_memory_fraction = 0.5;

    /** Fraction of the budget left after the walker pool reserved for
     *  pre-sample buffers.  A binding cap: the pool charges its own
     *  sub-budget of this size so eviction pressure never depends on
     *  other reservations, e.g. speculation buffers (DESIGN.md §10). */
    double presample_memory_fraction = 0.85;

    /** Master seed; every run is a deterministic function of it. */
    std::uint64_t seed = 42;

    /** Background loader threads (0 = load synchronously). */
    unsigned loader_threads = 1;

    /**
     * Intra-block stepping threads (≥ 1).  Each loaded block's bucket
     * is sharded across this many workers on a persistent pool; walk
     * output is bit-identical at any value because every walker samples
     * from a private stream derived from (seed, walker id).
     */
    unsigned step_threads = 1;

    /**
     * Speculative prefetch depth: up to this many lookahead block
     * loads in flight beyond the one being processed (0 = demand
     * loading only).  Depth never changes walk output — the engine
     * always processes the scheduler's hottest block; speculation only
     * changes how its bytes arrive (DESIGN.md §10).  Auto-shrinks
     * under tight budgets so buffers stay within the block-buffer
     * share.
     */
    unsigned prefetch_depth = 2;

    /**
     * Graph shards executed concurrently by shard::ShardedEngine (1 =
     * the plain single-engine path).  Each shard owns a contiguous
     * block range, a private modeled device, and a 1/N slice of the
     * memory budget; walkers crossing a shard boundary migrate in
     * batches at deterministic round barriers.  Output is bit-identical
     * at every value (DESIGN.md §11); note the sharded path runs with
     * pre-sampling off, so compare shard counts against each other,
     * not against a presampling single-engine run.
     */
    unsigned num_shards = 1;

    /**
     * Overlapped shard migration (DESIGN.md §11): shards flush
     * emigrant consignments to the exchange incrementally as block
     * buckets drain (instead of one post at the round barrier), and
     * completed consignments are staged while the destination shard is
     * still stepping — so the wire time overlaps with the remainder of
     * the round, and only the residual the stepping could not hide is
     * charged as migration_wait_seconds (the hidden portion is
     * reported in migration_overlap_seconds).  Staged immigrants are
     * admitted at the round boundary in (dst, src, flush-seq) order,
     * so the walker set entering round r+1 — and therefore walk output
     * — is byte-identical to the hard-barrier version (false).
     */
    bool shard_overlap = true;

    /**
     * Re-enable pre-sampling inside shard rounds (DESIGN.md §11).
     * Shard reservoirs are filled from shard-owned blocks with streams
     * derived from (seed, block id, rebuild generation), and drying is
     * published at step-round barriers, so with this on walk
     * output is still a pure function of (seed, shard plan): identical
     * across step-thread counts and across barrier/overlapped
     * migration.  It is *not* identical across different shard counts
     * — each plan partitions the visit history differently — which is
     * why the default stays off (the cross-shard-count bit-identity
     * contract of num_shards).
     */
    bool shard_presample = false;

    // --- Fig 14 breakdown knobs (all on = full NosWalker) ---

    /** Optimization (1): dynamic walker generation, no state swapping. */
    bool walker_management = true;

    /** Optimization (2): adaptive fine-grained block mode. */
    bool shrink_block = true;

    /** Optimization (3): decoupled pre-sampling. */
    bool presample = true;

    /** §3.3.5: serve walkers from the currently loaded block first. */
    bool use_loaded_block = true;

    /** Validate ranges; @throws util::ConfigError on nonsense. */
    void validate() const;

    /** The full system. */
    static EngineConfig full(std::uint64_t memory_budget,
                             std::uint64_t block_bytes);

    /** The breakdown "base implementation" (§4.4): GraphWalker-like
     *  workflow on NosWalker's async-I/O substrate, all knobs off. */
    static EngineConfig base_implementation(std::uint64_t memory_budget,
                                            std::uint64_t block_bytes);
};

} // namespace noswalker::core
