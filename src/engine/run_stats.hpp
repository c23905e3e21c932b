/**
 * @file
 * Per-run result record shared by all engines.
 *
 * Raw counters (steps, bytes, requests) are scale-faithful; modeled
 * time combines the device cost model with measured CPU time following
 * the policy in DESIGN.md §2: synchronous engines pay I/O and CPU
 * serially (scaled by their achieved disk utilisation), pipelined
 * engines overlap them.
 */
#pragma once

#include <cstdint>
#include <string>

namespace noswalker::engine {

/** Counters and timings of one random walk run. */
struct RunStats {
    /** Engine name for reports. */
    std::string engine;

    /** Walkers retired. */
    std::uint64_t walkers = 0;
    /** Total steps moved across all walkers. */
    std::uint64_t steps = 0;

    /** Bytes of graph (edge region) data read. */
    std::uint64_t graph_bytes_read = 0;
    /** Graph read requests issued. */
    std::uint64_t graph_read_requests = 0;
    /** Edge records streamed from disk. */
    std::uint64_t edges_loaded = 0;
    /** Bytes of walker-state swap traffic (GraphWalker-style spilling). */
    std::uint64_t swap_bytes = 0;

    /** Coarse block loads. */
    std::uint64_t blocks_loaded = 0;
    /** Fine-grained (4 KiB bitmap) loads. */
    std::uint64_t fine_loads = 0;
    /** Coarse loads served from a shared block cache (no device I/O). */
    std::uint64_t cache_hit_blocks = 0;
    /** Coarse loads that probed an attached shared cache and missed
     *  (went to the device).  0 when no cache is attached. */
    std::uint64_t cache_miss_blocks = 0;

    /** Demanded blocks served by a speculative prefetch (DESIGN.md §10). */
    std::uint64_t prefetch_hits = 0;
    /** Speculative loads whose walker bucket drained before processing
     *  (demoted to the shared cache / stash, never discarded). */
    std::uint64_t prefetch_mispredicts = 0;

    /** Counters of the retired lookahead load planner: always 0.  They
     *  stay because the repository benchmark (walkbench/walkbench.cpp)
     *  still reports them; drop them with its next metric change. */
    std::uint64_t planned_loads = 0;
    std::uint64_t plan_rescores = 0;
    std::uint64_t plan_cache_credits = 0;

    /** Walkers handed across shard boundaries (sharded engine only). */
    std::uint64_t migrations = 0;
    /** Non-empty (src,dst) walker batches exchanged at round barriers. */
    std::uint64_t migration_batches = 0;

    /** Interleaved-kernel rotations executed: one gather+sample pass
     *  over a cohort ring (DESIGN.md §12). */
    std::uint64_t kernel_cohorts = 0;
    /** Software prefetch hints issued by the kernel's gather stage. */
    std::uint64_t kernel_prefetches = 0;
    /** Single-walker spans, stepped as a one-lane ring. */
    std::uint64_t kernel_scalar_fallbacks = 0;

    /** Steps served by reserved pre-samples (§3.3.5 counts separately). */
    std::uint64_t presample_steps = 0;
    /** Steps served directly from the currently loaded block. */
    std::uint64_t block_steps = 0;
    /** Walker stalls (no data available to move a walker). */
    std::uint64_t stalls = 0;
    /** Second-order rejection trials resolved / rejected. */
    std::uint64_t rejection_trials = 0;
    std::uint64_t rejection_rejected = 0;

    /** Measured compute wall time, seconds. */
    double cpu_seconds = 0.0;
    /** Modeled device busy time, seconds (includes swap traffic). */
    double io_busy_seconds = 0.0;
    /** Modeled seconds the engine was blocked waiting on block loads
     *  (deterministic pipeline-clock accounting, DESIGN.md §10). */
    double io_wait_seconds = 0.0;
    /** Modeled seconds spent exchanging walker batches at shard round
     *  barriers (DESIGN.md §11; overlapped by neither phase). */
    double migration_wait_seconds = 0.0;
    /** Modeled exchange seconds *hidden* behind stepping by overlapped
     *  per-bucket migration flushes (shard_overlap; DESIGN.md §11).
     *  Informational: never added to modeled_seconds — it is the part
     *  of the wire cost stepping already covered. */
    double migration_overlap_seconds = 0.0;
    /** Fraction of device bandwidth the engine's I/O path achieves. */
    double io_efficiency = 1.0;
    /** True when the engine overlaps I/O with computation. */
    bool pipelined = false;
    /** Measured end-to-end wall time of the run, seconds. */
    double wall_seconds = 0.0;

    /** Peak bytes held against the memory budget. */
    std::uint64_t peak_memory = 0;

    /** Peak bytes actually held by pre-sample buffers (Fig 14's
     *  "reserve memory for pre-sampling" cost, measured not planned). */
    std::uint64_t presample_bytes_used = 0;
    /** Byte budget granted to the pre-sample pool (0 = pool off). */
    std::uint64_t presample_bytes_total = 0;

    /** Modeled end-to-end seconds (policy above). */
    double modeled_seconds() const;

    /** Average edge records loaded per step (Fig 2a). */
    double edges_per_step() const;

    /** Steps per modeled second (Fig 2b). */
    double step_rate() const;

    /** Total I/O volume in bytes (graph + swap), Fig 14's lines. */
    std::uint64_t
    total_io_bytes() const
    {
        return graph_bytes_read + swap_bytes;
    }

    /**
     * Accumulate @p other into this record (per-tenant aggregation in
     * the walk service).  Additive counters and times sum, peak memory
     * takes the max, and the engine label is kept when it matches
     * (otherwise it becomes "mixed").
     */
    RunStats &operator+=(const RunStats &other);

    /**
     * This record scaled by @p fraction: additive counters and times
     * are multiplied, rates/flags/peaks are kept.  Used to slice a
     * batched run's cost across the requests coalesced into it.
     */
    RunStats scaled(double fraction) const;

    /** Multi-line human-readable dump. */
    std::string to_string() const;
};

} // namespace noswalker::engine
