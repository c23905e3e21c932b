/**
 * @file
 * Walk service tunables: worker pool size, request coalescing window,
 * shared memory budget, and admission policy.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace noswalker::service {

/** Tunables of the WalkService. */
struct ServiceConfig {
    /** Worker threads, each driving one NosWalker engine. */
    unsigned num_workers = 2;

    /** Submission queue bound; try_push beyond it rejects (0 = unbounded). */
    std::size_t max_queue = 1024;

    /**
     * Per-tenant backpressure bound: the most requests one tenant may
     * have in flight (admitted to the submission queue but not yet
     * terminal) before further submissions from that tenant are shed
     * with kRejectedTenantQueue (0 = unbounded).  Bounds how much of
     * the global max_queue — and of the dispatcher/worker pipeline —
     * one tenant's burst can occupy, so a noisy tenant cannot starve
     * the rest of admission.
     */
    std::size_t tenant_max_queue = 0;

    /** Max requests coalesced into one engine run. */
    std::size_t max_batch = 16;

    /**
     * Coalescing window: seconds the dispatcher holds an under-full
     * batch open after its first request arrives.  0 dispatches every
     * request alone (no batching).
     */
    double batch_window_seconds = 0.002;

    /**
     * Shared memory budget in bytes across all workers, engines, and
     * the block cache (0 = unlimited).  Admission control rejects
     * requests that can never fit and queues the rest.
     */
    std::uint64_t memory_budget = 0;

    /** Byte capacity of the shared block cache (0 = no cache). */
    std::uint64_t cache_bytes = 0;

    /** Engine block size in bytes. */
    std::uint64_t block_bytes = 1ULL << 20;

    /** Background loader threads per engine (0 = synchronous loads). */
    unsigned loader_threads = 1;

    /**
     * Intra-block stepping threads (≥ 1).  All workers' engines share
     * one persistent util::ThreadPool sized step_threads − 1 (engines
     * serialize on it), so the service never oversubscribes the host
     * with num_workers × step_threads threads.  Results are unchanged
     * by this knob (per-walker streams).
     */
    unsigned step_threads = 1;

    /**
     * Speculative prefetch depth per engine (see
     * EngineConfig::prefetch_depth).  Also sizes each worker's block
     * buffer pool: depth + 1 recycled buffers at the high-water mark.
     * Walk output is depth-independent, so this is purely a
     * latency/memory trade-off per worker.
     */
    unsigned prefetch_depth = 2;

    /** Engine walker-pool cap per run (0 = derive from the budget). */
    std::uint64_t max_walkers = 0;

    /**
     * Graph shards per worker engine (1 = the plain single-engine
     * path).  > 1 dispatches batches onto a shard::ShardedEngine:
     * each shard owns a contiguous block range and a private modeled
     * device, and walkers migrate between shards in batches at round
     * barriers.  Results are bit-identical at every value — request
     * output is a pure function of the request seed (DESIGN.md §11).
     * Note each shard keeps its own CSR index copy, so the minimum
     * footprint scales with the shard count.
     */
    unsigned num_shards = 1;

    /**
     * Overlapped shard migration (num_shards > 1 only; see
     * EngineConfig::shard_overlap, DESIGN.md §11): emigrant
     * consignments are flushed to the exchange as block buckets drain
     * and staged while destination shards still step, so only the
     * residual wire time is charged as migration wait.  Never changes
     * request output — admission order is re-sequenced at the round
     * boundary.
     */
    bool shard_overlap = true;

    /**
     * Over-budget policy: true queues requests until workers free
     * memory; false rejects at submission when the request would not
     * fit right now.
     */
    bool queue_over_budget = true;

    /** Seconds a worker waits for shared-budget headroom per attempt. */
    double budget_wait_seconds = 0.05;

    /** Budget-wait attempts before a batch fails with kRejectedBudget. */
    unsigned budget_retry_limit = 20;

    /** Validate ranges; @throws util::ConfigError on nonsense. */
    void validate() const;
};

} // namespace noswalker::service
