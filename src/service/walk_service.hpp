/**
 * @file
 * WalkService: concurrent multi-tenant walk-query serving on top of
 * the NosWalker engine.
 *
 * Architecture (three stages, decoupled by blocking queues):
 *
 *   submit() ──▶ submission queue ──▶ dispatcher ──▶ batch queue ──▶ workers
 *   (any thread)  (bounded; full ⇒     (coalesces      (N threads, each
 *                  reject)              compatible       driving one
 *                                       requests for     NosWalkerEngine
 *                                       up to the        over the shared
 *                                       batching         GraphFile, budget
 *                                       window)          and block cache)
 *
 * Memory: one util::MemoryBudget is shared by every worker engine and
 * the shared block cache.  Admission control rejects requests that can
 * never fit (and, in reject mode, requests that do not fit right now);
 * otherwise workers queue on the budget and retry.
 *
 * Determinism: results are per-request seeded (see ServiceWalkApp), so
 * a request's payload is bit-identical across worker counts, batch
 * compositions, and cache states.  Only the latency/IO accounting
 * varies with load.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/run_stats.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "service/service_config.hpp"
#include "service/walk_request.hpp"
#include "storage/shared_block_cache.hpp"
#include "util/blocking_queue.hpp"
#include "util/memory_budget.hpp"
#include "util/thread_pool.hpp"

namespace noswalker::service {

/** One worker's engine, type-erased from this header (walk_service.cpp). */
class BatchRunner;

/** Concurrent walk-query server over one on-disk graph. */
class WalkService {
  public:
    /** Monotonic service-wide counters (snapshot). */
    struct Counters {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t rejected_queue_full = 0;
        /** Load-shed by the per-tenant bound (tenant_max_queue). */
        std::uint64_t rejected_tenant_queue = 0;
        std::uint64_t rejected_budget = 0;
        std::uint64_t expired = 0;
        std::uint64_t shutdown_dropped = 0;
        /** Engine runs dispatched. */
        std::uint64_t batches = 0;
        /** Requests that shared a batch with at least one other. */
        std::uint64_t coalesced_requests = 0;
        /** Shared block cache traffic (0 when the cache is off). */
        std::uint64_t cache_hits = 0;
        std::uint64_t cache_misses = 0;
        /** Peak bytes against the shared budget. */
        std::uint64_t budget_peak = 0;
    };

    /**
     * Start the service: spawns the dispatcher and worker threads.
     *
     * @p file and @p partition must outlive the service.
     */
    WalkService(const graph::GraphFile &file,
                const graph::BlockPartition &partition,
                ServiceConfig config);

    /** Graceful stop() + join. */
    ~WalkService();

    WalkService(const WalkService &) = delete;
    WalkService &operator=(const WalkService &) = delete;

    /**
     * Submit a request (thread safe, non-blocking).
     *
     * Always returns a valid ticket; rejected requests resolve
     * immediately with the rejection status.
     */
    WalkTicket submit(WalkRequest request);

    /**
     * Stop accepting requests, drain everything already submitted,
     * and join all threads (idempotent).
     */
    void stop();

    /** Snapshot the service counters. */
    Counters counters() const;

    /** Aggregated per-tenant run stats (RunStats slices summed). */
    engine::RunStats tenant_stats(std::uint64_t tenant) const;

    /** Every tenant's aggregated stats (snapshot). */
    std::unordered_map<std::uint64_t, engine::RunStats>
    all_tenant_stats() const;

    /**
     * Service-wide aggregate of every completed request's stats slice.
     * Invariant (the traffic fuzzer's conservation check): equals the
     * sum of all_tenant_stats() entries at all times.
     */
    engine::RunStats aggregate_stats() const;

    /** Requests sitting in the submission queue (0 after stop()). */
    std::size_t submit_queue_depth() const { return submit_queue_.size(); }

    /** Coalesced batches awaiting a worker (0 after stop()). */
    std::size_t batch_queue_depth() const { return batch_queue_.size(); }

    /** Shard samples kept: the most recent, oldest dropped first. */
    static constexpr std::size_t kShardSampleWindow = 256;

    /**
     * Per-shard modeled-seconds samples: one per shard per sharded
     * batch run, the last kShardSampleWindow of them (empty when
     * num_shards == 1).  The benches compute per-shard p99 modeled
     * latency from these.
     */
    std::vector<double> shard_modeled_samples() const;

    /** The shared memory budget. */
    const util::MemoryBudget &budget() const { return budget_; }

    /**
     * Smallest shared budget one engine run over this graph needs at
     * @p num_shards shards: per shard of the ShardPlan, its
     * core::single_buffer_floor and a pool of core::kMinWalkers.
     * Requests against a smaller budget are rejected at submission.
     */
    static std::uint64_t
    min_run_footprint(const graph::GraphFile &file,
                      const graph::BlockPartition &partition,
                      unsigned num_shards = 1);

  private:
    using Clock = std::chrono::steady_clock;

    /** A submitted request travelling through the pipeline. */
    struct Pending {
        WalkRequest request;
        std::promise<WalkResult> promise;
        std::uint64_t id = 0;
        Clock::time_point submitted;
        /** Holds a per-tenant in-flight slot that must be returned
         *  when the request reaches its terminal status. */
        bool tenant_slot = false;
    };

    /** A coalesced gang of requests bound for one engine run. */
    struct Batch {
        std::uint64_t id = 0;
        std::vector<Pending> requests;
    };

    /** Requests coalescing toward one batch (dispatcher-private). */
    struct Group {
        std::vector<Pending> requests;
        Clock::time_point opened;
    };

    /** Estimated result-buffer bytes of @p request (budget charge). */
    static std::uint64_t estimate_request_bytes(const WalkRequest &req);

    /** Reject reasons caught before a request reaches the queue. */
    bool validate_request(const WalkRequest &request,
                          std::string *error) const;

    /** Resolve @p pending immediately with @p status (no run). */
    void finish_rejected(Pending pending, WalkStatus status,
                         const std::string &error);

    /** Bump the terminal counter matching @p status. */
    void count_terminal(WalkStatus status);

    /**
     * Try to take an in-flight slot for @p tenant (tenant_max_queue).
     * @return false when the tenant is at its bound (shed the request).
     */
    bool acquire_tenant_slot(std::uint64_t tenant);

    /** Return @p pending's tenant slot, if it holds one. */
    void release_tenant_slot(Pending &pending);

    void dispatcher_loop();
    void flush_group(Group &group);
    void worker_loop(unsigned worker_index);
    void run_batch(Batch &batch, BatchRunner &runner);
    void fail_batch(Batch &batch, WalkStatus status,
                    const std::string &error);

    const graph::GraphFile *file_;
    const graph::BlockPartition *partition_;
    ServiceConfig config_;

    util::MemoryBudget budget_;
    std::unique_ptr<storage::SharedBlockCache> cache_;
    /** One step pool shared by every worker's engine (null when
     *  step_threads == 1); engines serialize their fork-joins on it. */
    std::unique_ptr<util::ThreadPool> step_pool_;
    std::uint64_t min_footprint_ = 0;

    util::BlockingQueue<Pending> submit_queue_;
    util::BlockingQueue<Batch> batch_queue_;

    std::thread dispatcher_;
    std::vector<std::thread> workers_;
    std::once_flag stop_once_;

    std::atomic<std::uint64_t> next_request_id_{1};
    std::atomic<std::uint64_t> next_batch_id_{1};

    // Counters (atomics; snapshot via counters()).
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> rejected_queue_full_{0};
    std::atomic<std::uint64_t> rejected_tenant_queue_{0};
    std::atomic<std::uint64_t> rejected_budget_{0};
    std::atomic<std::uint64_t> expired_{0};
    std::atomic<std::uint64_t> shutdown_dropped_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> coalesced_requests_{0};

    mutable std::mutex tenant_mutex_;
    std::unordered_map<std::uint64_t, engine::RunStats> tenant_stats_;
    /** Sum of every completed request's stats slice (conservation
     *  twin of tenant_stats_; updated under tenant_mutex_). */
    engine::RunStats total_stats_;

    /** Per-tenant in-flight request counts (tenant_max_queue > 0). */
    mutable std::mutex tenant_queue_mutex_;
    std::unordered_map<std::uint64_t, std::size_t> tenant_in_flight_;

    mutable std::mutex shard_mutex_;
    std::deque<double> shard_modeled_samples_;
};

} // namespace noswalker::service
