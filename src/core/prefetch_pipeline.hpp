/**
 * @file
 * Depth-K speculative block prefetching (DESIGN.md §10).
 *
 * Sits between the engine's deterministic admission loop and the
 * AsyncLoader.  The engine always *processes* the scheduler's hottest
 * block — speculation only changes how that block's bytes arrive: from
 * the speculation stash, from an already-completed load, by draining
 * the loader, or by a demand load as a last resort.  Because delivery
 * never alters which block is processed next, walk output is
 * bit-identical at every prefetch depth.
 *
 * Speculative loads are coarse-only and stop once the sticky fine-mode
 * switch fires (a fine needed-list frozen at speculation time would
 * diverge from the choice-time list and change residency).  A coarse
 * speculative buffer can still serve a fine demand: BlockReader::refine
 * masks its residency down to the choice-time needed list, which is
 * bit-identical to a fresh fine load.
 *
 * A speculatively loaded block whose walker bucket drained before it
 * was chosen is *demoted*, never discarded: its bytes are published to
 * the shared block cache (when attached and the block had recent
 * scheduler heat — a stale block would only dilute hot service
 * tenants) and parked in a bounded stash for a later re-steer;
 * `prefetch_mispredicts` counts each demotion and
 * `filtered_demotions` the ones the admission filter kept out of the
 * shared cache.
 *
 * Completion consumption is strict FIFO: every request is ticketed,
 * per-request modeled completion times are fixed in submission order
 * (requests serialize on the modeled device), and the one loader thread
 * completes them in that order, so a served load is charged the latest
 * modeled completion among itself and every older ticket.  A cache hit
 * queued behind a slow read therefore waits the read out, as it does
 * on the real loader thread.
 *
 * Stall accounting runs on a modeled timeline: the clock advances only
 * when the engine blocks on a load (compute is modeled as fully
 * overlapped), a request completes at
 * max(device_free, submit + queue_latency) + request_seconds, and
 * cache hits complete at submission.  io_wait_seconds is therefore a
 * deterministic, machine-independent function of the run — at depth 1
 * every load pays the queue latency; at depth K the latency amortizes
 * across the queue.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/block_scheduler.hpp"
#include "storage/async_loader.hpp"
#include "storage/block_buffer_pool.hpp"
#include "storage/block_reader.hpp"
#include "storage/shared_block_cache.hpp"

namespace noswalker::core {

/** Drives an AsyncLoader as a depth-K speculative prefetch pipeline. */
class PrefetchPipeline {
  public:
    /** Sweeps of scheduler heat a demoted block may be stale before the
     *  admission filter keeps it out of the shared cache. */
    static constexpr std::uint64_t kAdmissionSweeps = 8;

    /** Aggregated pipeline counters (folded into RunStats). */
    struct Stats {
        /** Demands served from a speculative load (stash/admitted/FIFO). */
        std::uint64_t prefetch_hits = 0;
        /** Speculative loads demoted unprocessed (bucket drained). */
        std::uint64_t prefetch_mispredicts = 0;
        /** Demotions the admission filter kept out of the shared cache
         *  (no scheduler heat within kAdmissionSweeps sweeps). */
        std::uint64_t filtered_demotions = 0;
        std::uint64_t speculative_loads = 0;
        std::uint64_t demand_loads = 0;
        /** Per-response totals of every consumed load (incl. demoted). */
        std::uint64_t coarse_loads = 0;
        std::uint64_t fine_loads = 0;
        /** Coarse loads served from the SharedBlockCache.  Coarse
         *  only, so `coarse_loads - cache_hit_loads` is the device
         *  (miss) count; fine-mode page reads are below block
         *  granularity and keep their own accounting. */
        std::uint64_t cache_hit_loads = 0;
        std::uint64_t bytes_read = 0;
        std::uint64_t read_requests = 0;
        double modeled_io_seconds = 0.0;
        /** Modeled seconds the consumer was blocked on loads. */
        double io_wait_seconds = 0.0;
    };

    /**
     * @param loader  the depth-K loader to drive (its depth bounds the
     *        outstanding set; must be ≥ max(1, depth)).
     * @param reader  used to refine coarse buffers for fine demands.
     * @param pool    consumed buffers are recycled here.
     * @param depth   speculative slots (0 = demand loading only).
     * @param cache   optional shared cache demoted loads publish to.
     * @param queue_latency  per-request submission latency, seconds.
     */
    PrefetchPipeline(storage::AsyncLoader &loader,
                     storage::BlockReader &reader,
                     storage::BlockBufferPool &pool, std::size_t depth,
                     storage::SharedBlockCache *cache,
                     double queue_latency);

    ~PrefetchPipeline();

    PrefetchPipeline(const PrefetchPipeline &) = delete;
    PrefetchPipeline &operator=(const PrefetchPipeline &) = delete;

    /** Speculative slots (0 = speculation disabled). */
    std::size_t depth() const { return depth_; }

    /**
     * True when another speculative load may start: a slot is free
     * across in-flight + completed + stashed speculation (the
     * conservation bound keeping live buffers ≤ depth + 1).
     */
    bool can_speculate() const;

    /** Whether @p block is covered by speculation in any state. */
    bool covers(std::uint32_t block) const;

    /** Append every covered block id to @p out. */
    void collect_covered(std::vector<std::uint32_t> &out) const;

    /** Start a speculative coarse load of @p block. @pre can_speculate(). */
    void speculate(const graph::BlockInfo &block);

    /** Bank completed loads without blocking (call between rounds). */
    void poll();

    /**
     * Deliver the block of @p demand, preferring speculative results
     * over issuing the demand load.  Serving a load charges the modeled
     * io-wait clock up to its FIFO completion.  A coarse
     * speculative result serving a fine demand is refined to the
     * demand's needed list.
     */
    storage::AsyncLoader::Response
    obtain(storage::AsyncLoader::Request demand);

    /**
     * Demote completed speculative loads whose walker bucket drained
     * (count == 0 in @p scheduler): publish to the shared cache when
     * the block had scheduler heat within the last kAdmissionSweeps
     * sweeps (else count a filtered demotion), park in the stash, and
     * count a mispredict.
     */
    void sweep(const BlockScheduler &scheduler);

    /**
     * Drain and recycle everything still owned by the pipeline;
     * leftover speculation counts as mispredicted.  Call once at the
     * end of the run (the destructor also calls it).
     */
    void finish();

    /** Return a consumed response's buffer to the pool. */
    void recycle(storage::BlockBuffer &&buffer);

    const Stats &stats() const { return stats_; }

  private:
    /** A completed load waiting to be chosen. */
    struct Parked {
        storage::AsyncLoader::Response response;
        /** Latest modeled completion among this load and every older
         *  ticket: when the FIFO consumer may take it. */
        double ready_at = 0.0;
        /** False only for the demand load of the serving obtain(). */
        bool speculative = true;
    };

    struct Inflight {
        std::uint32_t block = 0;
        double submitted = 0.0;
        std::uint64_t seq = 0;
        bool speculative = true;
    };

    /**
     * Consume the oldest outstanding load (blocking) and bank it in
     * the admitted set without charging the io-wait clock.
     */
    void bank_next_blocking();

    /** Bank one already-completed response for the in-flight head. */
    void bank_response(storage::AsyncLoader::Response response);

    /** Modeled completion time of @p response submitted at @p submitted. */
    double finish_time(const storage::AsyncLoader::Response &response,
                       double submitted);

    /** Fold @p response's load result into the consumed-I/O totals. */
    void account(const storage::AsyncLoader::Response &response);

    /** Charge the io-wait clock up to @p ready_at. */
    void charge_wait(double ready_at);

    /** Adapt a speculative result to @p demand (coarse → fine). */
    storage::AsyncLoader::Response
    adapt(storage::AsyncLoader::Response response,
          const storage::AsyncLoader::Request &demand);

    storage::AsyncLoader *loader_;
    storage::BlockReader *reader_;
    storage::BlockBufferPool *pool_;
    std::size_t depth_;
    storage::SharedBlockCache *cache_;
    double queue_latency_;

    std::deque<Inflight> inflight_;
    /** Ordered maps: sweep/finish iterate deterministically. */
    std::map<std::uint32_t, Parked> admitted_;
    std::map<std::uint32_t, Parked> stash_;

    /** Sweep epoch and last sweep each block had scheduler heat, for
     *  the demotion admission filter. */
    std::uint64_t sweep_epoch_ = 0;
    std::map<std::uint32_t, std::uint64_t> last_hot_;

    /** Modeled pipeline clock (advances only on blocking waits). */
    double now_ = 0.0;
    /** Modeled time the (serial) device frees up. */
    double device_free_ = 0.0;
    /** Latest modeled completion banked so far (loads bank in ticket
     *  order, so this is every older ticket's FIFO bound). */
    double banked_ready_ = 0.0;

    Stats stats_;
};

} // namespace noswalker::core
