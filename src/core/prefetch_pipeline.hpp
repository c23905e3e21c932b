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
 * A demand load runs where it is waited for, after the FIFO ahead of
 * it: obtain_round() banks every outstanding load, then runs the
 * demand on the engine thread (AsyncLoader::load_now), where the
 * loader thread could overlap it with nothing.  Only speculative loads
 * go to the loader thread.  Where a load runs never reaches the
 * modeled clock below: the demand takes the next ticket and is charged
 * through the same FIFO running max as any other load.  A fine round's
 * demands are all submitted at one pipeline time, so the device
 * queues them back to back and the round pays the queue latency once.
 * Their pages land in packed views over the round's host buffers
 * (taken from the buffer pool, placed by RoundPacker), which return to
 * the pool once the engine has recycled every view of the round.
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
#include <span>
#include <vector>

#include "core/block_scheduler.hpp"
#include "storage/async_loader.hpp"
#include "storage/block_buffer_pool.hpp"
#include "storage/block_reader.hpp"
#include "storage/shared_block_cache.hpp"

namespace noswalker::core {

/**
 * Next-fit placement of a fine round's blocks (DESIGN.md §10, §12):
 * each block's segments go, back to back, into the current host buffer
 * while they fit its rest, else into a fresh one.  A block that fits
 * neither — or a fresh one when all @p hosts are open — ends the round.
 */
class RoundPacker {
  public:
    /**
     * @param host_bytes  bytes of one host buffer (one baseline block
     *        buffer, core::block_buffer_bytes).
     * @param hosts       host buffers of the reservation (2, or 1 when
     *        single-buffered); never depends on the prefetch depth.
     */
    RoundPacker(std::uint64_t host_bytes, std::uint32_t hosts)
        : host_bytes_(host_bytes), hosts_(hosts)
    {
    }

    /** Start a new round. */
    void
    clear()
    {
        open_ = 0;
        used_ = 0;
    }

    /** Place @p request's segments: set its host and host_offset.
     *  False, leaving the placement as it was, when it does not fit. */
    bool place(storage::AsyncLoader::Request &request);

  private:
    std::uint64_t host_bytes_;
    std::uint32_t hosts_;
    /** Hosts opened this round; the last one is the current host. */
    std::uint32_t open_ = 0;
    /** Bytes placed in the current host. */
    std::uint64_t used_ = 0;
};

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
     * Deliver the blocks of @p demands into @p out, in order (a fine
     * round, DESIGN.md §10).  Each block prefers a speculative result
     * over a demand load; a coarse speculative result serving a fine
     * demand is refined to the demand's needed list and slots.  A fine
     * demand load fills a packed view over the host buffer its
     * placement names.  The round's demand loads run on the calling
     * thread once every outstanding load is banked, all submitted at
     * one pipeline time, so they pay the queue latency once between
     * them.  The io-wait clock is charged once, up to the latest FIFO
     * completion among the round's loads.
     *
     * Storage buffers stay within the reserved max(depth, 1) + 1: a
     * fine round placed over H host buffers serves at most that minus
     * H blocks from speculation (a later covered block's result is
     * recycled and the block loaded instead), and speculation held for
     * other blocks is recycled as far as needed before the demand
     * loads.
     * @pre demands name distinct blocks; a fine round's demands carry
     *      plan_segments() segments placed by one RoundPacker over at
     *      most max(depth, 1) + 1 hosts; a coarse round has one demand;
     *      every view of the previous round was recycled.
     */
    void obtain_round(std::span<storage::AsyncLoader::Request> demands,
                      std::vector<storage::AsyncLoader::Response> &out);

    /** obtain_round() for the one block of @p demand. */
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

    /** Return a consumed response's buffer: storage to the pool, a
     *  packed view to the view free list.  The round's host buffers go
     *  back to the pool with its last view. */
    void recycle(storage::BlockBuffer &&buffer);

    const Stats &stats() const { return stats_; }

  private:
    /** A completed speculative load waiting to be chosen. */
    struct Parked {
        storage::AsyncLoader::Response response;
        /** Latest modeled completion among this load and every older
         *  ticket: when the FIFO consumer may take it. */
        double ready_at = 0.0;
    };

    /** An outstanding speculative load. */
    struct Inflight {
        std::uint32_t block = 0;
        double submitted = 0.0;
        std::uint64_t seq = 0;
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

    /** Take the speculative result covering @p demand's block. */
    Parked take_covered(const storage::AsyncLoader::Request &demand);

    /** Recycle held speculation until @p demand_loads more buffers fit
     *  the reserved max(depth, 1) + 1 next to the @p served ones. */
    void make_room(std::size_t served, std::size_t demand_loads);

    /** Recycle the speculative result covering @p block unused: its
     *  round has no buffer left for it. */
    void drop_covered(std::uint32_t block);

    /** Storage buffers the engine reserved: max(depth, 1) + 1. */
    std::size_t reserved() const;

    /** Take host buffers from the pool for the fine demand loads among
     *  @p demands (those @p out has no response for), each sized to
     *  what is placed in it. */
    void
    take_hosts(std::span<const storage::AsyncLoader::Request> demands,
               const std::vector<storage::AsyncLoader::Response> &out);

    /** Load fine @p demand into a packed view over its host buffer. */
    storage::AsyncLoader::Response
    load_packed(const storage::AsyncLoader::Request &demand);

    /** Return the round's host buffers to the pool. */
    void release_hosts();

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

    /** The current fine round's host buffers, by placement index
     *  (storage-less where no demand load was placed), and its views
     *  not yet recycled. */
    std::vector<storage::BlockBuffer> hosts_;
    std::size_t live_views_ = 0;
    /** take_hosts' per-host byte scratch. */
    std::vector<std::uint64_t> host_bytes_scratch_;
    /** Recycled views, kept with their segment vectors for the next
     *  rounds. */
    std::vector<storage::BlockBuffer> spare_views_;

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
