/**
 * @file
 * The NosWalker engine: decoupled, walker-oriented out-of-core random
 * walk processing (paper §3, Algorithm 1/3).
 *
 * Architecture (Figure 6): a background loader thread streams the
 * hottest blocks into block buffers (①; a demand load runs on the
 * engine thread instead, after the loads ahead of it, DESIGN.md §10);
 * walkers are generated adaptively so their states never touch disk
 * (②); walkers are moved first from the currently loaded block, then
 * from reserved pre-sample buffers (③); and pre-sample buffers are
 * (re)built from each loaded block with visit-history-proportional
 * quotas (④).
 *
 * Intra-block compute is parallel: each loaded block's bucket is
 * sharded across `EngineConfig::step_threads` workers on a persistent
 * util::ThreadPool.  Every walker carries a private SplitMix64 stream
 * derived from (run seed, walker id), so trajectories are a pure
 * function of the seed — walk output is bit-identical at 1, 2, or N
 * step threads.  Workers bank each walker's outcome in place — the
 * record in its input slot, its fate in a parallel dest array — and
 * count into thread-local engine::RunStats deltas; after the shard
 * barrier the scheduler thread adds the deltas' sums to the run and
 * parks the banked records in one index-order pass, keeping
 * BlockScheduler and WalkerPool single-writer.
 *
 * A run's I/O counters come from its own load results (the prefetch
 * pipeline's totals), never from device-counter deltas: the device may
 * be shared with concurrent engines, and cache hits never reach it.
 *
 * The Fig 14 breakdown knobs degrade the engine towards the paper's
 * "base implementation": walker_management=false materializes all
 * walkers up front and charges GraphWalker-style swap I/O;
 * shrink_block=false disables fine-grained loads; presample=false
 * disables the pre-sample pool entirely.
 *
 * Second-order applications (SecondOrderApp) run the Appendix A
 * workflow: Action records a candidate + trial height, and the engine
 * resolves the rejection trial once the candidate's adjacency is
 * resident (from the loaded block or a direct low-degree reservation).
 */
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/block_scheduler.hpp"
#include "core/config.hpp"
#include "core/prefetch_pipeline.hpp"
#include "core/presample_pool.hpp"
#include "core/step_kernel.hpp"
#include "core/walker_pool.hpp"
#include "engine/app.hpp"
#include "engine/run_stats.hpp"
#include "engine/walker.hpp"
#include "engine/walker_spill.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/async_loader.hpp"
#include "storage/block_buffer_pool.hpp"
#include "storage/block_reader.hpp"
#include "storage/mem_device.hpp"
#include "storage/shared_block_cache.hpp"
#include "util/bitmap.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/memory_budget.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace noswalker::core {

/** Disk utilisation the async-I/O path achieves (paper §4.4: 70–90 %). */
inline constexpr double kAsyncIoEfficiency = 0.8;

/**
 * Resident CSR index bytes an engine owning blocks
 * [@p first_block, @p end_block) is charged (DESIGN.md §11): the
 * offsets of its own vertices plus one end entry, and — only when the
 * range leaves some vertex to another shard — a ⌈|V|/8⌉ B out-edge
 * bitmap.  The bitmap answers the one off-slice index read that
 * decides anything: StepKernel::resolve's degree check, which retires
 * a walker landing on another shard's dead end instead of emigrating
 * it.  A range covering every vertex is charged file.index_bytes().
 */
inline std::uint64_t
index_charge(const graph::GraphFile &file,
             const graph::BlockPartition &partition,
             std::uint32_t first_block, std::uint32_t end_block)
{
    const std::uint64_t owned =
        partition.block(end_block - 1).end_vertex -
        partition.block(first_block).first_vertex;
    if (owned >= file.num_vertices()) {
        return file.index_bytes();
    }
    return (owned + 1) * sizeof(graph::EdgeIndex) +
           (std::uint64_t{file.num_vertices()} + 7) / 8;
}

/**
 * Bytes of one resident block buffer: the largest block of
 * @p partition rounded out to whole pages, plus the page a block's
 * unaligned start and end can add.
 */
inline std::uint64_t
block_buffer_bytes(const graph::BlockPartition &partition)
{
    const std::uint64_t page = storage::BlockReader::kPageBytes;
    return (partition.max_block_bytes() / page + 2) * page;
}

/**
 * Walker-oriented out-of-core random walk engine.
 *
 * @tparam App  a RandomWalkApp (optionally SecondOrderApp).
 */
template <engine::RandomWalkApp App>
class NosWalkerEngine {
  public:
    using WalkerT = typename App::WalkerT;
    using AppT = App;
    /** What the pool parks: the app walker + its sampling stream. */
    using Record = engine::Stepped<WalkerT>;
    static constexpr bool kSecondOrder = engine::kIsSecondOrder<App>;

    /**
     * @param file  the on-disk graph.
     * @param partition  1-D block partition of @p file.
     * @param config  engine configuration (validated here).
     */
    NosWalkerEngine(const graph::GraphFile &file,
                    const graph::BlockPartition &partition,
                    EngineConfig config)
        : file_(&file), partition_(&partition), config_(config)
    {
        config_.validate();
    }

    /**
     * Attach a budget shared with other engines (the walk service's
     * admission-control pool).  When set, run() reserves from it
     * instead of a run-local budget.  Pass nullptr to detach.
     */
    void set_shared_budget(util::MemoryBudget *budget)
    {
        shared_budget_ = budget;
    }

    /** Serve coarse loads through a cache shared with other engines. */
    void set_shared_cache(storage::SharedBlockCache *cache)
    {
        shared_cache_ = cache;
    }

    /**
     * Step on a pool shared with other engines (the walk service hands
     * every worker the same pool) instead of hiring a private one.
     * The pool serializes concurrent engines internally.  Pass nullptr
     * to detach; ignored while step_threads == 1.
     */
    void set_step_pool(util::ThreadPool *pool) { external_pool_ = pool; }

    /** run() with a per-run seed (per-batch walker injection). */
    engine::RunStats
    run(App &app, std::uint64_t total_walkers, std::uint64_t seed)
    {
        seed_override_ = seed;
        return run(app, total_walkers);
    }

    /** Receives a shard round's emigrants (run_records), in outbox
     *  order, on the engine's scheduler thread: after each processed
     *  bucket's merge with those accumulated since the last flush
     *  (tail = false), and once at quiescence with the rest (tail =
     *  true).  Never called with an empty vector.  Must not re-enter
     *  the engine. */
    using EmigrantSink =
        std::function<void(std::vector<Record> &&, bool tail)>;

    /**
     * Shard-mode entry (one migration round of shard::ShardedEngine):
     * execute exactly the pre-generated @p records, treating only
     * blocks in [@p first_block, @p end_block) as local.  A record
     * whose waiting vertex falls outside the local range is not
     * stepped; it goes (with its live RNG stream) to @p sink for the
     * caller to route to the owning shard.
     *
     * Pre-sampling is off for the round: reservoir contents depend on
     * refill timing, which varies with the shard count, and would
     * break the cross-shard bit-identity contract (DESIGN.md §11).
     * Per-walker streams are untouched by migration, so each
     * trajectory stays a pure function of (seed, walker id, graph).
     * The round reserves only the range's index slice (index_charge).
     */
    engine::RunStats
    run_records(App &app, std::vector<Record> records, std::uint64_t seed,
                std::uint32_t first_block, std::uint32_t end_block,
                const EmigrantSink &sink)
    {
        if (!sink || first_block >= end_block ||
            end_block > partition_->num_blocks()) {
            throw util::ConfigError(
                "run_records: bad shard block range or null sink");
        }
        shard_mode_ = true;
        owned_begin_ = first_block;
        owned_end_ = end_block;
        sink_ = &sink;
        seed_records_ = std::move(records);
        seed_override_ = seed;
        const std::uint64_t total = seed_records_.size();
        engine::RunStats out;
        try {
            out = run(app, total);
            flush_emigrants(/*tail=*/true);
        } catch (...) {
            exit_shard_mode();
            throw;
        }
        exit_shard_mode();
        return out;
    }

    /**
     * Execute @p total_walkers walkers of @p app to completion.
     *
     * Deterministic for a fixed (config.seed, app, graph) — including
     * across step_threads values: per-walker streams make every
     * trajectory independent of thread interleaving.
     *
     * @throws util::IoError when a load fails, after the run has
     *         returned its reservations to the budget.
     */
    engine::RunStats
    run(App &app, std::uint64_t total_walkers)
    {
        util::Timer wall;
        reset(total_walkers);
        app_ = &app;
        util::MemoryBudget local_budget(
            shared_budget_ != nullptr ? 0 : config_.memory_budget);
        util::MemoryBudget &budget =
            shared_budget_ != nullptr ? *shared_budget_ : local_budget;
        try {
            run_rounds(app, budget, total_walkers);
        } catch (...) {
            // A failed run (an I/O error, an exhausted budget) hands
            // back every reservation: a shared budget drains, and none
            // outlives the run-local one.
            release_run_memory();
            throw;
        }
        stats_.wall_seconds = wall.seconds();
        return stats_;
    }

  private:
    /** Reserve, then process blocks until every walker retires. */
    void
    run_rounds(App &app, util::MemoryBudget &budget,
               std::uint64_t total_walkers)
    {
        setup(budget, total_walkers);

        storage::BlockReader reader(*file_, unbudgeted_, 8ULL << 20,
                                    shared_cache_);
        storage::BlockBufferPool buffer_pool;
        storage::AsyncLoader loader(
            reader, config_.loader_threads > 0,
            std::max<std::size_t>(prefetch_slots_, 1), &buffer_pool);
        PrefetchPipeline pipeline(
            loader, reader, buffer_pool, prefetch_slots_, shared_cache_,
            file_->device().model().queue_latency);

        App &a = app;
        util::Timer cpu;
        double cpu_seconds = 0.0;

        // Prime the pool so the scheduler has work.
        cpu.reset();
        admit_walkers(a, nullptr);
        cpu_seconds += cpu.seconds();

        // A fine round packs its blocks' needed records into the
        // baseline buffers setup charged, never into speculation slots:
        // its composition must not depend on prefetch_depth.
        RoundPacker packer(block_buffer_bytes(*partition_),
                           single_buffer_ ? 1 : 2);
        std::vector<storage::AsyncLoader::Response> responses;
        while (generated_ < total_ || pool_->live() > 0) {
            pipeline.poll();
            const std::uint32_t target = choose_block();
            if (target == BlockScheduler::kNoBlock) {
                // Only in-flight generation remains.
                cpu.reset();
                admit_walkers(a, nullptr);
                cpu_seconds += cpu.seconds();
                flush_emigrants();
                continue;
            }
            // The processed blocks are the hottest at choice time — a
            // pure function of (seed, app, graph), never of the
            // prefetch depth.  Speculation only changes how their bytes
            // arrive, so walk output is bit-identical at every depth.
            const std::size_t width = build_round(target, packer);
            pipeline.obtain_round(std::span(round_.data(), width),
                                  responses);

            for (storage::AsyncLoader::Response &response : responses) {
                cpu.reset();
                if (scheduler_->count(response.block->id) > 0) {
                    process_block(a, response);
                } else {
                    // Stale load: walkers left before the bytes
                    // arrived.
                    ++stats_.stalls;
                }
                admit_walkers(a, &response);
                cpu_seconds += cpu.seconds();
                // Per-bucket flush point (§11): every emigrant merged
                // by this bucket ships now, while later buckets still
                // step.
                flush_emigrants();
                pipeline.recycle(std::move(response.buffer));
            }
            pipeline.sweep(*scheduler_);

            // Nominate the lookahead *after* this round's parking: the
            // scheduler counts now decide the next rounds' targets, so
            // the top-K picks are exactly the blocks about to be
            // chosen and the next obtain is served from the pipeline.
            top_up_speculation(pipeline);
        }
        pipeline.finish();

        finalize(budget, cpu_seconds, pipeline.stats());
    }

    /** The step loop (DESIGN.md §12) reads the engine's per-round
     *  state: residency, pre-sample buffers, shard ownership. */
    template <typename E>
    friend class StepKernel;

    /**
     * Hand the emigrants accumulated since the last flush to the
     * shard sink.  Scheduler thread only, after the merge barrier —
     * the records are final and in outbox order.  Outside shard mode
     * nothing ever emigrates, so this is a no-op there.
     */
    void
    flush_emigrants(bool tail = false)
    {
        if (emigrants_.empty()) {
            return;
        }
        std::vector<Record> out;
        out.swap(emigrants_);
        (*sink_)(std::move(out), tail);
    }

    void
    exit_shard_mode()
    {
        shard_mode_ = false;
        owned_begin_ = 0;
        owned_end_ = 0;
        sink_ = nullptr;
        emigrants_.clear();
        seed_records_.clear();
    }

    /** Whether block @p b is local (always true outside shard mode). */
    bool
    owns_block(std::uint32_t b) const
    {
        return !shard_mode_ || (b >= owned_begin_ && b < owned_end_);
    }

    void
    reset(std::uint64_t total)
    {
        stats_ = engine::RunStats{};
        stats_.engine = "NosWalker";
        stats_.pipelined = true; // set false later in single-buffer mode
        run_seed_ = seed_override_.value_or(config_.seed);
        seed_override_.reset();
        // Shard rounds never pre-sample: reservoir contents vary with
        // the shard count, which would break cross-shard-count
        // bit-identity (§11).
        presample_enabled_ = config_.presample && !shard_mode_;
        // Domain-separated stream root for pre-sample fills so they
        // never collide with walker streams.
        presample_seed_ =
            util::derive_stream(run_seed_, 0x7072652d73616d70ULL);
        stats_.io_efficiency = kAsyncIoEfficiency;
        total_ = total;
        generated_ = 0;
        presamples_.reset();
        pool_.reset();
        scheduler_.reset();
        spill_.reset();
        swap_device_.reset();
    }

    /** Reserve the fixed memory regions and create the components. */
    void
    setup(util::MemoryBudget &budget, std::uint64_t total)
    {
        // CSR index stays in memory (§3.3.1); a shard holds only the
        // slice of the blocks it owns (index_charge).
        index_rsv_ = util::Reservation(
            budget,
            shard_mode_ ? index_charge(*file_, *partition_, owned_begin_,
                                       owned_end_)
                        : file_->index_bytes(),
            "csr index");

        // Resident block buffers: the depth-independent baseline of
        // two (the block being processed plus one lookahead, as in
        // double buffering), charged once up front — the buffer pool
        // recycles the storage, so the high-water mark is the whole
        // charge.  Extra speculative slots are reserved *last*, from
        // whatever the walker pool and pre-sample pool leave over, so
        // the walker cap and pre-sample sizing — and therefore the
        // walk schedule — never depend on prefetch_depth.
        const std::uint64_t aligned = block_buffer_bytes(*partition_);
        const std::uint64_t buffer_share = (budget.available() * 35) / 100;
        single_buffer_ =
            budget.limit() != 0 && 2 * aligned > buffer_share;
        buffer_rsv_ = util::Reservation(
            budget, single_buffer_ ? aligned : 2 * aligned,
            "block buffers");

        const std::uint64_t rest = budget.available();
        const std::uint32_t num_blocks = partition_->num_blocks();
        scheduler_ = std::make_unique<BlockScheduler>(
            num_blocks, config_.alpha, file_->edge_region_bytes(),
            static_cast<std::uint32_t>(storage::BlockReader::kPageBytes));

        if (config_.walker_management) {
            std::uint64_t cap = config_.max_walkers;
            if (cap == 0) {
                const std::uint64_t by_budget =
                    budget.limit() == 0
                        ? std::uint64_t{1} << 18
                        : static_cast<std::uint64_t>(
                              kWalkerMemoryFraction *
                              static_cast<double>(rest)) /
                              sizeof(Record);
                cap = std::max<std::uint64_t>(
                    64, std::min<std::uint64_t>(by_budget,
                                                std::uint64_t{1} << 20));
            }
            cap = std::max<std::uint64_t>(1, std::min(cap, total));
            pool_ = std::make_unique<WalkerPool<Record>>(num_blocks, cap,
                                                         budget);
        } else {
            // Base-implementation mode: all walker states exist up
            // front; only a bounded buffer is memory-resident and the
            // overflow swaps through a dedicated device (§2.4.2).
            const std::uint64_t buffer_bytes = std::max<std::uint64_t>(
                sizeof(Record),
                budget.limit() == 0
                    ? total * sizeof(Record)
                    : static_cast<std::uint64_t>(
                          kWalkerMemoryFraction *
                          static_cast<double>(rest)));
            const std::uint64_t resident_cap =
                std::max<std::uint64_t>(1, buffer_bytes / sizeof(Record));
            pool_ = std::make_unique<WalkerPool<Record>>(
                num_blocks, std::max<std::uint64_t>(total, 1), budget,
                std::min(buffer_bytes, total * sizeof(Record)));
            swap_device_ = std::make_unique<storage::MemDevice>(
                file_->device().model());
            // Swap traffic is charged per app-walker state: the stream
            // word is engine bookkeeping, not "vertex data" (§2.4.2).
            spill_ = std::make_unique<engine::WalkerSpill>(
                *swap_device_, sizeof(WalkerT), resident_cap, num_blocks);
        }

        if (presample_enabled_) {
            std::uint64_t ps_total = std::max<std::uint64_t>(
                4096, budget.limit() == 0
                          ? std::uint64_t{64} << 20
                          : static_cast<std::uint64_t>(
                                config_.presample_memory_fraction *
                                static_cast<double>(budget.available())));
            if (budget.limit() != 0) {
                // Never over-claim a nearly spent budget: a too-small
                // pool degrades to skipped fills, not a failed run.
                ps_total = std::min(ps_total, budget.available());
            }
            PreSampleBuffer::BuildParams params;
            // Hot blocks deserve deep buffers: cap one block at a
            // quarter of the pool and let coldest-buffer eviction
            // arbitrate the rest (§3.3.3).
            params.max_bytes = std::max<std::uint64_t>(4096, ps_total / 4);
            params.base_quota = config_.presamples_per_vertex;
            params.max_quota = kMaxPresamplesPerVertex;
            params.low_degree_cutoff = config_.low_degree_cutoff;
            // Claim the pool share up front and hand the buffers their
            // own accountant: fills then compete only with each other
            // for a cap that is identical at every prefetch depth,
            // never with the speculation buffers on the global budget
            // (§10) — otherwise eviction pressure, pre-sample content,
            // and the walk itself would vary with the depth.
            ps_rsv_ = util::Reservation(budget, ps_total,
                                        "presample pool");
            presamples_ = std::make_unique<PreSamplePool>(
                *file_, num_blocks, ps_total, params);
        }

        // Speculative lookahead slots beyond the baseline buffer pair,
        // funded strictly from the slack left after the pre-sample
        // pool's up-front claim.  Shrinking the depth never changes
        // walk output — the engine always processes the scheduler's
        // hottest block (§10).
        prefetch_slots_ = 0;
        if (!single_buffer_ && config_.prefetch_depth > 0) {
            prefetch_slots_ = config_.prefetch_depth;
            if (budget.limit() != 0) {
                const std::uint64_t spare = budget.available();
                while (prefetch_slots_ > 1 &&
                       (prefetch_slots_ - 1) * aligned > spare) {
                    --prefetch_slots_;
                }
            }
            if (prefetch_slots_ > 1) {
                spec_rsv_ = util::Reservation(
                    budget, (prefetch_slots_ - 1) * aligned,
                    "speculation buffers");
            }
        }
        stats_.pipelined = !single_buffer_;

        if (config_.step_threads > 1) {
            if (external_pool_ != nullptr) {
                step_pool_ = external_pool_;
            } else {
                if (!owned_pool_ ||
                    owned_pool_->hired() != config_.step_threads - 1) {
                    owned_pool_ = std::make_unique<util::ThreadPool>(
                        config_.step_threads - 1);
                }
                step_pool_ = owned_pool_.get();
            }
        } else {
            step_pool_ = nullptr;
        }
    }

    /**
     * Fill round_ with the next round's requests and return how many.
     * A coarse round is @p target alone.  A fine round (DESIGN.md §12)
     * takes every busy block in heat order — @p target first — until
     * @p packer cannot place the next one's pages in the baseline
     * buffers, so one submission loads them all.  Each needed list is
     * frozen here, at choice time.
     */
    std::size_t
    build_round(std::uint32_t target, RoundPacker &packer)
    {
        const bool fine = config_.shrink_block &&
                          scheduler_->fine_mode(pool_->live());
        if (round_.empty()) {
            round_.emplace_back();
        }
        if (!fine) {
            fill_request(round_.front(), target, false);
            return 1;
        }
        packer.clear();
        scheduler_->heat_heap(heat_scratch_);
        std::size_t width = 0;
        for (std::uint32_t block = scheduler_->pop_hottest(heat_scratch_);
             block != BlockScheduler::kNoBlock;
             block = scheduler_->pop_hottest(heat_scratch_)) {
            NOSWALKER_CHECK(width > 0 || block == target);
            if (round_.size() == width) {
                round_.emplace_back();
            }
            storage::AsyncLoader::Request &request = round_[width];
            fill_request(request, block, true);
            if (!packer.place(request)) {
                break;
            }
            ++width;
        }
        // One block's pages always fit one baseline buffer.
        NOSWALKER_CHECK(width > 0);
        return width;
    }

    /**
     * Point @p request at @p block; a fine one also gets the needed
     * list of its parked walkers, the slot each one's next event reads
     * and the segments of those pages.  The request's vectors keep
     * their capacity from round to round.
     *
     * Slot-exact fine loads (DESIGN.md §12): with a SlotDrawApp each
     * parked walker needs only the page its next draw lands on.
     * Parked walkers do not move before the block is processed, so the
     * kernel's draw is the one dry-run here.
     */
    void
    fill_request(storage::AsyncLoader::Request &request,
                 std::uint32_t block, bool fine)
    {
        request.block = &partition_->block(block);
        request.fine = fine;
        request.needed.clear();
        request.slots.clear();
        request.segments.clear();
        if (!fine) {
            return;
        }
        for (const Record &rec : peek_bucket(block)) {
            const graph::VertexId v = engine::waiting_vertex(*app_, rec.w);
            request.needed.push_back(v);
            if constexpr (engine::kHasSlotDraw<App>) {
                request.slots.push_back(
                    engine::next_draw_slot(*app_, rec, file_->degree(v)));
            }
        }
        storage::BlockReader::plan_segments(*file_, *request.block,
                                            request.needed, request.slots,
                                            plan_pages_, request.segments);
    }

    std::uint32_t
    choose_block() const
    {
        return scheduler_->hottest();
    }

    /**
     * Nominate the next hottest blocks for speculative coarse loads
     * (§10).  Speculation pauses once fine mode fires: a fine needed
     * list must be frozen at choice time, and coarse lookahead of tiny
     * tail buckets would thrash the slots.
     */
    void
    top_up_speculation(PrefetchPipeline &pipeline)
    {
        if (pipeline.depth() == 0 || !pipeline.can_speculate() ||
            (config_.shrink_block && scheduler_->fine_mode_active())) {
            return;
        }
        exclude_scratch_.clear();
        pipeline.collect_covered(exclude_scratch_);
        const std::vector<std::uint32_t> picks =
            scheduler_->top_k_excluding(pipeline.depth(),
                                        exclude_scratch_);
        for (const std::uint32_t next : picks) {
            if (!pipeline.can_speculate()) {
                break;
            }
            pipeline.speculate(partition_->block(next));
        }
    }

    /** Bucket view without draining it (fine-mode needed lists). */
    const std::vector<Record> &
    peek_bucket(std::uint32_t block) const
    {
        return pool_->bucket_view(block);
    }

    /** Generate walkers while the pool admits them (Algorithm 1 l.7). */
    void
    admit_walkers(App &app, const storage::AsyncLoader::Response *resp)
    {
        app_ = &app;
        if (!config_.walker_management) {
            // All walkers are materialized once, GraphChi-style.
            while (generated_ < total_) {
                Record rec = next_record(app);
                ++generated_;
                pool_->admit();
                park_now(std::move(rec));
            }
            return;
        }
        std::vector<Record> fresh;
        while (generated_ < total_ && pool_->can_admit()) {
            fresh.clear();
            while (generated_ < total_ && pool_->can_admit()) {
                fresh.push_back(next_record(app));
                ++generated_;
                pool_->admit();
            }
            // Stepping the batch retires some walkers, freeing pool
            // slots for the next admission wave.
            step_records(app, fresh, resp);
        }
    }

    /**
     * The next walker to admit: freshly generated, or — in shard mode
     * — the next pre-routed record (generated once by the sharded
     * orchestrator; its stream travels with it across rounds).
     */
    Record
    next_record(App &app)
    {
        if (shard_mode_) {
            return std::move(seed_records_[generated_]);
        }
        return engine::seed_record(app, generated_, run_seed_);
    }

    /** Park @p rec at its waiting block (scheduler thread only). */
    void
    park_now(Record rec)
    {
        const std::uint32_t b =
            partition_->block_of(engine::waiting_vertex(*app_, rec.w));
        if (!owns_block(b)) {
            // Another shard owns the data; hand the walker (and its
            // live stream) to the round's outbox.  The pool slot is
            // freed but the walker is *not* retired — the destination
            // shard continues it next round.
            emigrants_.push_back(std::move(rec));
            pool_->retire_n(1);
            return;
        }
        pool_->park(b, rec);
        scheduler_->add_walker(b);
        if (spill_) {
            spill_->park(b, 1);
        }
    }

    /** Build/refill the block's pre-sample buffer from a coarse load. */
    void
    refill_presamples(App &app,
                      const storage::AsyncLoader::Response &response)
    {
        PreSampleBuffer *fresh =
            presamples_->prepare(*response.block, *scheduler_);
        if (fresh != nullptr) {
            fill_buffer(app, response, *fresh);
        }
    }

    /**
     * Fill @p fresh from the loaded block, fanned out over the step
     * pool in fixed-size vertex chunks.  Each chunk samples from a
     * stream derived from (run seed, block, generation, chunk), so the
     * buffer contents are independent of the thread count.
     */
    void
    fill_buffer(App &app, const storage::AsyncLoader::Response &response,
                PreSampleBuffer &fresh)
    {
        const graph::BlockInfo &block = *response.block;
        const std::uint64_t gen = presamples_->generation(block.id);
        const std::uint64_t block_seed = util::derive_stream(
            util::derive_stream(presample_seed_, block.id), gen);
        constexpr graph::VertexId kChunk = 256;
        const graph::VertexId nv = block.num_vertices();
        const std::size_t chunks = (static_cast<std::size_t>(nv) +
                                    kChunk - 1) / kChunk;
        const auto fill_chunk = [&](std::size_t c) {
            util::Rng rng(util::derive_stream(block_seed, c));
            auto sampler = [&](const graph::VertexView &view) {
                return app.sample(view, rng);
            };
            const graph::VertexId begin =
                block.first_vertex +
                static_cast<graph::VertexId>(c) * kChunk;
            const graph::VertexId end =
                std::min(block.end_vertex, begin + kChunk);
            for (graph::VertexId v = begin; v < end; ++v) {
                if (fresh.quota(v) == 0) {
                    continue;
                }
                fresh.fill_vertex(response.buffer.view(*file_, v),
                                  sampler);
            }
        };
        if (step_pool_ != nullptr && chunks > 1) {
            step_pool_->run(chunks, fill_chunk);
        } else {
            for (std::size_t c = 0; c < chunks; ++c) {
                fill_chunk(c);
            }
        }
    }

    PreSampleBuffer *
    find_presamples(std::uint32_t block)
    {
        return presamples_->find(block);
    }

    /** Service the freshly loaded block (Algorithm 1 lines 9-12). */
    void
    process_block(App &app, const storage::AsyncLoader::Response &response)
    {
        const std::uint32_t id = response.block->id;
        if (!response.fine && presample_enabled_) {
            refill_presamples(app, response);
        }
        if (spill_) {
            spill_->activate(id);
        }
        pool_->take_bucket(id, bucket_scratch_);
        scheduler_->remove_walkers(id, bucket_scratch_.size());
        if (spill_) {
            spill_->retire(id, bucket_scratch_.size());
        }
        step_records(app, bucket_scratch_, &response);
    }

    /**
     * Shards to split @p n walkers into: enough per shard to amortize
     * the fork-join, a few per thread so uneven chain lengths balance
     * through the pool's dynamic task claim.
     */
    std::size_t
    shard_count(std::size_t n) const
    {
        if (step_pool_ == nullptr) {
            return 1;
        }
        constexpr std::size_t kMinPerShard = 16;
        const std::size_t by_size = (n + kMinPerShard - 1) / kMinPerShard;
        return std::min<std::size_t>(
            by_size, std::size_t{4} * config_.step_threads);
    }

    /**
     * Step every record to its next park/retire point, in parallel
     * when the pool is attached.  Consumes @p records.
     */
    void
    step_records(App &app, std::vector<Record> &records,
                 const storage::AsyncLoader::Response *resp)
    {
        if (records.empty()) {
            return;
        }
        if (dest_.size() < records.size()) {
            // Grow only: the kernel writes every slot of the batch.
            dest_.resize(records.size());
        }
        const std::size_t shards = shard_count(records.size());
        // Each worker counts into its own delta; only the sums fold
        // into the run (a delta's label, flags and peaks are defaults).
        if (shards <= 1) {
            engine::RunStats delta;
            step_span(app, records, 0, records.size(), resp, delta);
            stats_.add_sums(delta);
        } else {
            std::vector<engine::RunStats> deltas(shards);
            const std::size_t per =
                (records.size() + shards - 1) / shards;
            step_pool_->run(shards, [&](std::size_t s) {
                const std::size_t begin = s * per;
                const std::size_t end =
                    std::min(records.size(), begin + per);
                step_span(app, records, begin, end, resp, deltas[s]);
            });
            for (const engine::RunStats &delta : deltas) {
                stats_.add_sums(delta);
            }
        }
        // Shard barrier passed.  Spans are contiguous slices of
        // records, so index order is worker order, then walker order:
        // the single-writer structures see a deterministic sequence.
        park_banked(records);
        records.clear();
        // Dried reservoirs become visible to the *next* round only:
        // the drying point is then a function of deterministic
        // per-round draw totals, not of thread interleaving (and the
        // sequential path publishes at the same boundary, so output is
        // identical at any step-thread count).
        if (presamples_ != nullptr) {
            presamples_->publish_drain();
        }
    }

    /**
     * Step records[begin, end) — one worker shard's span — through the
     * step kernel (DESIGN.md §12).  A one-record span is a one-lane
     * ring, counted in kernel_scalar_fallbacks.
     */
    void
    step_span(App &app, std::vector<Record> &records, std::size_t begin,
              std::size_t end, const storage::AsyncLoader::Response *resp,
              engine::RunStats &delta)
    {
        if (begin >= end) {
            return;
        }
        if (end - begin == 1) {
            ++delta.kernel_scalar_fallbacks;
        }
        StepKernel<NosWalkerEngine>::run(
            *this, app, records, dest_, begin, end,
            resp != nullptr ? &resp->buffer : nullptr, delta);
    }

    /**
     * Act on every banked fate in index order (scheduler thread): park
     * at the destination block, or append to the shard outbox.  Retired
     * walkers and emigrants free their pool slots; an emigrant is not
     * retired — its walk continues on the owning shard next round.
     */
    void
    park_banked(std::vector<Record> &records)
    {
        std::uint64_t freed = 0;
        for (std::size_t i = 0; i < records.size(); ++i) {
            const std::uint32_t block = dest_[i];
            if (block == kDestRetired) {
                ++freed;
                continue;
            }
            if (block == kDestEmigrant) {
                ++freed;
                emigrants_.push_back(std::move(records[i]));
                continue;
            }
            pool_->park(block, records[i]);
            scheduler_->add_walker(block);
            if (spill_) {
                spill_->park(block, 1);
            }
        }
        pool_->retire_n(freed);
    }

    void
    finalize(util::MemoryBudget &budget, double cpu_seconds,
             const PrefetchPipeline::Stats &pipeline)
    {
        // The pipeline accounts every consumed response — including
        // speculative loads demoted unprocessed — so its totals are
        // the run's I/O attribution, even when other engines read the
        // same device or a shared cache serves some loads.
        stats_.blocks_loaded = pipeline.coarse_loads;
        stats_.fine_loads = pipeline.fine_loads;
        stats_.cache_hit_blocks = pipeline.cache_hit_loads;
        // Every coarse load probes the attached cache, so the misses
        // are exactly the coarse loads that were not hits (fine loads
        // bypass the cache).  Without a cache there is nothing to miss.
        stats_.cache_miss_blocks =
            shared_cache_ != nullptr
                ? pipeline.coarse_loads - pipeline.cache_hit_loads
                : 0;
        stats_.prefetch_hits = pipeline.prefetch_hits;
        stats_.prefetch_mispredicts = pipeline.prefetch_mispredicts;
        stats_.io_wait_seconds = pipeline.io_wait_seconds;
        stats_.graph_bytes_read = pipeline.bytes_read;
        stats_.graph_read_requests = pipeline.read_requests;
        stats_.io_busy_seconds = pipeline.modeled_io_seconds;
        stats_.edges_loaded =
            stats_.graph_bytes_read / file_->record_bytes();
        if (spill_) {
            stats_.swap_bytes = spill_->swap_bytes();
            stats_.io_busy_seconds +=
                swap_device_->stats().busy_seconds;
        }
        stats_.cpu_seconds = cpu_seconds;
        stats_.peak_memory = budget.peak();
        if (presamples_ != nullptr) {
            stats_.presample_bytes_used = presamples_->peak_bytes();
            stats_.presample_bytes_total = presamples_->capacity();
        }
        release_run_memory();
    }

    /** Return every reservation of the run to its budget. */
    void
    release_run_memory()
    {
        presamples_.reset();
        pool_.reset();
        index_rsv_.release();
        buffer_rsv_.release();
        spec_rsv_.release();
        ps_rsv_.release();
    }

    const graph::GraphFile *file_;
    const graph::BlockPartition *partition_;
    EngineConfig config_;
    App *app_ = nullptr;

    engine::RunStats stats_;
    std::uint64_t total_ = 0;
    std::uint64_t generated_ = 0;
    std::uint64_t run_seed_ = 0;
    std::uint64_t presample_seed_ = 0;
    std::optional<std::uint64_t> seed_override_;

    /** Shard-mode round state (run_records; DESIGN.md §11). */
    bool shard_mode_ = false;
    std::uint32_t owned_begin_ = 0;
    std::uint32_t owned_end_ = 0;
    /** The round's sink; valid only inside run_records. */
    const EmigrantSink *sink_ = nullptr;
    /** Emigrants merged since the last flush, in outbox order. */
    std::vector<Record> emigrants_;
    /** Pre-routed records to admit instead of generating (shard mode). */
    std::vector<Record> seed_records_;
    /** config_.presample, forced off for shard rounds (reset()). */
    bool presample_enabled_ = false;

    util::MemoryBudget *shared_budget_ = nullptr;
    storage::SharedBlockCache *shared_cache_ = nullptr;

    util::MemoryBudget unbudgeted_{0};
    bool single_buffer_ = false;
    /** Speculative lookahead slots after budget auto-shrink (§10). */
    std::size_t prefetch_slots_ = 0;
    /** Scratch for top_up_speculation's exclusion list. */
    std::vector<std::uint32_t> exclude_scratch_;
    /** The round's requests (a prefix of width build_round returns),
     *  reused with their vectors' capacity from round to round. */
    std::vector<storage::AsyncLoader::Request> round_;
    /** build_round's heat heap and plan_segments' page scratch. */
    std::vector<std::uint32_t> heat_scratch_;
    util::Bitmap plan_pages_;
    /** The bucket being processed; take_bucket swaps its emptied
     *  storage back into the pool's bucket. */
    std::vector<Record> bucket_scratch_;
    util::Reservation index_rsv_;
    util::Reservation buffer_rsv_;
    /** Extra speculation buffers beyond the baseline pair (§10). */
    util::Reservation spec_rsv_;
    /** Up-front global claim backing the pre-sample pool (§10). */
    util::Reservation ps_rsv_;

    /** Persistent private step pool (survives reset/finalize so the
     *  hire cost is paid once per engine, not per run). */
    std::unique_ptr<util::ThreadPool> owned_pool_;
    util::ThreadPool *external_pool_ = nullptr;
    util::ThreadPool *step_pool_ = nullptr;

    std::unique_ptr<WalkerPool<Record>> pool_;
    std::unique_ptr<BlockScheduler> scheduler_;
    /** Per-slot fate the step kernel banks for step_records' batch: a
     *  destination block, kDestRetired or kDestEmigrant. */
    std::vector<std::uint32_t> dest_;
    /** Pre-sample buffers; null when pre-sampling is off.  Its cap
     *  never varies with prefetch depth (§10). */
    std::unique_ptr<PreSamplePool> presamples_;

    std::unique_ptr<storage::MemDevice> swap_device_;
    std::unique_ptr<engine::WalkerSpill> spill_;
};

} // namespace noswalker::core
