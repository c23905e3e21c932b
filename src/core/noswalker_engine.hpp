/**
 * @file
 * The NosWalker engine: decoupled, walker-oriented out-of-core random
 * walk processing (paper §3, Algorithm 1/3).
 *
 * Architecture (Figure 6): a background loader thread streams the
 * hottest blocks into block buffers (①); walkers are generated
 * adaptively so their states never touch disk (②); walkers are moved
 * first from the currently loaded block, then from reserved pre-sample
 * buffers (③); and pre-sample buffers are (re)built from each loaded
 * block with visit-history-proportional quotas (④).
 *
 * Intra-block compute is parallel: each loaded block's bucket is
 * sharded across `EngineConfig::step_threads` workers on a persistent
 * util::ThreadPool.  Every walker carries a private SplitMix64 stream
 * derived from (run seed, walker id), so trajectories are a pure
 * function of the seed — walk output is bit-identical at 1, 2, or N
 * step threads.  Workers bank each walker's outcome in place — the
 * record in its input slot, its fate in a parallel dest array — and
 * count into thread-local StepDelta records; after the shard barrier
 * the scheduler thread folds the deltas and parks the banked records
 * in one index-order pass, keeping BlockScheduler and WalkerPool
 * single-writer.
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
     * instead of a run-local budget, and per-run I/O counters are
     * accumulated locally instead of from shared device deltas.
     * Pass nullptr to detach.
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

    /** Per-bucket emigrant consignment sink (overlapped shard
     *  migration, DESIGN.md §11).  Invoked on the engine's scheduler
     *  thread at deterministic flush points — after each processed
     *  bucket's merge — with the emigrants accumulated since the last
     *  flush, in outbox order.  Must not re-enter the engine. */
    using EmigrantSink = std::function<void(std::vector<Record> &&)>;

    /**
     * Route shard-mode emigrants through @p sink incrementally instead
     * of accumulating them all in the run_records out-vector; records
     * still pending at quiescence stay in the out-vector (the caller's
     * final flush).  Pass nullptr to restore barrier behaviour.  Only
     * consulted in shard mode; never changes walk output — it only
     * moves already-merged records out of the engine earlier.
     */
    void set_emigrant_sink(EmigrantSink sink)
    {
        emigrant_sink_ = std::move(sink);
    }

    /**
     * Shard-mode entry (one migration round of shard::ShardedEngine):
     * execute exactly the pre-generated @p records, treating only
     * blocks in [@p first_block, @p end_block) as local.  A record
     * whose waiting vertex falls outside the local range is not
     * stepped; it is appended to @p emigrants (with its live RNG
     * stream) for the caller to route to the owning shard.
     *
     * Pre-sampling defaults off for the round: reservoir contents
     * depend on refill timing, which varies with the shard count, and
     * would break the cross-shard bit-identity contract (DESIGN.md
     * §11).  config_.shard_presample re-enables it with shard-local
     * reservoirs whose contents are a pure function of (seed, shard
     * plan).  Per-walker streams are untouched by migration, so each
     * trajectory stays a pure function of (seed, walker id, graph).
     */
    engine::RunStats
    run_records(App &app, std::vector<Record> records, std::uint64_t seed,
                std::uint32_t first_block, std::uint32_t end_block,
                std::vector<Record> *emigrants)
    {
        if (emigrants == nullptr || first_block >= end_block ||
            end_block > partition_->num_blocks()) {
            throw util::ConfigError(
                "run_records: bad shard block range or null emigrants");
        }
        shard_mode_ = true;
        owned_begin_ = first_block;
        owned_end_ = end_block;
        emigrants_out_ = emigrants;
        seed_records_ = std::move(records);
        seed_override_ = seed;
        const std::uint64_t total = seed_records_.size();
        engine::RunStats out;
        try {
            out = run(app, total);
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
        setup(budget, total_walkers);

        storage::BlockReader reader(*file_, unbudgeted_, 8ULL << 20,
                                    shared_cache_);
        storage::BlockBufferPool buffer_pool;
        storage::AsyncLoader loader(
            reader, config_.loader_threads > 0 && !single_buffer_,
            std::max<std::size_t>(prefetch_slots_, 1), &buffer_pool);
        PrefetchPipeline pipeline(
            loader, reader, buffer_pool, prefetch_slots_, shared_cache_,
            file_->device().model().queue_latency);
        const storage::IoStats io_before = file_->device().stats();

        App &a = app;
        util::Timer cpu;
        double cpu_seconds = 0.0;

        // Prime the pool so the scheduler has work.
        cpu.reset();
        admit_walkers(a, nullptr);
        cpu_seconds += cpu.seconds();

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
            // The processed block is always the hottest at choice time
            // — a pure function of (seed, app, graph), never of the
            // prefetch depth.  Speculation only changes how its bytes
            // arrive, so walk output is bit-identical at every depth.
            auto response = pipeline.obtain(make_request(target));

            cpu.reset();
            if (scheduler_->count(target) > 0) {
                process_block(a, response);
            } else {
                // Stale load: walkers left before the bytes arrived.
                ++stats_.stalls;
            }
            admit_walkers(a, &response);
            cpu_seconds += cpu.seconds();
            // Per-bucket flush point (§11): every emigrant merged by
            // this iteration ships now, while later buckets still step.
            flush_emigrants();

            pipeline.recycle(std::move(response.buffer));
            pipeline.sweep(*scheduler_);

            // Nominate the lookahead *after* this round's parking: the
            // scheduler counts now decide the next rounds' targets, so
            // the top-K picks are exactly the blocks about to be
            // chosen and the next obtain is served from the pipeline.
            top_up_speculation(pipeline);
        }
        pipeline.finish();

        finalize(budget, io_before, cpu_seconds, pipeline.stats());
        stats_.wall_seconds = wall.seconds();
        return stats_;
    }

  private:
    /** The step loop (DESIGN.md §12) reads the engine's per-round
     *  state: residency, pre-sample buffers, shard ownership. */
    template <typename E>
    friend class StepKernel;

    /**
     * One step worker's private counters, folded into the engine by
     * apply_delta() on the scheduler thread after the shard barrier.
     * The walkers themselves are banked in place (step_records).
     */
    struct StepDelta {
        std::uint64_t steps = 0;
        std::uint64_t block_steps = 0;
        std::uint64_t presample_steps = 0;
        std::uint64_t stalls = 0;
        std::uint64_t retired = 0;
        std::uint64_t rejection_trials = 0;
        std::uint64_t rejection_rejected = 0;
        std::uint64_t kernel_cohorts = 0;
        std::uint64_t kernel_prefetches = 0;
        std::uint64_t kernel_scalar_fallbacks = 0;
        /** Shard mode: walkers whose waiting block another shard owns. */
        std::uint64_t emigrants = 0;
    };

    /**
     * Hand the emigrants accumulated since the last flush to the sink
     * (overlapped shard migration).  Scheduler thread only, after the
     * merge barrier — the records are final and in outbox order.  A
     * no-op without a sink (barrier mode): everything stays in the
     * run_records out-vector for the caller's single post.
     */
    void
    flush_emigrants()
    {
        if (!emigrant_sink_ || emigrants_out_ == nullptr ||
            emigrants_out_->empty()) {
            return;
        }
        std::vector<Record> out;
        out.swap(*emigrants_out_);
        emigrant_sink_(std::move(out));
    }

    void
    exit_shard_mode()
    {
        shard_mode_ = false;
        owned_begin_ = 0;
        owned_end_ = 0;
        emigrants_out_ = nullptr;
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
        // Shard rounds pre-sample only when shard_presample opts in:
        // reservoir contents vary with the shard count, so the default
        // preserves cross-shard-count bit-identity (§11).
        presample_enabled_ =
            config_.presample &&
            (!shard_mode_ || config_.shard_presample);
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
        local_io_bytes_ = 0;
        local_io_requests_ = 0;
        local_io_seconds_ = 0.0;
    }

    /** Reserve the fixed memory regions and create the components. */
    void
    setup(util::MemoryBudget &budget, std::uint64_t total)
    {
        // CSR index stays in memory (§3.3.1).
        index_rsv_ = util::Reservation(budget, file_->index_bytes(),
                                       "csr index");

        // Resident block buffers: the depth-independent baseline of
        // two (the block being processed plus one lookahead, as in
        // double buffering), charged once up front — the buffer pool
        // recycles the storage, so the high-water mark is the whole
        // charge.  Extra speculative slots are reserved *last*, from
        // whatever the walker pool and pre-sample pool leave over, so
        // the walker cap and pre-sample sizing — and therefore the
        // walk schedule — never depend on prefetch_depth.
        const std::uint64_t page = storage::BlockReader::kPageBytes;
        const std::uint64_t aligned =
            (partition_->max_block_bytes() / page + 2) * page;
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
            static_cast<std::uint32_t>(page));

        if (config_.walker_management) {
            std::uint64_t cap = config_.max_walkers;
            if (cap == 0) {
                const std::uint64_t by_budget =
                    budget.limit() == 0
                        ? std::uint64_t{1} << 18
                        : static_cast<std::uint64_t>(
                              config_.walker_memory_fraction *
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
                          config_.walker_memory_fraction *
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
            params.max_quota = config_.max_presamples_per_vertex;
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
        budget_ = &budget;
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

    storage::AsyncLoader::Request
    make_request(std::uint32_t block)
    {
        storage::AsyncLoader::Request request;
        request.block = &partition_->block(block);
        request.fine = config_.shrink_block &&
                       scheduler_->fine_mode(pool_->live());
        if (request.fine) {
            request.needed.reserve(pool_->parked(block));
            for (const Record &rec : peek_bucket(block)) {
                request.needed.push_back(
                    engine::waiting_vertex(*app_, rec.w));
            }
        }
        return request;
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
            emigrants_out_->push_back(std::move(rec));
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
        std::vector<Record> bucket = pool_->take_bucket(id);
        scheduler_->remove_walkers(id, bucket.size());
        if (spill_) {
            spill_->retire(id, bucket.size());
        }
        step_records(app, bucket, &response);
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
        if (shards <= 1) {
            StepDelta delta;
            step_span(app, records, 0, records.size(), resp, delta);
            apply_delta(delta);
        } else {
            std::vector<StepDelta> deltas(shards);
            const std::size_t per =
                (records.size() + shards - 1) / shards;
            step_pool_->run(shards, [&](std::size_t s) {
                const std::size_t begin = s * per;
                const std::size_t end =
                    std::min(records.size(), begin + per);
                step_span(app, records, begin, end, resp, deltas[s]);
            });
            for (const StepDelta &delta : deltas) {
                apply_delta(delta);
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
              StepDelta &delta)
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

    /** Fold one worker's counters into the engine (scheduler thread). */
    void
    apply_delta(const StepDelta &delta)
    {
        stats_.steps += delta.steps;
        stats_.block_steps += delta.block_steps;
        stats_.presample_steps += delta.presample_steps;
        stats_.stalls += delta.stalls;
        stats_.rejection_trials += delta.rejection_trials;
        stats_.rejection_rejected += delta.rejection_rejected;
        stats_.kernel_cohorts += delta.kernel_cohorts;
        stats_.kernel_prefetches += delta.kernel_prefetches;
        stats_.kernel_scalar_fallbacks += delta.kernel_scalar_fallbacks;
        stats_.walkers += delta.retired;
        // Emigrants free their pool slot without retiring: their walk
        // continues on the owning shard next round.
        pool_->retire_n(delta.retired + delta.emigrants);
    }

    /**
     * Act on every banked fate in index order (scheduler thread): park
     * at the destination block, or append to the shard outbox.
     */
    void
    park_banked(std::vector<Record> &records)
    {
        for (std::size_t i = 0; i < records.size(); ++i) {
            const std::uint32_t block = dest_[i];
            if (block == kDestRetired) {
                continue;
            }
            if (block == kDestEmigrant) {
                emigrants_out_->push_back(std::move(records[i]));
                continue;
            }
            pool_->park(block, records[i]);
            scheduler_->add_walker(block);
            if (spill_) {
                spill_->park(block, 1);
            }
        }
    }

    void
    finalize(util::MemoryBudget &budget, const storage::IoStats &before,
             double cpu_seconds, const PrefetchPipeline::Stats &pipeline)
    {
        // The pipeline accounts every consumed response — including
        // speculative loads demoted unprocessed — so its totals are
        // the run's I/O attribution.
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
        local_io_bytes_ = pipeline.bytes_read;
        local_io_requests_ = pipeline.read_requests;
        local_io_seconds_ = pipeline.modeled_io_seconds;
        if (shared_budget_ != nullptr || shared_cache_ != nullptr) {
            // Device counters are shared with concurrent engines (and
            // cache hits never reach the device), so attribute I/O
            // from this run's own load results.
            stats_.graph_bytes_read = local_io_bytes_;
            stats_.graph_read_requests = local_io_requests_;
            stats_.io_busy_seconds = local_io_seconds_;
        } else {
            const storage::IoStats after = file_->device().stats();
            stats_.graph_bytes_read =
                after.bytes_read - before.bytes_read;
            stats_.graph_read_requests =
                after.read_requests - before.read_requests;
            stats_.io_busy_seconds =
                after.busy_seconds - before.busy_seconds;
        }
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
            presamples_.reset();
        }
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
    std::vector<Record> *emigrants_out_ = nullptr;
    /** Per-bucket consignment sink (overlap mode; null = barrier). */
    EmigrantSink emigrant_sink_;
    /** Pre-routed records to admit instead of generating (shard mode). */
    std::vector<Record> seed_records_;
    /** config_.presample, forced off for shard rounds (reset()). */
    bool presample_enabled_ = false;

    util::MemoryBudget *shared_budget_ = nullptr;
    storage::SharedBlockCache *shared_cache_ = nullptr;
    std::uint64_t local_io_bytes_ = 0;
    std::uint64_t local_io_requests_ = 0;
    double local_io_seconds_ = 0.0;

    util::MemoryBudget *budget_ = nullptr;
    util::MemoryBudget unbudgeted_{0};
    bool single_buffer_ = false;
    /** Speculative lookahead slots after budget auto-shrink (§10). */
    std::size_t prefetch_slots_ = 0;
    /** Scratch for top_up_speculation's exclusion list. */
    std::vector<std::uint32_t> exclude_scratch_;
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
