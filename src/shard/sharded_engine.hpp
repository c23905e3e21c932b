/**
 * @file
 * Sharded scale-out engine: N NosWalker engines over one graph, each
 * owning a contiguous block range, a private modeled device, and a 1/N
 * slice of the memory budget, stepping concurrently on a fork-join
 * pool (DESIGN.md §11).
 *
 * Execution proceeds in rounds.  Each round, every shard with waiting
 * walkers runs its engine to local quiescence: walkers whose next
 * vertex another shard owns are handed back as emigrants instead of
 * parking.  The emigrants are exchanged as batched per-(src,dst)
 * consignments (MigrationExchange) and become the next round's
 * inboxes.  The round ends when no shard holds a walker.
 *
 * With shard_overlap (the default), shards do not sit on their
 * emigrants until the barrier: the engine flushes each block bucket's
 * emigrants through an EmigrantSink as the bucket drains, the sink
 * posts them to the exchange tagged with a per-shard flush sequence,
 * and opportunistically stages already-posted consignments from other
 * shards while its own engine is still stepping.  The wire time of a
 * flush then overlaps the remainder of the round, and only the
 * residual the stepping could not hide is charged as
 * migration_wait_seconds (the hidden part lands in
 * migration_overlap_seconds).  Staged immigrants are admitted at the
 * round boundary in (dst, src, flush-seq) order, which per (src,dst)
 * pair reconstructs the src shard's outbox order exactly — so the
 * walker set entering round r+1 is byte-identical to the hard-barrier
 * version (shard_overlap = false), and so is every trajectory.
 *
 * Determinism: every walker carries its private SplitMix64 stream
 * (engine::Stepped) across migrations, streams are derived exactly as
 * the plain engine derives them, and pre-sampling — the one mechanism
 * whose output depends on load timing — is off for shard rounds
 * unless shard_presample opts into the deterministic shard-local
 * variant (then output is a pure function of (seed, shard plan)).  By
 * default a trajectory is a pure function of (seed, walker id, graph):
 * endpoints and visit counts are bit-identical across {1, 2, N}
 * shards, any step-thread count, barrier or overlapped migration, and
 * any shard→thread placement.
 *
 * Modeled time: shards run concurrently, so each round contributes the
 * *maximum* of the per-shard I/O / CPU / wait phases; raw counters
 * sum.  Exchanges are priced per flush event by the same
 * MigrationCostModel the KnightKing baseline uses; the k-th of a
 * shard's K flush events gets a hiding window proportional to the
 * round span left after it ((K-1-k)/K), tail flushes (posted at
 * quiescence) get none — which makes barrier mode, whose single post
 * is all tail, degenerate to charging the full exchange cost as wait,
 * exactly as before.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/noswalker_engine.hpp"
#include "engine/app.hpp"
#include "engine/run_stats.hpp"
#include "engine/walker.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "shard/migration_cost.hpp"
#include "shard/migration_exchange.hpp"
#include "shard/shard_device.hpp"
#include "shard/shard_plan.hpp"
#include "util/memory_budget.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace noswalker::shard {

/**
 * Partitioned multi-engine walk executor with deterministic batched
 * walker migration.
 *
 * @tparam App  a RandomWalkApp whose state is safe to step from
 *              multiple shard threads at once (per-walker output
 *              slots, atomic shared counters — the same contract as
 *              multi-threaded stepping in the plain engine).
 */
template <engine::RandomWalkApp App>
class ShardedEngine {
  public:
    using WalkerT = typename App::WalkerT;
    using Record = engine::Stepped<WalkerT>;
    using Engine = core::NosWalkerEngine<App>;

    /** Wire cost of barrier exchanges; shared with the KnightKing
     *  baseline via shard/migration_cost.hpp.  Adjust before run(). */
    MigrationCostModel cost_model;

    /**
     * @param file  the on-disk graph (base byte store; each shard
     *              reads it through a private modeled device).
     * @param partition  1-D block partition of @p file.
     * @param config  engine configuration; num_shards picks the shard
     *                count (clamped to the block count), memory_budget
     *                is sliced 1/N per shard.
     */
    ShardedEngine(const graph::GraphFile &file,
                  const graph::BlockPartition &partition,
                  core::EngineConfig config)
        : file_(&file), partition_(&partition), config_(config),
          plan_(partition, std::max(1u, config.num_shards)),
          shard_pool_(plan_.num_shards() - 1)
    {
        config_.validate();
        build_shards();
    }

    /**
     * Share one budget across every shard engine (walk-service mode)
     * instead of the private 1/N slices.  Pass nullptr to revert.
     */
    void
    set_shared_budget(util::MemoryBudget *budget)
    {
        shared_budget_ = budget;
        for (Shard &shard : shards_) {
            shard.engine->set_shared_budget(
                budget != nullptr ? budget : shard.budget.get());
        }
    }

    /** Serve coarse loads through a cache shared across shards. */
    void
    set_shared_cache(storage::SharedBlockCache *cache)
    {
        for (Shard &shard : shards_) {
            shard.engine->set_shared_cache(cache);
        }
    }

    /**
     * Step every shard's blocks on one external pool (the walk
     * service's).  The pool serializes concurrent engines, so shards
     * then interleave stepping instead of running it in parallel —
     * safe, and output-identical (per-walker streams).
     */
    void
    set_step_pool(util::ThreadPool *pool)
    {
        for (Shard &shard : shards_) {
            shard.engine->set_step_pool(pool);
        }
    }

    /** Shards actually planned (num_shards clamped to the blocks). */
    unsigned num_shards() const { return plan_.num_shards(); }

    /** The block assignment. */
    const ShardPlan &plan() const { return plan_; }

    /** Migration rounds of the last run. */
    std::uint64_t rounds() const { return rounds_; }

    /** Conservation counters of the last run's exchange. */
    const ExchangeCounters &exchange_counters() const { return exchange_; }

    /** Per-shard lifetime totals of the last run (bench reporting). */
    const std::vector<engine::RunStats> &
    shard_stats() const
    {
        return shard_totals_;
    }

    engine::RunStats
    run(App &app, std::uint64_t total_walkers)
    {
        return run(app, total_walkers, config_.seed);
    }

    /**
     * Execute @p total_walkers walkers of @p app to completion across
     * the shards, seeding streams from @p seed exactly as the plain
     * engine would.
     */
    engine::RunStats
    run(App &app, std::uint64_t total_walkers, std::uint64_t seed)
    {
        util::Timer wall;
        const unsigned n = plan_.num_shards();
        rounds_ = 0;
        exchange_ = ExchangeCounters{};
        shard_totals_.assign(n, engine::RunStats{});

        engine::RunStats total;
        total.engine = "ShardedNosWalker";
        total.pipelined = true;
        total.io_efficiency = core::kAsyncIoEfficiency;

        // Generate and route every walker up front: the router needs
        // each start vertex, and the record (walker + stream) must be
        // identical to what the plain engine would generate.  Seeding
        // is locality-aware: each walker starts on the shard that owns
        // its start vertex's block (ShardPlan::assign_walker), so
        // round 1 opens with zero migrations.
        std::vector<std::vector<Record>> inbox(n);
        for (std::uint64_t id = 0; id < total_walkers; ++id) {
            Record rec = engine::seed_record(app, id, seed);
            const unsigned owner = plan_.assign_walker(
                *partition_, engine::waiting_vertex(app, rec.w));
            inbox[owner].push_back(std::move(rec));
        }

        MigrationExchange<Record> exchange;
        std::vector<engine::RunStats> round_stats(n);
        // Per-round, per-shard flush machinery.  events[s] and
        // flush_seq[s] are touched only by shard s's pool thread during
        // the round and read by the orchestrator after the fork-join
        // barrier; staged_ collects consignments drained mid-round by
        // any shard thread and needs the mutex.
        std::vector<std::vector<FlushEvent>> events(n);
        std::vector<std::uint64_t> flush_seq(n, 0);
        std::vector<MigrationBatch<Record>> staged;
        std::mutex staged_mutex;
        const bool overlap = config_.shard_overlap && n > 1;
        if (overlap) {
            for (unsigned s = 0; s < n; ++s) {
                shards_[s].engine->set_emigrant_sink(
                    [this, &app, &exchange, &events, &flush_seq, &staged,
                     &staged_mutex, s](std::vector<Record> &&out) {
                        const FlushEvent e = bucket_and_post(
                            app, exchange, s, std::move(out),
                            flush_seq[s]++, false);
                        if (e.batches > 0) {
                            events[s].push_back(e);
                        }
                        // Stage consignments other shards already
                        // posted while this shard is still stepping.
                        std::vector<MigrationBatch<Record>> drained =
                            exchange.collect();
                        if (!drained.empty()) {
                            std::lock_guard<std::mutex> lock(
                                staged_mutex);
                            staged.insert(
                                staged.end(),
                                std::make_move_iterator(drained.begin()),
                                std::make_move_iterator(drained.end()));
                        }
                    });
            }
        }

        const auto live = [&] {
            for (const std::vector<Record> &box : inbox) {
                if (!box.empty()) {
                    return true;
                }
            }
            return false;
        };

        while (live()) {
            ++rounds_;
            for (engine::RunStats &rs : round_stats) {
                rs = engine::RunStats{};
            }
            for (unsigned s = 0; s < n; ++s) {
                events[s].clear();
                flush_seq[s] = 0;
            }
            // Fork: each shard runs its engine to local quiescence,
            // flushing emigrants through its sink along the way
            // (overlap mode), and posts any residue as a tail flush.
            // The pool's run() is the barrier.
            shard_pool_.run(n, [&](std::size_t s) {
                if (inbox[s].empty()) {
                    return;
                }
                std::vector<Record> records = std::move(inbox[s]);
                inbox[s].clear();
                std::vector<Record> emigrants;
                const ShardRange &range = plan_.shard(
                    static_cast<unsigned>(s));
                round_stats[s] = shards_[s].engine->run_records(
                    app, std::move(records), seed, range.first_block,
                    range.end_block, &emigrants);
                const FlushEvent tail = bucket_and_post(
                    app, exchange, static_cast<std::uint32_t>(s),
                    std::move(emigrants), flush_seq[s]++, true);
                if (tail.batches > 0) {
                    events[s].push_back(tail);
                }
            });
            const double round_span =
                aggregate_round(total, round_stats);
            charge_round_exchange(total, events, round_span, n);

            // Barrier passed: merge the staging pool with whatever is
            // still in the exchange, restore the deterministic
            // admission order, and deliver.  Per (src,dst) pair the
            // seq-ascending concatenation is the src shard's outbox
            // order, so the inboxes are byte-identical to the ones a
            // single barrier post would have produced.
            std::vector<MigrationBatch<Record>> batches =
                exchange.collect();
            {
                std::lock_guard<std::mutex> lock(staged_mutex);
                batches.insert(batches.end(),
                               std::make_move_iterator(staged.begin()),
                               std::make_move_iterator(staged.end()));
                staged.clear();
            }
            std::sort(batches.begin(), batches.end(),
                      MigrationExchange<Record>::admission_order);
            for (MigrationBatch<Record> &batch : batches) {
                std::vector<Record> &dst = inbox[batch.dst];
                dst.insert(dst.end(),
                           std::make_move_iterator(batch.records.begin()),
                           std::make_move_iterator(batch.records.end()));
            }
        }
        if (overlap) {
            for (Shard &shard : shards_) {
                shard.engine->set_emigrant_sink(nullptr);
            }
        }
        exchange.assert_conserved();
        exchange.close();
        exchange_ = exchange.counters();

        finalize_totals(total);
        total.wall_seconds = wall.seconds();
        return total;
    }

  private:
    struct Shard {
        std::unique_ptr<ShardDevice> device;
        std::unique_ptr<graph::GraphFile> file;
        /** Private 1/N budget slice (bypassed in shared-budget mode). */
        std::unique_ptr<util::MemoryBudget> budget;
        std::unique_ptr<Engine> engine;
    };

    void
    build_shards()
    {
        const unsigned n = plan_.num_shards();
        const std::uint64_t slice =
            config_.memory_budget == 0 ? 0 : config_.memory_budget / n;
        core::EngineConfig shard_config = config_;
        shard_config.num_shards = 1;
        // The budget is attached explicitly (slice or shared); the
        // engine-local cap is unused.
        shard_config.memory_budget = 0;
        shards_.reserve(n);
        for (unsigned s = 0; s < n; ++s) {
            Shard shard;
            shard.device = std::make_unique<ShardDevice>(
                file_->device(), file_->device().model());
            shard.file =
                std::make_unique<graph::GraphFile>(*shard.device);
            shard.budget = std::make_unique<util::MemoryBudget>(slice);
            shard.engine = std::make_unique<Engine>(
                *shard.file, *partition_, shard_config);
            shard.engine->set_shared_budget(shard.budget.get());
            shards_.push_back(std::move(shard));
        }
    }

    /** One emigrant flush posted to the exchange: the unit the cost
     *  model prices and windows (DESIGN.md §11). */
    struct FlushEvent {
        std::uint64_t records = 0;
        std::uint64_t batches = 0;
        /** Posted at shard quiescence — nothing left to step behind, so
         *  the event gets no hiding window. */
        bool tail = false;
    };

    /**
     * Bucket @p emigrants by destination shard (in outbox order, via
     * ShardPlan::assign_walker) and post the non-empty batches tagged
     * with flush sequence @p seq.  Runs on the shard's thread; returns
     * the event for the caller's flush log.
     */
    FlushEvent
    bucket_and_post(App &app, MigrationExchange<Record> &exchange,
                    std::uint32_t src, std::vector<Record> emigrants,
                    std::uint64_t seq, bool tail)
    {
        FlushEvent event;
        event.tail = tail;
        if (emigrants.empty()) {
            return event;
        }
        const unsigned n = plan_.num_shards();
        std::vector<std::vector<Record>> by_dst(n);
        for (Record &rec : emigrants) {
            const unsigned owner = plan_.assign_walker(
                *partition_, engine::waiting_vertex(app, rec.w));
            by_dst[owner].push_back(std::move(rec));
        }
        std::vector<MigrationBatch<Record>> out;
        for (std::uint32_t d = 0; d < n; ++d) {
            if (by_dst[d].empty()) {
                continue;
            }
            MigrationBatch<Record> batch;
            batch.src = src;
            batch.dst = d;
            batch.round = rounds_;
            batch.seq = seq;
            event.records += by_dst[d].size();
            batch.records = std::move(by_dst[d]);
            out.push_back(std::move(batch));
        }
        event.batches = out.size();
        exchange.post(std::move(out));
        return event;
    }

    /**
     * Price one round's flush events.  Each event costs
     * flush_seconds(records, batches, n); the k-th (0-indexed) of a
     * shard's K events gets a hiding window of (K-1-k)/K of the round
     * span — flushes posted early in the round have nearly the whole
     * round of stepping left to hide behind, the last one has none —
     * and tail events (posted at quiescence) get no window at all.
     * The hidden portion min(cost, window) lands in
     * migration_overlap_seconds; only the residual is charged as
     * migration_wait_seconds.  Barrier mode posts a single tail event
     * per shard, so everything is residual and the charge equals the
     * old full-cost barrier accounting (the model is linear in records
     * and batches).
     */
    void
    charge_round_exchange(
        engine::RunStats &total,
        const std::vector<std::vector<FlushEvent>> &events,
        double round_span, unsigned n)
    {
        for (const std::vector<FlushEvent> &shard_events : events) {
            const std::size_t count = shard_events.size();
            for (std::size_t k = 0; k < count; ++k) {
                const FlushEvent &e = shard_events[k];
                total.migrations += e.records;
                total.migration_batches += e.batches;
                const double cost = cost_model.flush_seconds(
                    e.records, e.batches, n);
                const double window =
                    e.tail ? 0.0
                           : round_span *
                                 static_cast<double>(count - 1 - k) /
                                 static_cast<double>(count);
                const double hidden = std::min(cost, window);
                total.migration_wait_seconds += cost - hidden;
                total.migration_overlap_seconds += hidden;
            }
        }
    }

    /**
     * Fold one round into @p total: counters sum across shards; the
     * time phases take the per-round maximum (shards run those phases
     * concurrently) and the maxima sum across rounds.  Returns the
     * round span — the modeled seconds the round's stepping occupies,
     * max(io/eff, cpu) + wait, i.e. the budget overlapped flushes can
     * hide behind.
     */
    double
    aggregate_round(engine::RunStats &total,
                    const std::vector<engine::RunStats> &round_stats)
    {
        double cpu = 0.0;
        double io = 0.0;
        double wait = 0.0;
        for (const engine::RunStats &s : round_stats) {
            cpu = std::max(cpu, s.cpu_seconds);
            io = std::max(io, s.io_busy_seconds);
            wait = std::max(wait, s.io_wait_seconds);
            // Counters fold through operator+=; the phases join as
            // maxima below, and the sharded record keeps its own label
            // and I/O efficiency (an idle shard reports the defaults).
            engine::RunStats counters = s;
            counters.engine.clear();
            counters.io_efficiency = total.io_efficiency;
            counters.cpu_seconds = 0.0;
            counters.io_busy_seconds = 0.0;
            counters.io_wait_seconds = 0.0;
            total += counters;
        }
        total.cpu_seconds += cpu;
        total.io_busy_seconds += io;
        total.io_wait_seconds += wait;
        for (std::size_t s = 0; s < round_stats.size(); ++s) {
            shard_totals_[s] += round_stats[s];
        }
        return std::max(io / core::kAsyncIoEfficiency, cpu) + wait;
    }

    void
    finalize_totals(engine::RunStats &total)
    {
        if (shared_budget_ != nullptr) {
            total.peak_memory = shared_budget_->peak();
            return;
        }
        // Private slices are held simultaneously: the footprint is
        // their sum (each slice's peak is monotone across rounds).
        std::uint64_t peak = 0;
        for (const Shard &shard : shards_) {
            peak += shard.budget->peak();
        }
        total.peak_memory = peak;
    }

    const graph::GraphFile *file_;
    const graph::BlockPartition *partition_;
    core::EngineConfig config_;
    ShardPlan plan_;
    /** Fork-join pool for the shard round (distinct from the engines'
     *  step pools: nested run() on one pool would deadlock). */
    util::ThreadPool shard_pool_;
    std::vector<Shard> shards_;
    util::MemoryBudget *shared_budget_ = nullptr;

    std::uint64_t rounds_ = 0;
    ExchangeCounters exchange_;
    std::vector<engine::RunStats> shard_totals_;
};

} // namespace noswalker::shard
