/**
 * @file
 * Sharded scale-out engine: N NosWalker engines over one graph, each
 * owning a contiguous block range, a private modeled device, and a
 * slice of the memory budget split by need, stepping concurrently on
 * a fork-join pool (DESIGN.md §11).
 *
 * Execution proceeds in rounds.  Each round, every shard with waiting
 * walkers runs its engine to local quiescence: walkers whose next
 * vertex another shard owns are handed back as emigrants instead of
 * parking.  The round ends at the fork-join barrier; the run ends when
 * no shard holds a walker.
 *
 * Shards do not sit on their emigrants until the barrier: the engine
 * hands each block bucket's emigrants to the shard's EmigrantSink as
 * the bucket drains, and the rest once at quiescence (the tail).  The
 * sink appends them, in flush order, to per-(src,dst) outboxes that
 * only the src shard's thread touches during the round, and logs the
 * flush.  The wire time of a flush then overlaps the remainder of the
 * round, and only the residual the stepping could not hide is charged
 * as migration_wait_seconds (the hidden part lands in
 * migration_overlap_seconds).  After the barrier each destination's
 * next-round inbox is its outboxes concatenated in src order, so the
 * walker set entering round r+1 does not depend on thread timing.
 *
 * Wave balancing: with two shards a live walker changes shard at every
 * barrier, so the walkers seeded on each shard travel as two fixed
 * waves that take turns on the shards.  A dense two-shard run (at
 * least as many walkers as vertices) therefore admits at most ⌈W/2⌉
 * of a shard's seeded walkers in round 1; the excess heads that
 * shard's round-2 inbox, i.e. joins the other wave, so both waves are
 * equal from then on (DESIGN.md §11).
 *
 * Determinism: every walker carries its private SplitMix64 stream
 * (engine::Stepped) across migrations, streams are derived exactly as
 * the plain engine derives them, and pre-sampling — the one mechanism
 * whose output depends on load timing — is off for shard rounds.  A
 * trajectory is a pure function of (seed, walker id, graph):
 * endpoints and visit counts are bit-identical across {1, 2, N}
 * shards, any step-thread count, and any shard→thread placement.
 *
 * Modeled time: shards run concurrently, so each round contributes the
 * *maximum* of the per-shard I/O / CPU / wait phases; raw counters
 * sum.  round_log() keeps each shard's admissions and span per round,
 * which shows how long a shard waited at each barrier.  Exchanges are
 * priced per flush event by the same MigrationCostModel the KnightKing
 * baseline uses; the k-th of a shard's K flush events gets a hiding
 * window proportional to the round span left after it ((K-1-k)/K),
 * and the tail flush gets none.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
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
#include "shard/shard_device.hpp"
#include "shard/shard_plan.hpp"
#include "util/error.hpp"
#include "util/memory_budget.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace noswalker::shard {

/** Conservation counters of a run's migration traffic: records and
 *  batches flushed by the src shards, and admitted by the dst shards. */
struct ExchangeCounters {
    std::uint64_t posted_records = 0;
    std::uint64_t posted_batches = 0;
    std::uint64_t delivered_records = 0;
    std::uint64_t delivered_batches = 0;
};

/** One shard's part of one round (ShardedEngine::round_log). */
struct ShardRound {
    /** Walkers in the shard's inbox when the round began. */
    std::uint64_t admitted = 0;
    /** Modeled seconds the shard's stepping occupied:
     *  max(io / eff, cpu) + io_wait.  The round lasts as long as its
     *  largest span; each other shard idles for the difference. */
    double span = 0.0;
};

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

    /** Wire cost of migration flushes; shared with the KnightKing
     *  baseline via shard/migration_cost.hpp.  Adjust before run(). */
    MigrationCostModel cost_model;

    /**
     * @param file  the on-disk graph (base byte store; each shard
     *              reads it through a private modeled device).
     * @param partition  1-D block partition of @p file.
     * @param config  engine configuration; num_shards picks the shard
     *                count (clamped to the block count), memory_budget
     *                is split by need (build_shards).
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
     * instead of the private slices.  Pass nullptr to revert.
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
    std::uint64_t rounds() const { return round_log_.size(); }

    /** The last run's rounds in order, each with one entry per shard. */
    const std::vector<std::vector<ShardRound>> &
    round_log() const
    {
        return round_log_;
    }

    /** Conservation counters of the last run's migrations. */
    const ExchangeCounters &exchange_counters() const { return exchange_; }

    /** Shard @p s's private budget slice in bytes (0 = unlimited). */
    std::uint64_t
    budget_slice(unsigned s) const
    {
        return shards_[s].budget->limit();
    }

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
        round_log_.clear();
        exchange_ = ExchangeCounters{};

        engine::RunStats total;
        total.engine = "ShardedNosWalker";
        total.pipelined = true;
        total.io_efficiency = core::kAsyncIoEfficiency;
        // Each shard's total is priced like the run's.
        shard_totals_.assign(n, total);

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
        // Two-shard wave balancing (file comment): a dense run holds a
        // shard's seeded walkers beyond ⌈W/2⌉ back to head its round-2
        // inbox.  Sparse runs (a service batch) seed few blocks, and
        // splitting them drops both shards into fine mode; with three
        // or more shards emigrants mix the waves anyway.
        std::vector<std::vector<Record>> deferred(n);
        if (n == 2 && total_walkers >= file_->num_vertices()) {
            const std::uint64_t cap = (total_walkers + 1) / 2;
            for (unsigned s = 0; s < n; ++s) {
                if (inbox[s].size() > cap) {
                    deferred[s].assign(
                        std::make_move_iterator(inbox[s].begin() + cap),
                        std::make_move_iterator(inbox[s].end()));
                    inbox[s].erase(inbox[s].begin() + cap,
                                   inbox[s].end());
                }
            }
        }

        std::vector<engine::RunStats> round_stats(n);
        // outbox[s][d] and events[s] are touched only by shard s's
        // pool thread during the round and read by the orchestrator
        // after the fork-join barrier, so no lock guards them.
        std::vector<std::vector<Outbox>> outbox(
            n, std::vector<Outbox>(n));
        std::vector<std::vector<FlushEvent>> events(n);

        const auto live = [&] {
            for (const std::vector<Record> &box : inbox) {
                if (!box.empty()) {
                    return true;
                }
            }
            return false;
        };

        while (live()) {
            std::vector<ShardRound> &this_round = round_log_.emplace_back(n);
            for (unsigned s = 0; s < n; ++s) {
                round_stats[s] = engine::RunStats{};
                this_round[s].admitted = inbox[s].size();
            }
            for (std::vector<FlushEvent> &log : events) {
                log.clear();
            }
            // Fork: each shard runs its engine to local quiescence,
            // flushing emigrants through its sink after every bucket
            // and once more, as the tail, at quiescence.  The pool's
            // run() is the barrier.
            shard_pool_.run(n, [&](std::size_t s) {
                if (inbox[s].empty()) {
                    return;
                }
                const typename Engine::EmigrantSink sink =
                    [&, s](std::vector<Record> &&out, bool tail) {
                        events[s].push_back(route_flush(
                            app, outbox[s], std::move(out), tail));
                    };
                const ShardRange &range = plan_.shard(
                    static_cast<unsigned>(s));
                round_stats[s] = shards_[s].engine->run_records(
                    app, std::move(inbox[s]), seed, range.first_block,
                    range.end_block, sink);
                inbox[s].clear();
            });
            const double round_span =
                aggregate_round(total, round_stats, this_round);
            charge_round_exchange(total, events, round_span, n);

            // Barrier passed: inbox[d] is its deferred seeds (round 1
            // only), then outbox[0][d], outbox[1][d], … in src order,
            // each in its src shard's flush order.  Every inbox was
            // drained by its round, so the swap leaves deferred empty.
            for (unsigned d = 0; d < n; ++d) {
                inbox[d].swap(deferred[d]);
                for (unsigned s = 0; s < n; ++s) {
                    Outbox &box = outbox[s][d];
                    exchange_.delivered_records += box.records.size();
                    exchange_.delivered_batches += box.batches;
                    inbox[d].insert(
                        inbox[d].end(),
                        std::make_move_iterator(box.records.begin()),
                        std::make_move_iterator(box.records.end()));
                    box.records.clear();
                    box.batches = 0;
                }
            }
        }
        NOSWALKER_CHECK(exchange_.posted_records ==
                            exchange_.delivered_records &&
                        exchange_.posted_batches ==
                            exchange_.delivered_batches);

        finalize_totals(total);
        total.wall_seconds = wall.seconds();
        return total;
    }

  private:
    struct Shard {
        std::unique_ptr<ShardDevice> device;
        std::unique_ptr<graph::GraphFile> file;
        /** Private budget slice (bypassed in shared-budget mode). */
        std::unique_ptr<util::MemoryBudget> budget;
        std::unique_ptr<Engine> engine;
    };

    void
    build_shards()
    {
        const unsigned n = plan_.num_shards();
        // Split the budget by need (DESIGN.md §11): each shard's slice
        // is its single-buffer floor and an equal share of the rest.
        // A budget below the floors' sum cannot run anyway; it splits
        // in proportion to them and the shards' setup reports the
        // shortfall.
        std::vector<std::uint64_t> slices(n, 0);
        if (config_.memory_budget != 0) {
            const std::uint64_t budget = config_.memory_budget;
            std::uint64_t total_need = 0;
            for (unsigned s = 0; s < n; ++s) {
                slices[s] = core::single_buffer_floor(
                    *file_, *partition_, plan_.shard(s).first_block,
                    plan_.shard(s).end_block);
                total_need += slices[s];
            }
            for (std::uint64_t &slice : slices) {
                slice = budget >= total_need
                            ? slice + (budget - total_need) / n
                            : slice * budget / total_need;
            }
        }
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
            shard.budget =
                std::make_unique<util::MemoryBudget>(slices[s]);
            shard.engine = std::make_unique<Engine>(
                *shard.file, *partition_, shard_config);
            shard.engine->set_shared_budget(shard.budget.get());
            shards_.push_back(std::move(shard));
        }
    }

    /** One emigrant flush: the unit the cost model prices and windows
     *  (DESIGN.md §11). */
    struct FlushEvent {
        std::uint64_t records = 0;
        /** Distinct destination shards the flush sent to. */
        std::uint64_t batches = 0;
        /** Flushed at shard quiescence — nothing left to step behind,
         *  so the event gets no hiding window. */
        bool tail = false;
    };

    /** One (src,dst) pair's emigrants of the current round. */
    struct Outbox {
        std::vector<Record> records;
        /** Flushes that sent to this pair: its batches. */
        std::uint64_t batches = 0;
        /** Whether the flush being routed already sent here. */
        bool in_flush = false;
    };

    /**
     * Append @p emigrants, in outbox order, to the src shard's
     * per-destination @p outboxes (ShardPlan::assign_walker).  Runs on
     * the src shard's thread; returns the event for its flush log.
     */
    FlushEvent
    route_flush(App &app, std::vector<Outbox> &outboxes,
                std::vector<Record> emigrants, bool tail)
    {
        FlushEvent event;
        event.records = emigrants.size();
        event.tail = tail;
        for (Record &rec : emigrants) {
            Outbox &box = outboxes[plan_.assign_walker(
                *partition_, engine::waiting_vertex(app, rec.w))];
            if (!box.in_flush) {
                box.in_flush = true;
                ++box.batches;
                ++event.batches;
            }
            box.records.push_back(std::move(rec));
        }
        for (Outbox &box : outboxes) {
            box.in_flush = false;
        }
        return event;
    }

    /**
     * Price one round's flush events.  Each event costs
     * exchange_seconds(records, batches, n); the k-th (0-indexed) of a
     * shard's K events gets a hiding window of (K-1-k)/K of the round
     * span — flushes posted early in the round have nearly the whole
     * round of stepping left to hide behind, the last one has none —
     * and the tail event (posted at quiescence) gets no window at all.
     * The hidden portion min(cost, window) lands in
     * migration_overlap_seconds; only the residual is charged as
     * migration_wait_seconds.  The model is linear in records and
     * batches, so wait + overlap sums to the one-shot price of the
     * round's traffic.
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
                exchange_.posted_records += e.records;
                exchange_.posted_batches += e.batches;
                const double cost = cost_model.exchange_seconds(
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
     * hide behind.  Each shard's own span goes to @p this_round.
     */
    double
    aggregate_round(engine::RunStats &total,
                    const std::vector<engine::RunStats> &round_stats,
                    std::vector<ShardRound> &this_round)
    {
        double cpu = 0.0;
        double io = 0.0;
        double wait = 0.0;
        for (std::size_t s = 0; s < round_stats.size(); ++s) {
            // The sharded records keep their own label and I/O
            // efficiency (an idle shard reports the defaults).
            engine::RunStats counters = round_stats[s];
            counters.engine.clear();
            counters.io_efficiency = total.io_efficiency;
            shard_totals_[s] += counters;
            this_round[s].span =
                std::max(counters.io_busy_seconds /
                             core::kAsyncIoEfficiency,
                         counters.cpu_seconds) +
                counters.io_wait_seconds;
            cpu = std::max(cpu, counters.cpu_seconds);
            io = std::max(io, counters.io_busy_seconds);
            wait = std::max(wait, counters.io_wait_seconds);
            // Counters fold through operator+=; the phases join as
            // maxima below.
            counters.cpu_seconds = 0.0;
            counters.io_busy_seconds = 0.0;
            counters.io_wait_seconds = 0.0;
            total += counters;
        }
        total.cpu_seconds += cpu;
        total.io_busy_seconds += io;
        total.io_wait_seconds += wait;
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

    std::vector<std::vector<ShardRound>> round_log_;
    ExchangeCounters exchange_;
    std::vector<engine::RunStats> shard_totals_;
};

} // namespace noswalker::shard
