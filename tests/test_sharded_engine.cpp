/**
 * @file
 * The tentpole guarantee of the shard subsystem (DESIGN.md §11): walk
 * output is bit-identical across {1,2,4} shards × {1,8} step threads —
 * trajectories are pure functions of (seed, walker id, graph), and the
 * per-walker stream travels with the walker through every migration.
 *
 * Also covered: migration conservation (every walker posted across a
 * shard boundary is delivered; none leak at close), budget slicing by
 * need, the modeled multi-device speedup on an I/O-bound run, the
 * per-bucket migration flushes (wire time hidden behind stepping, conserved
 * against the one-shot price), migration traffic repeating across
 * runs and step-thread counts, locality-aware seeding, two-shard wave
 * balancing at seeding, per-shard totals priced like the run, the
 * per-shard index charge, walkers retiring on another shard's dead
 * end without migrating, and pre-sampling staying out of shard rounds.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/noswalker_engine.hpp"
#include "engine/app.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "shard/shard_plan.hpp"
#include "shard/sharded_engine.hpp"
#include "storage/mem_device.hpp"

namespace noswalker {
namespace {

using testing_support::ConcurrentRecordingWalk;
using testing_support::RecordingNode2Vec;

class ShardedEngineTest : public testing::Test {
  protected:
    void
    SetUp() override
    {
        graph_ = graph::generate_rmat(
            {.scale = 9, .edge_factor = 8, .a = 0.57, .b = 0.19,
             .c = 0.19, .seed = 23, .symmetrize = true,
             .weighted = false});
        graph::GraphFile::write(graph_, device_);
        file_ = std::make_unique<graph::GraphFile>(device_);
        partition_ = std::make_unique<graph::BlockPartition>(
            *file_, file_->edge_region_bytes() / 8);
    }

    core::EngineConfig
    config(unsigned shards, unsigned threads) const
    {
        core::EngineConfig cfg =
            core::EngineConfig::full(0, partition_->max_block_bytes());
        cfg.num_shards = shards;
        cfg.step_threads = threads;
        return cfg;
    }

    /** Walkers per shard under locality seeding alone (the owner of
     *  each walker's start vertex), as ShardedEngine::run seeds. */
    template <typename App>
    std::vector<std::uint64_t>
    locality_counts(App &app, const shard::ShardPlan &plan,
                    std::uint64_t walkers, std::uint64_t seed) const
    {
        std::vector<std::uint64_t> counts(plan.num_shards(), 0);
        for (std::uint64_t id = 0; id < walkers; ++id) {
            const auto rec = engine::seed_record(app, id, seed);
            ++counts[plan.assign_walker(
                *partition_, engine::waiting_vertex(app, rec.w))];
        }
        return counts;
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
};

TEST_F(ShardedEngineTest, PlanIsContiguousAndByteBalanced)
{
    const shard::ShardPlan plan(*partition_, 4);
    ASSERT_EQ(plan.num_shards(), 4u);
    std::uint32_t next = 0;
    for (unsigned s = 0; s < plan.num_shards(); ++s) {
        const shard::ShardRange &range = plan.shard(s);
        EXPECT_EQ(range.first_block, next);
        EXPECT_GT(range.end_block, range.first_block);
        next = range.end_block;
        for (std::uint32_t b = range.first_block; b < range.end_block;
             ++b) {
            EXPECT_EQ(plan.shard_of_block(b), s);
        }
    }
    EXPECT_EQ(next, partition_->num_blocks());

    // More shards than blocks clamps, never throws.
    const shard::ShardPlan clamped(*partition_, 1000);
    EXPECT_EQ(clamped.num_shards(), partition_->num_blocks());
}

TEST_F(ShardedEngineTest, BasicWalkBitIdenticalAcrossShardsAndThreads)
{
    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 24;
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint32_t>> visits;
    std::vector<std::uint64_t> steps;
    for (const unsigned shards : {1u, 2u, 4u}) {
        for (const unsigned threads : {1u, 8u}) {
            ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                   kWalkers);
            shard::ShardedEngine<ConcurrentRecordingWalk> eng(
                *file_, *partition_, config(shards, threads));
            const auto stats = eng.run(app, kWalkers);
            endpoints.push_back(app.endpoints);
            std::vector<std::uint32_t> v(app.visits.size());
            for (std::size_t i = 0; i < v.size(); ++i) {
                v[i] = app.visits[i].load();
            }
            visits.push_back(std::move(v));
            steps.push_back(stats.steps);
            if (shards == 1) {
                EXPECT_EQ(stats.migrations, 0u);
                EXPECT_EQ(stats.migration_wait_seconds, 0.0);
            }
        }
    }
    EXPECT_GT(steps[0], 0u);
    EXPECT_LE(steps[0], kWalkers * kLength);
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]) << "config " << t;
        EXPECT_EQ(endpoints[t], endpoints[0]) << "config " << t;
        EXPECT_EQ(visits[t], visits[0]) << "config " << t;
    }
}

TEST_F(ShardedEngineTest, MatchesPlainEngineWithPresampleOff)
{
    // The 1-shard sharded path must reproduce the plain engine
    // exactly (shard rounds run with pre-sampling off, so compare
    // against a presample-off plain run).
    constexpr std::uint64_t kWalkers = 400;
    constexpr std::uint32_t kLength = 16;

    ConcurrentRecordingWalk plain_app(kLength, file_->num_vertices(),
                                 kWalkers);
    core::EngineConfig plain_cfg = config(1, 1);
    plain_cfg.presample = false;
    core::NosWalkerEngine<ConcurrentRecordingWalk> plain(*file_, *partition_,
                                                    plain_cfg);
    plain.run(plain_app, kWalkers);

    for (const unsigned shards : {1u, 4u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(), kWalkers);
        shard::ShardedEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, config(shards, 2));
        eng.run(app, kWalkers);
        EXPECT_EQ(app.endpoints, plain_app.endpoints)
            << shards << " shards";
    }
}

TEST_F(ShardedEngineTest, Node2VecBitIdenticalAcrossShardsAndThreads)
{
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::uint64_t> steps;
    std::vector<std::uint64_t> trials;
    for (const unsigned shards : {1u, 2u, 4u}) {
        for (const unsigned threads : {1u, 8u}) {
            RecordingNode2Vec app(2.0, 0.5, 12,
                                       file_->num_vertices(), 2);
            shard::ShardedEngine<RecordingNode2Vec> eng(
                *file_, *partition_, config(shards, threads));
            const auto stats = eng.run(app, app.total_walkers());
            endpoints.push_back(app.endpoints);
            steps.push_back(stats.steps);
            trials.push_back(stats.rejection_trials);
        }
    }
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]) << "config " << t;
        EXPECT_EQ(trials[t], trials[0]) << "config " << t;
        EXPECT_EQ(endpoints[t], endpoints[0]) << "config " << t;
    }
}

TEST_F(ShardedEngineTest, MigrationConservationNoLeaksAtClose)
{
    constexpr std::uint64_t kWalkers = 500;
    constexpr std::uint32_t kLength = 20;
    ConcurrentRecordingWalk app(kLength, file_->num_vertices(), kWalkers);
    shard::ShardedEngine<ConcurrentRecordingWalk> eng(*file_, *partition_,
                                                 config(4, 2));
    const auto stats = eng.run(app, kWalkers);

    // Every generated walker retires exactly once, on some shard.
    EXPECT_EQ(stats.walkers, kWalkers);

    // Conservation: walkers out == walkers in, and the exchange is
    // fully drained at close.
    const shard::ExchangeCounters &xc = eng.exchange_counters();
    EXPECT_EQ(xc.posted_records, xc.delivered_records);
    EXPECT_EQ(xc.posted_batches, xc.delivered_batches);
    EXPECT_EQ(stats.migrations, xc.delivered_records);
    EXPECT_EQ(stats.migration_batches, xc.delivered_batches);

    // An rmat graph at 4 shards crosses boundaries constantly.
    EXPECT_GT(stats.migrations, 0u);
    EXPECT_GT(stats.migration_batches, 0u);
    EXPECT_GT(stats.migration_wait_seconds, 0.0);
    EXPECT_GT(eng.rounds(), 1u);

    // Per-shard totals cover exactly the global retirements/steps.
    std::uint64_t shard_walkers = 0;
    std::uint64_t shard_steps = 0;
    for (const engine::RunStats &s : eng.shard_stats()) {
        shard_walkers += s.walkers;
        shard_steps += s.steps;
    }
    EXPECT_EQ(shard_walkers, kWalkers);
    EXPECT_EQ(shard_steps, stats.steps);
}

TEST_F(ShardedEngineTest, KernelCountersSumOverShards)
{
    // Regression: the round fold once summed a hand-written field list
    // that left out the kernel counters, so a sharded run reported
    // kernel_cohorts = 0 while its shards stepped through the kernel.
    constexpr std::uint64_t kWalkers = 400;
    ConcurrentRecordingWalk app(16, file_->num_vertices(), kWalkers);
    shard::ShardedEngine<ConcurrentRecordingWalk> eng(*file_, *partition_,
                                                 config(2, 1));
    const auto stats = eng.run(app, kWalkers);

    std::uint64_t cohorts = 0;
    std::uint64_t prefetches = 0;
    for (const engine::RunStats &s : eng.shard_stats()) {
        cohorts += s.kernel_cohorts;
        prefetches += s.kernel_prefetches;
    }
    EXPECT_GT(cohorts, 0u);
    EXPECT_EQ(stats.kernel_cohorts, cohorts);
    EXPECT_EQ(stats.kernel_prefetches, prefetches);
    EXPECT_EQ(stats.engine, "ShardedNosWalker");
}

TEST_F(ShardedEngineTest, SlicedBudgetMatchesUnbudgetedRun)
{
    constexpr std::uint64_t kWalkers = 300;
    constexpr std::uint32_t kLength = 12;

    ConcurrentRecordingWalk free_app(kLength, file_->num_vertices(),
                                kWalkers);
    shard::ShardedEngine<ConcurrentRecordingWalk> free_eng(
        *file_, *partition_, config(2, 2));
    free_eng.run(free_app, kWalkers);

    ConcurrentRecordingWalk tight_app(kLength, file_->num_vertices(),
                                 kWalkers);
    core::EngineConfig tight = config(2, 2);
    // Each shard gets a genuinely bounded 1/N slice that still clears
    // the per-engine floor.
    tight.memory_budget =
        2 * testing_support::tight_budget(*file_, *partition_);
    shard::ShardedEngine<ConcurrentRecordingWalk> tight_eng(
        *file_, *partition_, tight);
    const auto stats = tight_eng.run(tight_app, kWalkers);

    EXPECT_EQ(tight_app.endpoints, free_app.endpoints);
    EXPECT_GT(stats.peak_memory, 0u);
    EXPECT_LE(stats.peak_memory, tight.memory_budget);
}

TEST_F(ShardedEngineTest, RerunRepeatsAcrossPlacements)
{
    // Shard→thread placement inside the fork-join pool is dynamic;
    // repeated runs of one engine must still agree bit for bit, at any
    // step-thread count.  Trajectories do not depend on inbox order,
    // so the traffic pins it.  An uncapped walker pool admits a whole
    // inbox at once, and its counters follow the walker set alone; a
    // capped pool admits in inbox order, so which walkers share a
    // bucket, and hence migration_batches, follow the admission order.
    constexpr std::uint64_t kWalkers = 300;
    for (const std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{16}}) {
        std::vector<graph::VertexId> endpoints;
        std::uint64_t rounds = 0;
        std::uint64_t migrations = 0;
        std::uint64_t batches = 0;
        for (const unsigned threads : {1u, 8u}) {
            core::EngineConfig cfg = config(4, threads);
            cfg.max_walkers = cap;
            shard::ShardedEngine<ConcurrentRecordingWalk> eng(
                *file_, *partition_, cfg);
            for (int rep = 0; rep < 3; ++rep) {
                ConcurrentRecordingWalk app(10, file_->num_vertices(),
                                            kWalkers);
                const auto stats = eng.run(app, kWalkers);
                if (endpoints.empty()) {
                    endpoints = app.endpoints;
                    rounds = eng.rounds();
                    migrations = stats.migrations;
                    batches = stats.migration_batches;
                    EXPECT_GT(batches, 0u);
                    continue;
                }
                SCOPED_TRACE(testing::Message()
                             << "cap " << cap << " threads " << threads
                             << " run " << rep);
                EXPECT_EQ(app.endpoints, endpoints);
                EXPECT_EQ(eng.rounds(), rounds);
                EXPECT_EQ(stats.migrations, migrations);
                EXPECT_EQ(stats.migration_batches, batches);
            }
        }
    }
}

TEST_F(ShardedEngineTest, ModeledSpeedupWithPrivateDevices)
{
    // On an I/O-bound run (device bandwidth scaled down to the paper's
    // regime) the per-round I/O maximum shrinks as shards split the
    // byte volume across private modeled devices.
    storage::SsdModel slow = storage::SsdModel::p4618();
    slow.seq_bandwidth /= 2048.0;
    slow.iops /= 2048.0;
    storage::MemDevice slow_device(slow);
    graph::GraphFile::write(graph_, slow_device);
    graph::GraphFile slow_file(slow_device);
    graph::BlockPartition slow_partition(
        slow_file, slow_file.edge_region_bytes() / 8);

    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 16;
    std::vector<double> modeled;
    std::vector<graph::VertexId> reference;
    for (const unsigned shards : {1u, 4u}) {
        ConcurrentRecordingWalk app(kLength, slow_file.num_vertices(),
                               kWalkers);
        core::EngineConfig cfg = core::EngineConfig::full(
            0, slow_partition.max_block_bytes());
        cfg.num_shards = shards;
        shard::ShardedEngine<ConcurrentRecordingWalk> eng(
            slow_file, slow_partition, cfg);
        const auto stats = eng.run(app, kWalkers);
        modeled.push_back(stats.modeled_seconds());
        if (reference.empty()) {
            reference = app.endpoints;
        } else {
            EXPECT_EQ(app.endpoints, reference);
        }
    }
    EXPECT_LT(modeled[1], modeled[0]);
}

TEST_F(ShardedEngineTest, TwoShardDenseSeedingBalancesTheWaves)
{
    // With two shards a live walker changes shard at every barrier, so
    // the walkers seeded on each shard form a wave that takes turns
    // with the other.  A dense run admits at most ceil(W/2) of a
    // shard's seeded walkers in round 1; the rest head that shard's
    // round-2 inbox and so join the other wave.  The rmat graph's
    // low, high-degree vertices fill the first shard's byte half with
    // few vertices, so locality seeding alone is skewed.
    const std::uint64_t walkers = 2ULL * file_->num_vertices();
    const std::uint64_t half = (walkers + 1) / 2;
    constexpr std::uint32_t kLength = 10;

    ConcurrentRecordingWalk plain_app(kLength, file_->num_vertices(),
                                      walkers);
    core::EngineConfig plain_cfg = config(1, 1);
    plain_cfg.presample = false;
    core::NosWalkerEngine<ConcurrentRecordingWalk> plain(
        *file_, *partition_, plain_cfg);
    plain.run(plain_app, walkers);

    std::vector<std::uint64_t> seeded;
    std::uint64_t rounds = 0;
    std::uint64_t migrations = 0;
    std::uint64_t batches = 0;
    for (const unsigned threads : {1u, 8u}) {
        const core::EngineConfig cfg = config(2, threads);
        shard::ShardedEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, cfg);
        ASSERT_EQ(eng.num_shards(), 2u);
        for (int rep = 0; rep < 3; ++rep) {
            SCOPED_TRACE(testing::Message()
                         << "threads " << threads << " run " << rep);
            ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                        walkers);
            if (seeded.empty()) {
                seeded = locality_counts(app, eng.plan(), walkers,
                                         cfg.seed);
                ASSERT_GT(std::max(seeded[0], seeded[1]), half + 16);
            }
            const auto stats = eng.run(app, walkers);
            EXPECT_EQ(app.endpoints, plain_app.endpoints);
            EXPECT_EQ(stats.walkers, walkers);

            // Round 1: the heavy shard admits exactly ceil(W/2), the
            // light one its locality count; the heavy shard's excess
            // opens its round-2 inbox.  The two waves are then
            // ceil(W/2) and floor(W/2).
            const auto &log = eng.round_log();
            ASSERT_GE(log.size(), 2u);
            const unsigned heavy = seeded[0] > seeded[1] ? 0u : 1u;
            const unsigned light = 1u - heavy;
            EXPECT_EQ(log[0][heavy].admitted, half);
            EXPECT_EQ(log[0][light].admitted, seeded[light]);
            const std::uint64_t other_wave =
                walkers - log[0][heavy].admitted;
            EXPECT_LE(log[0][heavy].admitted - other_wave, 1u);
            EXPECT_GE(log[1][heavy].admitted, seeded[heavy] - half);

            if (rounds == 0) {
                rounds = eng.rounds();
                migrations = stats.migrations;
                batches = stats.migration_batches;
                EXPECT_GT(batches, 0u);
                continue;
            }
            EXPECT_EQ(eng.rounds(), rounds);
            EXPECT_EQ(stats.migrations, migrations);
            EXPECT_EQ(stats.migration_batches, batches);
        }
    }
}

TEST_F(ShardedEngineTest, SparseOrWideRunsSeedByLocality)
{
    // Wave balancing needs both two shards and a dense run: a sparse
    // two-shard run and a dense four-shard run admit every seeded
    // walker in round 1, on the shard that owns its start vertex.
    const std::uint64_t dense = 2ULL * file_->num_vertices();
    const std::uint64_t sparse = file_->num_vertices() - 1;
    for (const auto &[shards, walkers] :
         {std::pair{2u, sparse}, std::pair{4u, dense}}) {
        SCOPED_TRACE(testing::Message()
                     << shards << " shards, " << walkers << " walkers");
        const core::EngineConfig cfg = config(shards, 2);
        ConcurrentRecordingWalk app(10, file_->num_vertices(), walkers);
        shard::ShardedEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, cfg);
        const std::vector<std::uint64_t> seeded =
            locality_counts(app, eng.plan(), walkers, cfg.seed);
        eng.run(app, walkers);
        ASSERT_FALSE(eng.round_log().empty());
        const std::vector<shard::ShardRound> &first =
            eng.round_log().front();
        ASSERT_EQ(first.size(), seeded.size());
        for (std::size_t s = 0; s < seeded.size(); ++s) {
            EXPECT_EQ(first[s].admitted, seeded[s]) << "shard " << s;
        }
    }
}

TEST_F(ShardedEngineTest, ShardTotalsPriceLikeTheRun)
{
    // Per-shard totals carry the run's label, I/O efficiency and
    // pipelined pricing, so one shard's total is the run itself and a
    // shard of a wider run never prices above the run.
    constexpr std::uint64_t kWalkers = 400;
    for (const unsigned shards : {1u, 2u}) {
        SCOPED_TRACE(testing::Message() << shards << " shards");
        ConcurrentRecordingWalk app(16, file_->num_vertices(), kWalkers);
        shard::ShardedEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, config(shards, 1));
        const auto stats = eng.run(app, kWalkers);
        ASSERT_EQ(eng.shard_stats().size(), shards);
        for (const engine::RunStats &s : eng.shard_stats()) {
            EXPECT_EQ(s.engine, stats.engine);
            EXPECT_EQ(s.io_efficiency, core::kAsyncIoEfficiency);
            EXPECT_TRUE(s.pipelined);
            EXPECT_LE(s.modeled_seconds(), stats.modeled_seconds());
        }
        if (shards == 1) {
            EXPECT_EQ(eng.shard_stats()[0].modeled_seconds(),
                      stats.modeled_seconds());
        }
    }
}

/** Smallest budget a shard engine over [first, end) reserves: its
 *  index charge, one aligned block buffer (single-buffer mode) and the
 *  64-walker minimum pool. */
std::uint64_t
shard_floor(const graph::GraphFile &file,
            const graph::BlockPartition &partition, std::uint32_t first,
            std::uint32_t end)
{
    const std::uint64_t page = 4096;
    const std::uint64_t aligned =
        (partition.max_block_bytes() / page + 2) * page;
    return core::index_charge(file, partition, first, end) + aligned +
           64 * sizeof(engine::Stepped<engine::Walker>);
}

TEST_F(ShardedEngineTest, TwoShardsRunUnderASliceBelowTheFullIndex)
{
    // A shard is charged only the index slice of its own blocks (plus
    // the out-edge bitmap), so a budget too small for two full index
    // copies still runs, and the walk, rounds and migrations are those
    // of a roomy run.  Each shard stays within the slice it was given.
    constexpr std::uint64_t kWalkers = 300;
    constexpr std::uint32_t kLength = 12;
    const shard::ShardPlan plan(*partition_, 2);
    ASSERT_EQ(plan.num_shards(), 2u);
    std::uint64_t slice_floor = 0;
    for (unsigned s = 0; s < 2; ++s) {
        const shard::ShardRange &range = plan.shard(s);
        EXPECT_LT(core::index_charge(*file_, *partition_,
                                     range.first_block, range.end_block),
                  file_->index_bytes());
        slice_floor = std::max(
            slice_floor, shard_floor(*file_, *partition_,
                                     range.first_block, range.end_block));
    }
    // The same floor with a full index copy per shard.
    const std::uint64_t copy_floor =
        shard_floor(*file_, *partition_, 0, partition_->num_blocks());
    ASSERT_LT(slice_floor, copy_floor);
    const std::uint64_t slice = (slice_floor + copy_floor) / 2;

    ConcurrentRecordingWalk plain_app(kLength, file_->num_vertices(),
                                      kWalkers);
    core::EngineConfig plain_cfg = config(1, 1);
    plain_cfg.presample = false;
    core::NosWalkerEngine<ConcurrentRecordingWalk> plain(
        *file_, *partition_, plain_cfg);
    plain.run(plain_app, kWalkers);

    ConcurrentRecordingWalk roomy_app(kLength, file_->num_vertices(),
                                      kWalkers);
    shard::ShardedEngine<ConcurrentRecordingWalk> roomy(
        *file_, *partition_, config(2, 2));
    const auto roomy_stats = roomy.run(roomy_app, kWalkers);

    ConcurrentRecordingWalk app(kLength, file_->num_vertices(), kWalkers);
    core::EngineConfig cfg = config(2, 2);
    cfg.memory_budget = 2 * slice;
    shard::ShardedEngine<ConcurrentRecordingWalk> eng(*file_, *partition_,
                                                      cfg);
    const auto stats = eng.run(app, kWalkers);
    EXPECT_EQ(app.endpoints, plain_app.endpoints);
    EXPECT_EQ(stats.walkers, kWalkers);
    EXPECT_EQ(eng.rounds(), roomy.rounds());
    EXPECT_EQ(stats.migrations, roomy_stats.migrations);
    EXPECT_GT(stats.migrations, 0u);
    std::uint64_t slices = 0;
    for (unsigned s = 0; s < 2; ++s) {
        EXPECT_LE(eng.shard_stats()[s].peak_memory, eng.budget_slice(s));
        slices += eng.budget_slice(s);
    }
    EXPECT_LE(slices, cfg.memory_budget);
}

TEST_F(ShardedEngineTest, BudgetSplitsByNeed)
{
    // Each shard's slice is its single-buffer floor — the index charge
    // of its own range plus one page-aligned block buffer — and an
    // equal share of the rest of the budget.
    const shard::ShardPlan plan(*partition_, 2);
    const std::uint64_t aligned =
        (partition_->max_block_bytes() / 4096 + 2) * 4096;
    std::vector<std::uint64_t> need;
    for (unsigned s = 0; s < 2; ++s) {
        need.push_back(core::index_charge(*file_, *partition_,
                                          plan.shard(s).first_block,
                                          plan.shard(s).end_block) +
                       aligned);
    }
    ASSERT_NE(need[0], need[1]);
    core::EngineConfig cfg = config(2, 1);
    cfg.memory_budget = 2 * testing_support::tight_budget(*file_, *partition_);
    const std::uint64_t spare = (cfg.memory_budget - need[0] - need[1]) / 2;
    shard::ShardedEngine<ConcurrentRecordingWalk> eng(*file_, *partition_,
                                                      cfg);
    EXPECT_EQ(eng.budget_slice(0), need[0] + spare);
    EXPECT_EQ(eng.budget_slice(1), need[1] + spare);
    EXPECT_LE(eng.budget_slice(0) + eng.budget_slice(1), cfg.memory_budget);

    ConcurrentRecordingWalk app(12, file_->num_vertices(), 300);
    eng.run(app, 300);
    for (unsigned s = 0; s < 2; ++s) {
        EXPECT_LE(eng.shard_stats()[s].peak_memory, eng.budget_slice(s));
    }

    // No budget, no slices.
    shard::ShardedEngine<ConcurrentRecordingWalk> free_eng(
        *file_, *partition_, config(2, 1));
    EXPECT_EQ(free_eng.budget_slice(0), 0u);
    EXPECT_EQ(free_eng.budget_slice(1), 0u);
}

TEST_F(ShardedEngineTest, OneShardChargesLikeThePlainEngine)
{
    // One shard owns every vertex: it is charged the whole index and
    // no bitmap, so its footprint is the plain engine's.
    constexpr std::uint64_t kWalkers = 300;
    const std::uint64_t budget =
        testing_support::tight_budget(*file_, *partition_);
    EXPECT_EQ(core::index_charge(*file_, *partition_, 0,
                                 partition_->num_blocks()),
              file_->index_bytes());

    ConcurrentRecordingWalk plain_app(12, file_->num_vertices(), kWalkers);
    core::EngineConfig plain_cfg = config(1, 1);
    plain_cfg.presample = false;
    plain_cfg.memory_budget = budget;
    core::NosWalkerEngine<ConcurrentRecordingWalk> plain(
        *file_, *partition_, plain_cfg);
    const auto plain_stats = plain.run(plain_app, kWalkers);

    ConcurrentRecordingWalk app(12, file_->num_vertices(), kWalkers);
    core::EngineConfig cfg = config(1, 1);
    cfg.memory_budget = budget;
    shard::ShardedEngine<ConcurrentRecordingWalk> eng(*file_, *partition_,
                                                      cfg);
    eng.run(app, kWalkers);
    ASSERT_EQ(eng.shard_stats().size(), 1u);
    EXPECT_GT(plain_stats.peak_memory, file_->index_bytes());
    EXPECT_EQ(eng.shard_stats()[0].peak_memory, plain_stats.peak_memory);
    EXPECT_EQ(app.endpoints, plain_app.endpoints);
}

/** Uniform walk recording every walker's path, start vertex first.
 *  Each walker writes only its own slot, so shard threads never share
 *  one. */
class PathWalk {
  public:
    using WalkerT = engine::Walker;

    PathWalk(std::uint32_t length, graph::VertexId num_vertices,
             std::uint64_t num_walkers)
        : paths(num_walkers), length_(length), num_vertices_(num_vertices)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        const auto start = static_cast<graph::VertexId>(
            util::SplitMix64(n * 31 + 5).next() % num_vertices_);
        paths[n] = {start};
        return WalkerT{n, start, 0};
    }

    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return view.sample_uniform(rng);
    }

    bool active(const WalkerT &w) const { return w.step < length_; }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &)
    {
        paths[w.id].push_back(next);
        w.location = next;
        ++w.step;
        return true;
    }

    std::vector<std::vector<graph::VertexId>> paths;

  private:
    std::uint32_t length_;
    graph::VertexId num_vertices_;
};

TEST_F(ShardedEngineTest, OffShardDeadEndRetiresWithoutMigrating)
{
    // The degree check a shard answers from its out-edge bitmap: a
    // walker that lands on another shard's vertex with no out-edges
    // retires where it is.  Left vertices [0, 128) point at left
    // vertices, at right vertices with out-edges [128, 192) and at
    // right dead ends [192, 256); right vertices with out-edges point
    // back left.  Equal edge bytes on each side split the two shards
    // between left and right.
    constexpr graph::VertexId kLeft = 128;
    constexpr graph::VertexId kDeadBegin = 192;
    constexpr graph::VertexId kVertices = 256;
    std::vector<graph::EdgeIndex> offsets{0};
    std::vector<graph::VertexId> targets;
    for (graph::VertexId u = 0; u < kVertices; ++u) {
        if (u < kLeft) {
            for (const graph::VertexId t :
                 {(u + 1) % kLeft, (u + 17) % kLeft, (u + 33) % kLeft,
                  (u + 65) % kLeft, kLeft + u % 64,
                  kLeft + (7 * u + 3) % 64, kDeadBegin + u % 64,
                  kDeadBegin + (5 * u + 1) % 64}) {
                targets.push_back(t);
            }
        } else if (u < kDeadBegin) {
            for (graph::VertexId k = 0; k < 16; ++k) {
                targets.push_back((u * 3 + 11 * k) % kLeft);
            }
        }
        offsets.push_back(targets.size());
    }
    const graph::CsrGraph g(std::move(offsets), std::move(targets));
    storage::MemDevice device;
    graph::GraphFile::write(g, device);
    const graph::GraphFile file(device);
    const graph::BlockPartition partition(file,
                                          file.edge_region_bytes() / 8);

    constexpr std::uint64_t kWalkers = 400;
    constexpr std::uint32_t kLength = 12;
    core::EngineConfig cfg =
        core::EngineConfig::full(0, partition.max_block_bytes());
    cfg.num_shards = 2;
    cfg.step_threads = 2;
    PathWalk app(kLength, kVertices, kWalkers);
    shard::ShardedEngine<PathWalk> eng(file, partition, cfg);
    ASSERT_EQ(eng.num_shards(), 2u);
    const auto stats = eng.run(app, kWalkers);

    const auto shard_of = [&](graph::VertexId v) {
        return eng.plan().assign_walker(partition, v);
    };
    // A walker emigrates after a step that crosses shards unless the
    // step ends its walk or lands on a dead end.
    std::uint64_t crossings_to_live = 0;
    std::uint64_t crossings_to_dead = 0;
    for (const std::vector<graph::VertexId> &path : app.paths) {
        for (std::size_t k = 1; k < path.size(); ++k) {
            if (shard_of(path[k - 1]) == shard_of(path[k]) ||
                k == kLength) {
                continue;
            }
            if (g.degree(path[k]) == 0) {
                ++crossings_to_dead;
            } else {
                ++crossings_to_live;
            }
        }
    }
    EXPECT_GT(crossings_to_dead, 0u);
    EXPECT_GT(crossings_to_live, 0u);
    EXPECT_EQ(stats.migrations, crossings_to_live);
}

class MigrationOverlapTest : public ShardedEngineTest {};

TEST_F(MigrationOverlapTest, OverlapHidesWaitOnSlowDevice)
{
    // I/O-bound regime: the round span is long, so per-bucket flushes
    // have plenty of stepping to hide behind.
    storage::SsdModel slow = storage::SsdModel::p4618();
    slow.seq_bandwidth /= 2048.0;
    slow.iops /= 2048.0;
    storage::MemDevice slow_device(slow);
    graph::GraphFile::write(graph_, slow_device);
    graph::GraphFile slow_file(slow_device);
    graph::BlockPartition slow_partition(
        slow_file, slow_file.edge_region_bytes() / 8);

    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 16;
    ConcurrentRecordingWalk app(kLength, slow_file.num_vertices(),
                                kWalkers);
    core::EngineConfig cfg = core::EngineConfig::full(
        0, slow_partition.max_block_bytes());
    cfg.num_shards = 4;
    cfg.step_threads = 2;
    shard::ShardedEngine<ConcurrentRecordingWalk> eng(
        slow_file, slow_partition, cfg);
    const engine::RunStats stats = eng.run(app, kWalkers);
    EXPECT_GT(stats.migrations, 0u);

    // The price of the run's whole traffic in one exchange.  Early
    // flushes hide a visible portion of it, so the charged wait is
    // strictly below it.
    const double full = eng.cost_model.exchange_seconds(
        stats.migrations, stats.migration_batches, eng.num_shards());
    EXPECT_GT(stats.migration_overlap_seconds, 0.0);
    EXPECT_LT(stats.migration_wait_seconds, full);
    // The model is linear in records and batches, so the per-event
    // charges (hidden + residual) sum to the one-shot price.
    EXPECT_NEAR(stats.migration_wait_seconds +
                    stats.migration_overlap_seconds,
                full, 1e-9 * full);
}

TEST_F(MigrationOverlapTest, LocalitySeedingStartsWalkersOnOwnerShard)
{
    const shard::ShardPlan plan(*partition_, 4);
    for (graph::VertexId v = 0; v < file_->num_vertices(); v += 7) {
        EXPECT_EQ(plan.assign_walker(*partition_, v),
                  plan.shard_of_block(partition_->block_of(v)));
    }

    // Zero-length walkers retire where they were seeded: locality
    // seeding means round 1 exists and nothing ever migrates.
    ConcurrentRecordingWalk app(0, file_->num_vertices(), 400);
    shard::ShardedEngine<ConcurrentRecordingWalk> eng(
        *file_, *partition_, config(4, 2));
    const auto stats = eng.run(app, 400);
    EXPECT_EQ(stats.migrations, 0u);
    EXPECT_EQ(stats.migration_wait_seconds, 0.0);
    EXPECT_EQ(eng.rounds(), 1u);
    EXPECT_EQ(stats.walkers, 400u);
}

class ShardedPresampleOffTest : public ShardedEngineTest {};

TEST_F(ShardedPresampleOffTest, OffByDefaultInShardRounds)
{
    // The cross-shard-count bit-identity contract of num_shards keeps
    // pre-sampling out of shard rounds: no step is served from a
    // reservoir, and no reservoir is ever sized.
    ConcurrentRecordingWalk app(16, file_->num_vertices(), 400);
    shard::ShardedEngine<ConcurrentRecordingWalk> eng(
        *file_, *partition_, config(2, 2));
    const auto stats = eng.run(app, 400);
    EXPECT_EQ(stats.presample_steps, 0u);
    EXPECT_EQ(stats.presample_bytes_total, 0u);
}

} // namespace
} // namespace noswalker
