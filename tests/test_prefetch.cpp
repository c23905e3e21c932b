/**
 * @file
 * The tentpole guarantee of the depth-K prefetch pipeline: walk output
 * is bit-identical at every prefetch depth and step-thread count,
 * because the engine always processes the scheduler's hottest block —
 * speculation only changes how its bytes arrive (DESIGN.md §10).
 *
 * Also covers the satellite mechanics: the modeled io-wait drop with
 * depth, the FIFO stall charge, the misprediction demote/re-steer
 * path, output stability against a cold vs warm shared cache, FIFO
 * completion order of the depth-K loader in both threading modes, the
 * inline rule (a demand load with nothing outstanding runs on the
 * calling thread, and the loader thread starts only for lookahead),
 * the failure path of one injected read error, and the allocation
 * churn fixes (capacity-retaining BlockBuffer, recycling pool).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/block_scheduler.hpp"
#include "core/noswalker_engine.hpp"
#include "core/prefetch_pipeline.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "probe_device.hpp"
#include "recording_app.hpp"
#include "shard/sharded_engine.hpp"
#include "storage/async_loader.hpp"
#include "storage/block_buffer_pool.hpp"
#include "storage/block_reader.hpp"
#include "storage/mem_device.hpp"
#include "storage/shared_block_cache.hpp"
#include "util/error.hpp"
#include "util/memory_budget.hpp"

namespace noswalker {
namespace {

using testing_support::ConcurrentRecordingWalk;
using testing_support::RecordingNode2Vec;

class PrefetchTest : public testing::Test {
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

    /**
     * Unlimited memory budget so prefetch_depth is honoured verbatim
     * (under a tight budget the engine auto-shrinks the depth, which
     * the budget-invariant test covers separately).
     */
    core::EngineConfig
    config(unsigned depth, unsigned threads) const
    {
        core::EngineConfig cfg = core::EngineConfig::full(
            0, partition_->max_block_bytes());
        cfg.prefetch_depth = depth;
        cfg.step_threads = threads;
        return cfg;
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
};

TEST_F(PrefetchTest, BasicWalkIsBitIdenticalAcrossDepths)
{
    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 24;
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint32_t>> visits;
    std::vector<std::uint64_t> steps;
    for (const unsigned threads : {1u, 4u}) {
        for (const unsigned depth : {0u, 1u, 2u, 4u}) {
            ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                        kWalkers);
            core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
                *file_, *partition_, config(depth, threads));
            const auto stats = eng.run(app, kWalkers);
            endpoints.push_back(app.endpoints);
            std::vector<std::uint32_t> v(app.visits.size());
            for (std::size_t i = 0; i < v.size(); ++i) {
                v[i] = app.visits[i].load();
            }
            visits.push_back(std::move(v));
            steps.push_back(stats.steps);
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

TEST_F(PrefetchTest, Node2VecIsBitIdenticalAcrossDepths)
{
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::uint64_t> steps;
    std::vector<std::uint64_t> trials;
    for (const unsigned threads : {1u, 4u}) {
        for (const unsigned depth : {0u, 2u, 4u}) {
            RecordingNode2Vec app(2.0, 0.5, 12, file_->num_vertices(), 2);
            core::NosWalkerEngine<RecordingNode2Vec> eng(
                *file_, *partition_, config(depth, threads));
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

TEST_F(PrefetchTest, SyncLoaderMatchesBackgroundLoader)
{
    // The 0-thread loader emulates the depth-K FIFO exactly, and an
    // inline demand load is charged as a queued one: the walk output,
    // the modeled stall accounting and every I/O counter are identical
    // with and without the loader thread, with and without speculation.
    constexpr std::uint64_t kWalkers = 400;
    constexpr std::uint32_t kLength = 16;
    for (const unsigned depth : {0u, 2u}) {
        std::vector<std::vector<graph::VertexId>> endpoints;
        std::vector<engine::RunStats> stats;
        for (const unsigned loader_threads : {0u, 1u}) {
            ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                        kWalkers);
            core::EngineConfig cfg = config(depth, /*threads=*/1);
            cfg.loader_threads = loader_threads;
            core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
                *file_, *partition_, cfg);
            stats.push_back(eng.run(app, kWalkers));
            endpoints.push_back(app.endpoints);
        }
        EXPECT_EQ(endpoints[1], endpoints[0]) << "depth " << depth;
        EXPECT_EQ(stats[1].prefetch_hits, stats[0].prefetch_hits)
            << "depth " << depth;
        EXPECT_EQ(stats[1].blocks_loaded, stats[0].blocks_loaded)
            << "depth " << depth;
        EXPECT_EQ(stats[1].fine_loads, stats[0].fine_loads)
            << "depth " << depth;
        EXPECT_EQ(stats[1].graph_bytes_read, stats[0].graph_bytes_read)
            << "depth " << depth;
        EXPECT_EQ(stats[1].graph_read_requests,
                  stats[0].graph_read_requests)
            << "depth " << depth;
        EXPECT_DOUBLE_EQ(stats[1].io_wait_seconds, stats[0].io_wait_seconds)
            << "depth " << depth;
        EXPECT_GT(stats[0].io_wait_seconds, 0.0) << "depth " << depth;
        if (depth > 0) {
            EXPECT_GT(stats[0].prefetch_hits, 0u);
        }
    }
}

TEST_F(PrefetchTest, IoWaitDropsWithDepth)
{
    // Depth 1 pays the queue latency on every load; depth 4 amortizes
    // it across the FIFO.  The acceptance bar is a >= 30% drop.
    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 24;
    double io_wait[2] = {0.0, 0.0};
    std::uint64_t hits4 = 0;
    int i = 0;
    for (const unsigned depth : {1u, 4u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, config(depth, /*threads=*/1));
        const auto stats = eng.run(app, kWalkers);
        io_wait[i++] = stats.io_wait_seconds;
        if (depth == 4) {
            hits4 = stats.prefetch_hits;
        }
    }
    EXPECT_GT(io_wait[0], 0.0);
    EXPECT_GT(hits4, 0u);
    EXPECT_LE(io_wait[1], 0.7 * io_wait[0])
        << "depth-4 io_wait " << io_wait[1] << " vs depth-1 "
        << io_wait[0];
}

TEST_F(PrefetchTest, PeakMemoryStaysWithinBudgetAtDepth4)
{
    // Depth auto-shrinks before the buffers can blow the block-buffer
    // share; output stays bit-identical because the processed-block
    // schedule is depth-independent.
    constexpr std::uint64_t kWalkers = 400;
    constexpr std::uint32_t kLength = 16;
    const std::uint64_t budget =
        testing_support::tight_budget(*file_, *partition_);
    std::vector<std::vector<graph::VertexId>> endpoints;
    for (const unsigned depth : {0u, 4u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::EngineConfig cfg = core::EngineConfig::full(
            budget, partition_->max_block_bytes());
        cfg.prefetch_depth = depth;
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, cfg);
        const auto stats = eng.run(app, kWalkers);
        EXPECT_LE(stats.peak_memory, budget) << "depth " << depth;
        endpoints.push_back(app.endpoints);
    }
    EXPECT_EQ(endpoints[1], endpoints[0]);
}

TEST_F(PrefetchTest, BudgetedWalkIsBitIdenticalAcrossDepths)
{
    // Regression: a mid-size budget funds extra speculation slots
    // AND keeps the pre-sample pool under eviction pressure.  The
    // speculation reservation must not shift that pressure — the
    // pre-sample pool charges its own depth-invariant sub-budget —
    // or pre-sample content (and the walk) would vary with depth.
    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 24;
    const std::uint64_t budget =
        3 * testing_support::tight_budget(*file_, *partition_);
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::uint64_t> steps;
    std::uint64_t hits4 = 0;
    for (const unsigned depth : {0u, 1u, 4u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::EngineConfig cfg = core::EngineConfig::full(
            budget, partition_->max_block_bytes());
        cfg.prefetch_depth = depth;
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, cfg);
        const auto stats = eng.run(app, kWalkers);
        EXPECT_LE(stats.peak_memory, budget) << "depth " << depth;
        endpoints.push_back(app.endpoints);
        steps.push_back(stats.steps);
        if (depth == 4) {
            hits4 = stats.prefetch_hits;
        }
    }
    EXPECT_GT(hits4, 0u) << "speculation never engaged; budget too tight";
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]) << "config " << t;
        EXPECT_EQ(endpoints[t], endpoints[0]) << "config " << t;
    }
}

TEST_F(PrefetchTest, MispredictDemotesToCacheAndResteers)
{
    // A speculatively loaded block whose bucket drains is demoted —
    // published to the shared cache and parked in the stash — never
    // discarded; a later demand for it is served without device I/O.
    util::MemoryBudget budget;
    storage::SharedBlockCache cache(1ULL << 20);
    storage::BlockReader reader(*file_, budget);
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, /*background=*/false,
                                /*depth=*/2, &pool);
    core::PrefetchPipeline pipeline(loader, reader, pool, /*depth=*/2,
                                    &cache, /*queue_latency=*/80e-6);
    core::BlockScheduler sched(partition_->num_blocks(), 4.0,
                               file_->edge_region_bytes(), 4096);
    const graph::BlockInfo &block = partition_->block(1);

    sched.add_walker(1);
    ASSERT_TRUE(pipeline.can_speculate());
    pipeline.speculate(block);
    pipeline.poll(); // sync loader: executes + banks the load
    EXPECT_TRUE(pipeline.covers(1));

    sched.remove_walker(1);
    pipeline.sweep(sched);
    EXPECT_EQ(pipeline.stats().prefetch_mispredicts, 1u);
    EXPECT_NE(cache.find(1), nullptr);
    EXPECT_TRUE(pipeline.covers(1)) << "demoted, not discarded";

    // Re-steer: the bucket re-heats and the stashed bytes serve the
    // demand without touching the device again.
    sched.add_walker(1);
    const std::uint64_t device_bytes = file_->device().stats().bytes_read;
    storage::AsyncLoader::Request demand;
    demand.block = &block;
    auto response = pipeline.obtain(std::move(demand));
    EXPECT_EQ(response.block->id, 1u);
    EXPECT_TRUE(response.buffer.complete());
    EXPECT_EQ(pipeline.stats().prefetch_hits, 1u);
    EXPECT_EQ(file_->device().stats().bytes_read, device_bytes);
    pipeline.recycle(std::move(response.buffer));
    pipeline.finish();
}

TEST_F(PrefetchTest, CachedDemandWaitsOutOlderSlowLoad)
{
    // A slow speculative load is at the FIFO head when the engine
    // demands a block the shared cache serves at once.  The one loader
    // thread completes requests in submission order, so the cache hit
    // is charged the slow load's modeled completion.
    util::MemoryBudget budget;
    storage::SharedBlockCache cache(1ULL << 20);
    storage::BlockReader reader(*file_, budget, 8ULL << 20, &cache);
    {
        // Pre-populate the cache with block 2 (published on miss).
        storage::BlockBuffer warm;
        reader.load_coarse(partition_->block(2), warm);
        warm.release_storage();
    }
    ASSERT_NE(cache.find(2), nullptr);
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, /*background=*/false,
                                /*depth=*/2, &pool);
    constexpr double kQueueLatency = 80e-6;
    core::PrefetchPipeline pipeline(loader, reader, pool, /*depth=*/2,
                                    &cache, kQueueLatency);
    pipeline.speculate(partition_->block(1)); // slow device load
    storage::AsyncLoader::Request demand;
    demand.block = &partition_->block(2); // cache hit, zero I/O
    auto response = pipeline.obtain(std::move(demand));
    EXPECT_EQ(response.block->id, 2u);
    EXPECT_TRUE(response.result.from_cache);
    const double io_wait = pipeline.stats().io_wait_seconds;
    pipeline.recycle(std::move(response.buffer));

    // The slow load is already banked; serving it reveals its modeled
    // completion (submitted at 0 on an idle device) and charges no
    // more.
    storage::AsyncLoader::Request slow;
    slow.block = &partition_->block(1);
    auto head = pipeline.obtain(std::move(slow));
    ASSERT_FALSE(head.result.from_cache);
    EXPECT_GT(io_wait, 0.0) << "FIFO must wait out the slow head";
    EXPECT_DOUBLE_EQ(io_wait,
                     kQueueLatency + head.result.modeled_seconds);
    EXPECT_DOUBLE_EQ(pipeline.stats().io_wait_seconds, io_wait);
    pipeline.recycle(std::move(head.buffer));
    pipeline.finish();
}

TEST_F(PrefetchTest, ColdVsWarmCacheKeepsOutputStable)
{
    // A warm shared cache changes where a load's bytes come from, never
    // which block the engine processes, so the walk must not move.
    constexpr std::uint64_t kWalkers = 400;
    constexpr std::uint32_t kLength = 16;
    storage::SharedBlockCache cache(32ULL << 20);
    std::vector<std::vector<graph::VertexId>> endpoints;
    engine::RunStats cold;
    engine::RunStats warm;
    for (int pass = 0; pass < 2; ++pass) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, config(/*depth=*/4, /*threads=*/1));
        eng.set_shared_cache(&cache);
        const auto stats = eng.run(app, kWalkers);
        endpoints.push_back(app.endpoints);
        (pass == 0 ? cold : warm) = stats;
    }
    EXPECT_EQ(endpoints[1], endpoints[0]);
    EXPECT_GT(cold.cache_miss_blocks, 0u) << "cold pass reads the device";
    EXPECT_GT(warm.cache_hit_blocks, 0u) << "warm pass hits the cache";
    EXPECT_EQ(warm.cache_hit_blocks + warm.cache_miss_blocks,
              warm.blocks_loaded)
        << "every coarse load is a hit or a miss";
    EXPECT_LE(warm.cache_miss_blocks, cold.cache_miss_blocks);
}

// Prefetch depth 4, the deepest lookahead the suites run: the walk
// does not move across step threads or shards, and the plan counters
// RunStats still reports (left from a retired load planner) stay 0.
using PrefetchDepthEngineTest = PrefetchTest;

void
expect_no_plan_counters(const engine::RunStats &stats)
{
    EXPECT_EQ(stats.planned_loads, 0u) << "greedy path must not plan";
    EXPECT_EQ(stats.plan_rescores, 0u);
    EXPECT_EQ(stats.plan_cache_credits, 0u);
}

TEST_F(PrefetchDepthEngineTest, WalkIsBitIdenticalAcrossPlanWindows)
{
    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 24;
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint32_t>> visits;
    std::vector<std::uint64_t> steps;
    for (const unsigned threads : {1u, 8u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, config(/*depth=*/4, threads));
        const auto stats = eng.run(app, kWalkers);
        endpoints.push_back(app.endpoints);
        std::vector<std::uint32_t> v(app.visits.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
            v[i] = app.visits[i].load();
        }
        visits.push_back(std::move(v));
        steps.push_back(stats.steps);
        expect_no_plan_counters(stats);
    }
    EXPECT_GT(steps[0], 0u);
    EXPECT_EQ(steps[1], steps[0]);
    EXPECT_EQ(endpoints[1], endpoints[0]);
    EXPECT_EQ(visits[1], visits[0]);
}

TEST_F(PrefetchDepthEngineTest, Node2VecIsBitIdenticalAcrossPlanWindows)
{
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::uint64_t> steps;
    for (const unsigned threads : {1u, 8u}) {
        RecordingNode2Vec app(2.0, 0.5, 12, file_->num_vertices(), 2);
        core::NosWalkerEngine<RecordingNode2Vec> eng(
            *file_, *partition_, config(/*depth=*/4, threads));
        const auto stats = eng.run(app, app.total_walkers());
        endpoints.push_back(app.endpoints);
        steps.push_back(stats.steps);
        expect_no_plan_counters(stats);
    }
    EXPECT_EQ(steps[1], steps[0]);
    EXPECT_EQ(endpoints[1], endpoints[0]);
}

TEST_F(PrefetchDepthEngineTest, ShardedWalkBitIdenticalAcrossPlanWindows)
{
    constexpr std::uint64_t kWalkers = 400;
    constexpr std::uint32_t kLength = 16;
    std::vector<std::vector<graph::VertexId>> endpoints;
    for (const unsigned shards : {1u, 2u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::EngineConfig cfg = config(/*depth=*/4, /*threads=*/1);
        cfg.num_shards = shards;
        shard::ShardedEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, cfg);
        const auto stats = eng.run(app, kWalkers);
        endpoints.push_back(app.endpoints);
        expect_no_plan_counters(stats);
    }
    EXPECT_EQ(endpoints[1], endpoints[0]);
}

TEST_F(PrefetchTest, SweepAdmissionFilterSkipsStaleDemotions)
{
    // ROADMAP item 2: a demoted block whose scheduler heat is older
    // than kAdmissionSweeps sweeps stays out of the shared cache (it
    // would only dilute hot service tenants) but is still stashed for
    // a re-steer, and the filtered demotion is counted.
    util::MemoryBudget budget;
    storage::SharedBlockCache cache(1ULL << 20);
    storage::BlockReader reader(*file_, budget);
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, /*background=*/false,
                                /*depth=*/2, &pool);
    core::PrefetchPipeline pipeline(loader, reader, pool, /*depth=*/2,
                                    &cache, /*queue_latency=*/80e-6);
    core::BlockScheduler sched(partition_->num_blocks(), 4.0,
                               file_->edge_region_bytes(), 4096);

    sched.add_walker(1);
    pipeline.speculate(partition_->block(1));
    sched.remove_walker(1);
    // The load stays unbanked (no poll), so sweeps pass it over while
    // its speculation-time heat goes stale.
    for (std::uint64_t i = 0; i <= core::PrefetchPipeline::kAdmissionSweeps;
         ++i) {
        pipeline.sweep(sched);
    }
    pipeline.poll(); // sync loader: executes + banks the load
    pipeline.sweep(sched);
    EXPECT_EQ(pipeline.stats().prefetch_mispredicts, 1u);
    EXPECT_EQ(pipeline.stats().filtered_demotions, 1u);
    EXPECT_EQ(cache.find(1), nullptr) << "stale block must not publish";
    EXPECT_TRUE(pipeline.covers(1)) << "still stashed for a re-steer";
    pipeline.finish();
}

TEST_F(PrefetchTest, AsyncLoaderConsumesCompletionsOutOfOrder)
{
    // The loader completes tickets in submission order, yet the engine
    // may consume them in any order: obtain() banks the older loads on
    // its way to the target, and later demands for them are served from
    // the bank without new I/O and without a further stall charge.
    // Identical in both threading modes.
    util::MemoryBudget budget;
    storage::BlockReader reader(*file_, budget);
    ASSERT_GE(partition_->num_blocks(), 3u);
    for (const bool background : {false, true}) {
        storage::BlockBufferPool pool;
        storage::AsyncLoader loader(reader, background, /*depth=*/3,
                                    &pool);
        core::PrefetchPipeline pipeline(loader, reader, pool, /*depth=*/3,
                                        nullptr, /*queue_latency=*/80e-6);
        for (const std::uint32_t id : {0u, 1u, 2u}) {
            ASSERT_TRUE(pipeline.can_speculate());
            pipeline.speculate(partition_->block(id));
        }
        EXPECT_FALSE(pipeline.covers(7u))
            << "no outstanding load for that block";

        storage::AsyncLoader::Request newest;
        newest.block = &partition_->block(2);
        auto last = pipeline.obtain(std::move(newest));
        EXPECT_EQ(last.block->id, 2u) << "background=" << background;
        EXPECT_TRUE(last.buffer.complete());
        EXPECT_FALSE(loader.outstanding()) << "older tickets are banked";
        EXPECT_FALSE(pipeline.covers(2u)) << "already consumed";
        EXPECT_TRUE(pipeline.covers(0u));
        EXPECT_TRUE(pipeline.covers(1u));
        const double io_wait = pipeline.stats().io_wait_seconds;
        EXPECT_GT(io_wait, 0.0);
        pipeline.recycle(std::move(last.buffer));

        for (const std::uint32_t id : {1u, 0u}) {
            storage::AsyncLoader::Request older;
            older.block = &partition_->block(id);
            auto response = pipeline.obtain(std::move(older));
            EXPECT_EQ(response.block->id, id)
                << "background=" << background;
            EXPECT_TRUE(response.buffer.complete());
            pipeline.recycle(std::move(response.buffer));
        }
        EXPECT_DOUBLE_EQ(pipeline.stats().io_wait_seconds, io_wait)
            << "banked loads were already waited out";
        EXPECT_EQ(pipeline.stats().prefetch_hits, 3u);
        EXPECT_EQ(pipeline.stats().demand_loads, 0u);
        EXPECT_EQ(pipeline.stats().speculative_loads, 3u);
        pipeline.finish();
    }
}

TEST_F(PrefetchTest, AsyncLoaderCompletesInFifoOrderAtDepthK)
{
    util::MemoryBudget budget;
    storage::BlockReader reader(*file_, budget);
    ASSERT_GE(partition_->num_blocks(), 3u);
    // Both retrieval calls hand back the oldest ticket: wait() blocks
    // for it, try_wait() polls for it.
    for (const bool background : {false, true}) {
        for (const bool polled : {false, true}) {
            storage::BlockBufferPool pool;
            storage::AsyncLoader loader(reader, background, /*depth=*/3,
                                        &pool);
            EXPECT_EQ(loader.depth(), 3u);
            for (const std::uint32_t id : {0u, 1u, 2u}) {
                ASSERT_TRUE(loader.can_submit());
                storage::AsyncLoader::Request request;
                request.block = &partition_->block(id);
                EXPECT_EQ(loader.submit(std::move(request)), id);
            }
            EXPECT_FALSE(loader.can_submit())
                << "background=" << background;
            EXPECT_EQ(loader.inflight(), 3u);
            for (const std::uint32_t id : {0u, 1u, 2u}) {
                std::optional<storage::AsyncLoader::Response> response;
                if (polled) {
                    while (!response.has_value()) {
                        response = loader.try_wait();
                    }
                } else {
                    response = loader.wait();
                }
                EXPECT_EQ(response->block->id, id)
                    << "background=" << background << " polled=" << polled;
                EXPECT_EQ(response->ticket, id);
                EXPECT_TRUE(response->buffer.complete());
                pool.recycle(std::move(response->buffer));
            }
            EXPECT_FALSE(loader.outstanding());
            EXPECT_FALSE(loader.try_wait().has_value());
            EXPECT_TRUE(loader.can_submit());
        }
    }
}

/** The fixture's graph image behind a ProbeDevice, so a test sees the
 *  thread of every read and can fail one. */
struct ProbedGraph {
    ProbedGraph(storage::IoDevice &base, std::uint64_t block_bytes)
        : device(base), file(device), partition(file, block_bytes)
    {
        device.clear(); // drop the header reads
    }

    testing_support::ProbeDevice device;
    graph::GraphFile file;
    graph::BlockPartition partition;
};

TEST_F(PrefetchTest, AsyncLoaderInlineDemandsNeverStartTheThread)
{
    // A demand load that nothing is queued ahead of runs where it is
    // waited for: a pipeline that never speculates reads every block
    // on the calling thread, its background loader never starts a
    // thread, and each load is charged as a queued one would be — the
    // queue latency plus its transfer on an idle modeled device.
    ProbedGraph probed(device_, file_->edge_region_bytes() / 8);
    util::MemoryBudget budget;
    storage::BlockReader reader(probed.file, budget);
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, /*background=*/true, /*depth=*/1,
                                &pool);
    constexpr double kQueueLatency = 80e-6;
    core::PrefetchPipeline pipeline(loader, reader, pool, /*depth=*/0,
                                    nullptr, kQueueLatency);
    const std::uint32_t blocks = probed.partition.num_blocks();
    for (std::uint32_t id = 0; id < blocks; ++id) {
        storage::AsyncLoader::Request demand;
        demand.block = &probed.partition.block(id);
        auto response = pipeline.obtain(std::move(demand));
        EXPECT_EQ(response.block->id, id);
        EXPECT_EQ(response.ticket, id);
        EXPECT_TRUE(response.buffer.complete());
        pipeline.recycle(std::move(response.buffer));
    }
    pipeline.finish();
    EXPECT_FALSE(loader.thread_started());
    const std::size_t reads = probed.device.reader_threads().size();
    EXPECT_GE(reads, blocks);
    EXPECT_EQ(probed.device.reads_on(std::this_thread::get_id()), reads);
    const core::PrefetchPipeline::Stats &stats = pipeline.stats();
    EXPECT_EQ(stats.demand_loads, blocks);
    EXPECT_EQ(stats.coarse_loads, blocks);
    EXPECT_NEAR(stats.io_wait_seconds,
                blocks * kQueueLatency + stats.modeled_io_seconds, 1e-12);
}

TEST_F(PrefetchTest, RunWithoutSpeculationReadsOnCallingThread)
{
    // Engine level, loader_threads = 1: a depth-0 run, and a depth-2
    // run in fine mode from its first load (speculation pauses in fine
    // mode), read every byte on the thread that called run().
    ProbedGraph probed(device_, file_->edge_region_bytes() / 8);
    const auto run = [&](unsigned depth, std::uint64_t walkers) {
        probed.device.clear();
        ConcurrentRecordingWalk app(16, probed.file.num_vertices(),
                                    walkers);
        core::EngineConfig cfg = config(depth, /*threads=*/1);
        cfg.loader_threads = 1;
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            probed.file, probed.partition, cfg);
        const engine::RunStats stats = eng.run(app, walkers);
        const std::size_t reads = probed.device.reader_threads().size();
        EXPECT_GT(reads, 0u) << "depth " << depth;
        EXPECT_EQ(probed.device.reads_on(std::this_thread::get_id()), reads)
            << "depth " << depth;
        return stats;
    };
    const engine::RunStats demand_only = run(0, 400);
    EXPECT_GT(demand_only.blocks_loaded, 0u);
    EXPECT_EQ(demand_only.prefetch_hits, 0u);

    // α·walkers·4 KiB < graph bytes: the scheduler's fine-mode switch
    // (§3.3.1) fires before the first load.
    const std::uint64_t few = std::max<std::uint64_t>(
        1, probed.file.edge_region_bytes() / (2 * 4 * 4096));
    const engine::RunStats fine = run(2, few);
    EXPECT_EQ(fine.blocks_loaded, 0u) << "fine mode from the first load";
    EXPECT_GT(fine.fine_loads, 0u);
    EXPECT_EQ(fine.prefetch_hits, 0u);
}

TEST_F(PrefetchTest, AsyncLoaderDepthTwoReadsSpeculationOffThread)
{
    ProbedGraph probed(device_, file_->edge_region_bytes() / 8);
    {
        // Speculative loads start the loader thread and are read there.
        // A demand load runs where it is waited for, after the FIFO
        // ahead of it: obtain() banks both speculative loads, then
        // reads the demanded block on this thread with the next ticket,
        // charged as three loads serialized on an idle modeled device.
        util::MemoryBudget budget;
        storage::BlockReader reader(probed.file, budget);
        storage::BlockBufferPool pool;
        storage::AsyncLoader loader(reader, /*background=*/true,
                                    /*depth=*/2, &pool);
        constexpr double kQueueLatency = 80e-6;
        core::PrefetchPipeline pipeline(loader, reader, pool, /*depth=*/2,
                                        nullptr, kQueueLatency);
        EXPECT_FALSE(loader.thread_started());
        pipeline.speculate(probed.partition.block(0));
        pipeline.speculate(probed.partition.block(1));
        EXPECT_TRUE(loader.thread_started());
        for (const std::uint32_t id : {2u, 1u}) {
            storage::AsyncLoader::Request demand;
            demand.block = &probed.partition.block(id);
            auto response = pipeline.obtain(std::move(demand));
            EXPECT_EQ(response.block->id, id);
            EXPECT_TRUE(response.buffer.complete());
            pipeline.recycle(std::move(response.buffer));
            if (id == 2) {
                EXPECT_EQ(response.ticket, 2u);
                EXPECT_FALSE(loader.outstanding())
                    << "older tickets are banked";
            }
        }
        const core::PrefetchPipeline::Stats &stats = pipeline.stats();
        EXPECT_EQ(stats.demand_loads, 1u);
        EXPECT_EQ(stats.prefetch_hits, 1u);
        EXPECT_EQ(stats.coarse_loads, 3u);
        EXPECT_NEAR(stats.io_wait_seconds,
                    kQueueLatency + stats.modeled_io_seconds, 1e-12);
        pipeline.finish();

        const std::vector<std::thread::id> threads =
            probed.device.reader_threads();
        const std::thread::id self = std::this_thread::get_id();
        const std::uint64_t here = probed.device.reads_on(self);
        ASSERT_GT(here, 0u) << "the demand reads on this thread";
        ASSERT_LT(here, threads.size()) << "speculation reads off it";
        for (std::size_t i = 0; i < threads.size(); ++i) {
            EXPECT_EQ(threads[i] == self, i >= threads.size() - here)
                << "read " << i << ": the demand reads after its FIFO";
        }
    }

    // A depth-2 coarse engine run: demand loads run inline; the
    // lookahead loads run on the thread.
    probed.device.clear();
    ConcurrentRecordingWalk app(16, probed.file.num_vertices(), 400);
    core::EngineConfig cfg = config(/*depth=*/2, /*threads=*/1);
    cfg.shrink_block = false;
    cfg.loader_threads = 1;
    core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
        probed.file, probed.partition, cfg);
    const engine::RunStats stats = eng.run(app, 400);
    const std::size_t reads = probed.device.reader_threads().size();
    const std::uint64_t here =
        probed.device.reads_on(std::this_thread::get_id());
    EXPECT_GT(here, 0u) << "demand loads run on the calling thread";
    EXPECT_LT(here, reads) << "speculative loads run on the loader thread";
    EXPECT_GT(stats.prefetch_hits, 0u);
    EXPECT_EQ(stats.fine_loads, 0u);
}

TEST_F(PrefetchTest, AsyncLoaderTicketsStayConsecutiveAcrossLoadNow)
{
    // load_now() takes the next ticket like submit(), so interleaved
    // inline and queued loads hand out consecutive tickets.
    util::MemoryBudget budget;
    storage::BlockReader reader(*file_, budget);
    ASSERT_GE(partition_->num_blocks(), 3u);
    const auto request = [&](std::uint32_t id) {
        storage::AsyncLoader::Request r;
        r.block = &partition_->block(id);
        return r;
    };
    for (const bool background : {false, true}) {
        storage::BlockBufferPool pool;
        storage::AsyncLoader loader(reader, background, /*depth=*/2,
                                    &pool);
        const auto expect = [&](storage::AsyncLoader::Response response,
                                std::uint32_t id, std::uint64_t ticket) {
            EXPECT_EQ(response.block->id, id) << "background=" << background;
            EXPECT_EQ(response.ticket, ticket)
                << "background=" << background;
            EXPECT_TRUE(response.buffer.complete());
            pool.recycle(std::move(response.buffer));
        };
        expect(loader.load_now(request(0)), 0, 0);
        EXPECT_FALSE(loader.thread_started());
        EXPECT_EQ(loader.submit(request(1)), 1u);
        EXPECT_EQ(loader.thread_started(), background);
        expect(loader.wait(), 1, 1);
        expect(loader.load_now(request(2)), 2, 2);
        EXPECT_EQ(loader.submit(request(0)), 3u);
        EXPECT_EQ(loader.submit(request(1)), 4u);
        expect(loader.wait(), 0, 3);
        expect(loader.wait(), 1, 4);
        expect(loader.load_now(request(2)), 2, 5);
        EXPECT_FALSE(loader.outstanding());
    }
}

// Minimal fault injection: one failed device read, inline or on the
// loader thread, surfaces from NosWalkerEngine::run as util::IoError
// with every reservation of the run returned to its budget.
using PrefetchFailure = PrefetchTest;

TEST_F(PrefetchFailure, InlineDemandLoadErrorThrowsAndDrainsBudget)
{
    ProbedGraph probed(device_, file_->edge_region_bytes() / 8);
    constexpr std::uint64_t kWalkers = 400;
    util::MemoryBudget budget;
    core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
        probed.file, probed.partition, config(/*depth=*/0, /*threads=*/1));
    eng.set_shared_budget(&budget);
    probed.device.fail_read(3);
    {
        ConcurrentRecordingWalk app(16, probed.file.num_vertices(),
                                    kWalkers);
        EXPECT_THROW(eng.run(app, kWalkers), util::IoError);
    }
    EXPECT_EQ(budget.used(), 0u);
    const auto threads = probed.device.reader_threads();
    ASSERT_EQ(threads.size(), 3u) << "the run stops at the failed read";
    EXPECT_EQ(threads[2], std::this_thread::get_id())
        << "depth 0: the failed read was an inline demand";

    // The device recovers and so does the engine: the next run on it
    // matches a run that never failed.
    ConcurrentRecordingWalk again(16, probed.file.num_vertices(), kWalkers);
    eng.run(again, kWalkers);
    EXPECT_EQ(budget.used(), 0u);
    ConcurrentRecordingWalk reference(16, file_->num_vertices(), kWalkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> clean(
        *file_, *partition_, config(/*depth=*/0, /*threads=*/1));
    clean.run(reference, kWalkers);
    EXPECT_EQ(again.endpoints, reference.endpoints);
}

TEST_F(PrefetchFailure, BackgroundSpeculativeLoadErrorThrowsAndDrainsBudget)
{
    // An inline load needs nothing outstanding, so inline and loader-
    // thread reads never overlap and the read sequence is a function
    // of the walk.  The first read a clean run makes off the calling
    // thread is a speculative load's; failing that read fails it.
    ProbedGraph probed(device_, file_->edge_region_bytes() / 8);
    constexpr std::uint64_t kWalkers = 400;
    core::EngineConfig cfg = config(/*depth=*/2, /*threads=*/1);
    cfg.shrink_block = false;
    util::MemoryBudget budget;
    core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
        probed.file, probed.partition, cfg);
    eng.set_shared_budget(&budget);
    const auto run_once = [&] {
        ConcurrentRecordingWalk app(16, probed.file.num_vertices(),
                                    kWalkers);
        eng.run(app, kWalkers);
    };

    run_once();
    const auto clean = probed.device.reader_threads();
    const auto off = std::find_if(
        clean.begin(), clean.end(),
        [](std::thread::id t) { return t != std::this_thread::get_id(); });
    ASSERT_NE(off, clean.end()) << "depth 2 must speculate";
    const auto nth = static_cast<std::uint64_t>(off - clean.begin()) + 1;

    probed.device.clear();
    probed.device.fail_read(nth);
    EXPECT_THROW(run_once(), util::IoError);
    EXPECT_EQ(budget.used(), 0u);
    const auto failed = probed.device.reader_threads();
    ASSERT_GE(failed.size(), nth);
    EXPECT_NE(failed[nth - 1], std::this_thread::get_id())
        << "the failed read was a speculative load on the loader thread";

    probed.device.clear();
    run_once();
    EXPECT_EQ(budget.used(), 0u);
    EXPECT_EQ(probed.device.reader_threads().size(), clean.size())
        << "a recovered run repeats the clean run's reads";
}

TEST(SharedBlockCache, BudgetAttachReleasesOnlyReservedBytes)
{
    // Regression: eviction used to release every victim's byte size
    // against the budget, but entries inserted before attach_budget
    // were never reserved — the first eviction of one tripped the
    // budget's underflow check.  Eviction must release exactly what
    // the entry reserved at insertion.
    storage::SharedBlockCache cache(/*capacity_bytes=*/3000);
    cache.insert(1, 0, std::vector<std::uint8_t>(1000, 0x11));
    cache.insert(2, 0, std::vector<std::uint8_t>(1000, 0x22));
    EXPECT_EQ(cache.used_bytes(), 2000u);

    util::MemoryBudget budget;
    cache.attach_budget(&budget);
    cache.insert(3, 0, std::vector<std::uint8_t>(1000, 0x33));
    EXPECT_EQ(budget.used(), 1000u) << "only the new entry reserves";

    // Capacity pressure evicts both pre-budget entries (LRU tail
    // first); their eviction releases nothing.
    cache.insert(4, 0, std::vector<std::uint8_t>(2000, 0x44));
    EXPECT_EQ(cache.find(1), nullptr);
    EXPECT_EQ(cache.find(2), nullptr);
    EXPECT_EQ(cache.used_bytes(), 3000u);
    EXPECT_EQ(budget.used(), 3000u);

    // Reserved entries release exactly their reservation.
    cache.clear();
    EXPECT_EQ(cache.used_bytes(), 0u);
    EXPECT_EQ(budget.used(), 0u);
}

TEST_F(PrefetchTest, BlockBufferRetainsCapacityAcrossLoads)
{
    // Satellite 1: clear() keeps the storage and the budget
    // reservation, so repeated loads of one block allocate exactly once.
    util::MemoryBudget budget;
    storage::BlockReader reader(*file_, budget);
    const graph::BlockInfo &block = partition_->block(0);
    storage::BlockBuffer buffer;
    for (int i = 0; i < 3; ++i) {
        reader.load_coarse(block, buffer);
        EXPECT_TRUE(buffer.complete());
        buffer.clear();
    }
    EXPECT_EQ(buffer.allocations(), 1u);
    const std::uint64_t reserved = budget.used();
    EXPECT_GT(reserved, 0u) << "reservation survives clear()";
    buffer.release_storage();
    EXPECT_EQ(budget.used(), 0u);
}

TEST_F(PrefetchTest, BufferPoolReusesStorageOnSyncPath)
{
    // Satellite 1 + 2: the 0-thread loader draws from the pool too, so
    // a recycle-after-consume loop touches the allocator only once.
    util::MemoryBudget budget;
    storage::BlockReader reader(*file_, budget);
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, /*background=*/false,
                                /*depth=*/1, &pool);
    constexpr int kLoads = 12;
    for (int i = 0; i < kLoads; ++i) {
        storage::AsyncLoader::Request request;
        request.block = &partition_->block(0);
        loader.submit(std::move(request));
        auto response = loader.wait();
        EXPECT_TRUE(response.buffer.complete());
        pool.recycle(std::move(response.buffer));
    }
    EXPECT_EQ(pool.created(), 1u);
    EXPECT_EQ(pool.reused(), static_cast<std::uint64_t>(kLoads - 1));
    // The one buffer in rotation sized itself exactly once.
    storage::BlockBuffer buffer = pool.acquire();
    EXPECT_EQ(buffer.allocations(), 1u);
    buffer.release_storage();
}

} // namespace
} // namespace noswalker
