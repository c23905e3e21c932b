/**
 * @file
 * Fine rounds (DESIGN.md §10, §12): in fine mode a double-buffered
 * engine loads the scheduler's hottest block and its next-hottest busy
 * block into the baseline buffer pair, submitting both page reads at
 * one pipeline time, so the pair pays the device's queue latency once.
 *
 * Covered here, all on the modeled device: the pipeline prices a
 * two-demand round with one latency and counts both loads; an engine
 * run charges one latency per round, never more rounds than loads;
 * walk output is bit-identical across step threads and prefetch depth
 * with rounds active, pre-sampling on and off; a single-buffered run
 * keeps one block per load and the same walks; a round never holds
 * more buffers than the engine reserved, and a fine-mode run's peak is
 * exactly its index, buffer pair and walker pool.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/block_scheduler.hpp"
#include "core/noswalker_engine.hpp"
#include "core/prefetch_pipeline.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "storage/async_loader.hpp"
#include "storage/block_buffer_pool.hpp"
#include "storage/block_reader.hpp"
#include "storage/mem_device.hpp"
#include "util/memory_budget.hpp"

namespace noswalker {
namespace {

using testing_support::ConcurrentRecordingWalk;

/** Few walkers on a graph large enough that the fine-mode rule
 *  (α·|Wa|·4 KiB < S_G) holds from the first load, as in a service
 *  batch. */
constexpr std::uint64_t kWalkers = 48;
constexpr std::uint32_t kLength = 40;

class FineRound : public testing::Test {
  protected:
    void
    SetUp() override
    {
        graph_ = graph::generate_rmat(
            {.scale = 13, .edge_factor = 16, .a = 0.57, .b = 0.19,
             .c = 0.19, .seed = 29, .symmetrize = true,
             .weighted = false});
        graph::GraphFile::write(graph_, device_);
        file_ = std::make_unique<graph::GraphFile>(device_);
        partition_ = std::make_unique<graph::BlockPartition>(
            *file_, file_->edge_region_bytes() / 16);
        ASSERT_LT(4.0 * kWalkers * 4096,
                  static_cast<double>(file_->edge_region_bytes()));
    }

    core::EngineConfig
    config(unsigned depth, unsigned threads, bool presample) const
    {
        core::EngineConfig cfg = core::EngineConfig::full(
            0, partition_->max_block_bytes());
        cfg.prefetch_depth = depth;
        cfg.step_threads = threads;
        cfg.presample = presample;
        return cfg;
    }

    /** A fine demand for @p block needing its first vertex's record. */
    storage::AsyncLoader::Request
    fine_demand(std::uint32_t block) const
    {
        storage::AsyncLoader::Request request;
        request.block = &partition_->block(block);
        request.fine = true;
        request.needed.push_back(request.block->first_vertex);
        return request;
    }

    /** Queue latencies a run paid: with no speculation every round
     *  waits L plus its transfers, so the rest of io_wait is L × the
     *  rounds. */
    std::uint64_t
    latency_charges(const engine::RunStats &stats) const
    {
        const double latency = file_->device().model().queue_latency;
        const double charges =
            (stats.io_wait_seconds - stats.io_busy_seconds) / latency;
        const double rounded = std::round(charges);
        EXPECT_NEAR(charges, rounded, 1e-6);
        return static_cast<std::uint64_t>(rounded);
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
};

TEST_F(FineRound, PipelineChargesOneQueueLatencyPerRound)
{
    util::MemoryBudget budget;
    storage::BlockReader reader(*file_, budget);
    const double latency = file_->device().model().queue_latency;
    ASSERT_GT(latency, 0.0);

    // Two demands in one round.
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, /*background=*/false, 1, &pool);
    core::PrefetchPipeline pipeline(loader, reader, pool, 0, nullptr,
                                    latency);
    std::vector<storage::AsyncLoader::Request> round = {fine_demand(1),
                                                        fine_demand(2)};
    std::vector<storage::AsyncLoader::Response> out;
    pipeline.obtain_round(round, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].block->id, 1u);
    EXPECT_EQ(out[1].block->id, 2u);
    EXPECT_TRUE(out[0].fine && out[1].fine);
    const double t1 = out[0].result.modeled_seconds;
    const double t2 = out[1].result.modeled_seconds;
    ASSERT_GT(t1, 0.0);
    ASSERT_GT(t2, 0.0);
    EXPECT_EQ(pipeline.stats().demand_loads, 2u);
    EXPECT_EQ(pipeline.stats().fine_loads, 2u);
    EXPECT_DOUBLE_EQ(pipeline.stats().io_wait_seconds, latency + t1 + t2);
    for (auto &response : out) {
        pipeline.recycle(std::move(response.buffer));
    }
    pipeline.finish();

    // The same loads one at a time pay the latency twice.
    storage::BlockBufferPool single_pool;
    storage::AsyncLoader single_loader(reader, false, 1, &single_pool);
    core::PrefetchPipeline single(single_loader, reader, single_pool, 0,
                                  nullptr, latency);
    for (const std::uint32_t block : {1u, 2u}) {
        auto response = single.obtain(fine_demand(block));
        single.recycle(std::move(response.buffer));
    }
    EXPECT_EQ(single.stats().demand_loads, 2u);
    EXPECT_DOUBLE_EQ(single.stats().io_wait_seconds,
                     2 * latency + t1 + t2);
    single.finish();
}

TEST_F(FineRound, RoundNeverHoldsMoreBuffersThanReserved)
{
    // Depth 1 reserves two buffers.  A demoted speculative load sits
    // in the stash when a round needs two demand loads: the stash
    // entry is recycled first, so the round holds two buffers, not
    // three.
    util::MemoryBudget budget;
    storage::BlockReader reader(*file_, budget);
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, false, 1, &pool);
    core::PrefetchPipeline pipeline(loader, reader, pool, 1, nullptr,
                                    80e-6);
    core::BlockScheduler sched(partition_->num_blocks(), 4.0,
                               file_->edge_region_bytes(), 4096);
    pipeline.speculate(partition_->block(5));
    pipeline.poll();
    pipeline.sweep(sched); // block 5 has no walkers: demoted
    ASSERT_TRUE(pipeline.covers(5));
    ASSERT_EQ(pipeline.stats().prefetch_mispredicts, 1u);

    std::vector<storage::AsyncLoader::Request> round = {fine_demand(1),
                                                        fine_demand(2)};
    std::vector<storage::AsyncLoader::Response> out;
    pipeline.obtain_round(round, out);
    EXPECT_FALSE(pipeline.covers(5));
    EXPECT_EQ(pool.created(), 2u) << "live buffers exceeded the pair";
    EXPECT_EQ(pipeline.stats().demand_loads, 2u);
    EXPECT_EQ(pipeline.stats().prefetch_mispredicts, 1u);
    for (auto &response : out) {
        pipeline.recycle(std::move(response.buffer));
    }

    // A round block the stash covers is served from it; the other
    // block is loaded next to it.
    pipeline.speculate(partition_->block(3));
    pipeline.poll();
    pipeline.sweep(sched);
    round = {fine_demand(3), fine_demand(4)};
    pipeline.obtain_round(round, out);
    EXPECT_EQ(pipeline.stats().prefetch_hits, 1u);
    EXPECT_EQ(pipeline.stats().demand_loads, 3u);
    EXPECT_TRUE(out[0].fine);
    EXPECT_FALSE(out[0].buffer.complete()) << "refined to the demand";
    EXPECT_EQ(pool.created(), 2u);
    for (auto &response : out) {
        pipeline.recycle(std::move(response.buffer));
    }
    pipeline.finish();
}

TEST_F(FineRound, EngineRunPaysOneLatencyPerRound)
{
    ConcurrentRecordingWalk app(kLength, file_->num_vertices(), kWalkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
        *file_, *partition_, config(0, 1, false));
    const auto stats = eng.run(app, kWalkers);
    ASSERT_TRUE(stats.pipelined);
    ASSERT_EQ(stats.blocks_loaded, 0u) << "fine mode from the first load";
    ASSERT_GT(stats.fine_loads, 0u);
    const std::uint64_t rounds = latency_charges(stats);
    // Every round loads one or two blocks, and two busy blocks are
    // the rule here: most rounds carry a pair.
    EXPECT_GE(2 * rounds, stats.fine_loads);
    EXPECT_LT(rounds, stats.fine_loads);
    EXPECT_LT(4 * rounds, 3 * stats.fine_loads);
}

TEST_F(FineRound, WalksAreBitIdenticalAcrossThreadsAndDepths)
{
    for (const bool presample : {false, true}) {
        std::vector<std::vector<graph::VertexId>> endpoints;
        std::vector<std::vector<std::uint32_t>> visits;
        std::vector<std::uint64_t> steps;
        for (const unsigned threads : {1u, 2u, 4u}) {
            for (const unsigned depth : {0u, 1u, 4u}) {
                ConcurrentRecordingWalk app(kLength,
                                            file_->num_vertices(),
                                            kWalkers);
                core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
                    *file_, *partition_,
                    config(depth, threads, presample));
                const auto stats = eng.run(app, kWalkers);
                if (depth == 0) {
                    EXPECT_LT(latency_charges(stats), stats.fine_loads)
                        << "rounds inactive";
                }
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
        for (std::size_t c = 1; c < endpoints.size(); ++c) {
            EXPECT_EQ(steps[c], steps[0])
                << "presample " << presample << " config " << c;
            EXPECT_EQ(endpoints[c], endpoints[0])
                << "presample " << presample << " config " << c;
            EXPECT_EQ(visits[c], visits[0])
                << "presample " << presample << " config " << c;
        }
    }
}

TEST_F(FineRound, SingleBufferedRunKeepsOneBlockPerLoad)
{
    // A budget whose 35% buffer share cannot hold two block buffers
    // leaves the engine single-buffered: every load is its own round.
    // With pre-sampling off, the walks are those of the rounds run.
    const std::uint64_t aligned = core::block_buffer_bytes(*partition_);
    core::EngineConfig tight = config(0, 1, false);
    tight.memory_budget = file_->index_bytes() + 4 * aligned;
    ConcurrentRecordingWalk single_app(kLength, file_->num_vertices(),
                                       kWalkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> single(
        *file_, *partition_, tight);
    const auto single_stats = single.run(single_app, kWalkers);
    ASSERT_FALSE(single_stats.pipelined);
    ASSERT_GT(single_stats.fine_loads, 0u);
    EXPECT_EQ(latency_charges(single_stats),
              single_stats.fine_loads + single_stats.blocks_loaded);

    ConcurrentRecordingWalk pair_app(kLength, file_->num_vertices(),
                                     kWalkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> pair(
        *file_, *partition_, config(0, 1, false));
    const auto pair_stats = pair.run(pair_app, kWalkers);
    EXPECT_LT(latency_charges(pair_stats), pair_stats.fine_loads);
    EXPECT_EQ(pair_stats.steps, single_stats.steps);
    EXPECT_EQ(pair_app.endpoints, single_app.endpoints);
}

TEST_F(FineRound, PeakMemoryIsIndexBufferPairAndWalkerPool)
{
    // The round's second block lands in the pair's second buffer:
    // nothing is reserved beyond what setup always charged.
    const std::uint64_t aligned = core::block_buffer_bytes(*partition_);
    for (const unsigned depth : {0u, 1u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, config(depth, 1, false));
        const auto stats = eng.run(app, kWalkers);
        ASSERT_GT(stats.fine_loads, 0u);
        EXPECT_EQ(stats.peak_memory,
                  file_->index_bytes() + 2 * aligned +
                      kWalkers *
                          sizeof(engine::Stepped<engine::Walker>))
            << "depth " << depth;
    }
}

} // namespace
} // namespace noswalker
