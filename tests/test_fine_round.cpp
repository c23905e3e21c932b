/**
 * @file
 * Fine rounds (DESIGN.md §10, §12): in fine mode an engine takes the
 * scheduler's hottest block and then every busy block in heat order
 * while their needed records pack into its baseline buffers (two, one
 * when single-buffered), and submits all their page reads at one
 * pipeline time, so the round pays the device's queue latency once.
 *
 * Covered here, all on the modeled device: the pipeline prices a
 * multi-demand round with one latency and counts every load; a packed
 * view holds what a fresh in-place fine load holds, for the same bytes
 * and requests; a dead end decodes from a view; the pool never creates
 * more storage buffers than the reservation; an engine run charges one
 * latency per round and packs past a pair; rounds are the same at
 * every prefetch depth and walk output is bit-identical across step
 * threads and prefetch depth, pre-sampling on and off; a
 * single-buffered run packs too, with the same walks; a fine-mode
 * run's peak is exactly its index, buffer pair and walker pool.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/block_scheduler.hpp"
#include "core/noswalker_engine.hpp"
#include "core/prefetch_pipeline.hpp"
#include "engine/run_stats.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "storage/async_loader.hpp"
#include "storage/block_buffer_pool.hpp"
#include "storage/block_reader.hpp"
#include "storage/mem_device.hpp"
#include "util/bitmap.hpp"
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

    /** A fine demand for @p block needing @p needed (its first
     *  vertex's record by default), with its segments planned. */
    storage::AsyncLoader::Request
    fine_demand(std::uint32_t block,
                std::vector<graph::VertexId> needed = {},
                std::vector<std::uint32_t> slots = {}) const
    {
        storage::AsyncLoader::Request request;
        request.block = &partition_->block(block);
        request.fine = true;
        request.needed = needed.empty()
                             ? std::vector{request.block->first_vertex}
                             : std::move(needed);
        request.slots = std::move(slots);
        util::Bitmap pages;
        storage::BlockReader::plan_segments(*file_, *request.block,
                                            request.needed, pages,
                                            request.segments);
        return request;
    }

    /** Place @p round with a RoundPacker of @p hosts host buffers of
     *  @p host_bytes each; every demand must fit. */
    static void
    pack(std::vector<storage::AsyncLoader::Request> &round,
         std::uint64_t host_bytes, std::uint32_t hosts)
    {
        core::RoundPacker packer(host_bytes, hosts);
        for (auto &request : round) {
            ASSERT_TRUE(packer.place(request));
        }
    }

    std::uint64_t
    aligned() const
    {
        return core::block_buffer_bytes(*partition_);
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

TEST(FineRoundPacker, NextFitEndsTheRoundAtTheFirstMisfit)
{
    const auto of_pages = [](std::uint32_t pages) {
        storage::AsyncLoader::Request request;
        request.segments.push_back({0, pages, 0});
        return request;
    };
    constexpr std::uint64_t kPage = storage::BlockReader::kPageBytes;
    core::RoundPacker packer(10 * kPage, 2);
    auto a = of_pages(6);
    auto b = of_pages(3);
    auto c = of_pages(6);
    auto d = of_pages(5);
    ASSERT_TRUE(packer.place(a));
    EXPECT_EQ(a.host, 0u);
    EXPECT_EQ(a.host_offset, 0u);
    ASSERT_TRUE(packer.place(b)); // into the rest of the current host
    EXPECT_EQ(b.host, 0u);
    EXPECT_EQ(b.host_offset, 6 * kPage);
    ASSERT_TRUE(packer.place(c)); // too big for the rest: a fresh host
    EXPECT_EQ(c.host, 1u);
    EXPECT_EQ(c.host_offset, 0u);
    EXPECT_FALSE(packer.place(d)) << "fits no host: the round ends";
    packer.clear();
    ASSERT_TRUE(packer.place(d));
    EXPECT_EQ(d.host, 0u);
    auto huge = of_pages(11);
    EXPECT_FALSE(packer.place(huge)) << "larger than any host";
}

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
    pack(round, aligned(), 2);
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
        std::vector<storage::AsyncLoader::Request> one = {
            fine_demand(block)};
        pack(one, aligned(), 2);
        auto response = single.obtain(std::move(one.front()));
        single.recycle(std::move(response.buffer));
    }
    EXPECT_EQ(single.stats().demand_loads, 2u);
    EXPECT_DOUBLE_EQ(single.stats().io_wait_seconds,
                     2 * latency + t1 + t2);
    single.finish();
}

TEST_F(FineRound, PackedViewHoldsWhatAFreshFineLoadHolds)
{
    // Every third vertex of four blocks, a slot for most and the whole
    // record for the rest, packed into one round.
    util::MemoryBudget budget;
    storage::BlockReader reader(*file_, budget);
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, false, 1, &pool);
    core::PrefetchPipeline pipeline(loader, reader, pool, 0, nullptr,
                                    80e-6);
    std::vector<storage::AsyncLoader::Request> round;
    for (const std::uint32_t b : {3u, 0u, 7u, 12u}) {
        const graph::BlockInfo &block = partition_->block(b);
        std::vector<graph::VertexId> needed;
        std::vector<std::uint32_t> slots;
        for (graph::VertexId v = block.first_vertex; v < block.end_vertex;
             v += 3) {
            needed.push_back(v);
            const std::uint32_t degree = file_->degree(v);
            slots.push_back(v % 4 == 0 || degree == 0
                                ? graph::kWholeRecord
                                : static_cast<std::uint32_t>(
                                      (v * 2654435761ULL) % degree));
        }
        round.push_back(fine_demand(b, needed, slots));
    }
    pack(round, 4 * aligned(), 1);
    std::vector<storage::AsyncLoader::Response> out;
    pipeline.obtain_round(round, out);
    ASSERT_EQ(out.size(), round.size());

    for (std::size_t i = 0; i < round.size(); ++i) {
        const storage::AsyncLoader::Request &demand = round[i];
        const storage::BlockBuffer &view = out[i].buffer;
        EXPECT_TRUE(view.is_view());
        storage::BlockBuffer fresh;
        const storage::LoadResult want =
            reader.load_fine(*demand.block, demand.needed, fresh,
                             demand.slots);
        EXPECT_EQ(out[i].result.bytes_read, want.bytes_read);
        EXPECT_EQ(out[i].result.requests, want.requests);
        EXPECT_DOUBLE_EQ(out[i].result.modeled_seconds,
                         want.modeled_seconds);
        for (graph::VertexId v = demand.block->first_vertex;
             v < demand.block->end_vertex; ++v) {
            ASSERT_EQ(view.vertex_loaded(*file_, v),
                      fresh.vertex_loaded(*file_, v))
                << "vertex " << v;
            for (std::uint32_t s = 0; s < file_->degree(v); ++s) {
                ASSERT_EQ(view.vertex_loaded(*file_, v, s),
                          fresh.vertex_loaded(*file_, v, s))
                    << "vertex " << v << " slot " << s;
            }
        }
        // Every needed (vertex, slot) is resident and decodes to the
        // graph's edge.
        for (std::size_t k = 0; k < demand.needed.size(); ++k) {
            const graph::VertexId v = demand.needed[k];
            const std::uint32_t slot = demand.slots[k];
            ASSERT_TRUE(view.vertex_loaded(*file_, v, slot)) << v;
            const auto targets = view.view(*file_, v).targets;
            const auto want_targets = graph_.neighbors(v);
            ASSERT_EQ(targets.size(), want_targets.size());
            if (slot != graph::kWholeRecord) {
                EXPECT_EQ(targets[slot], want_targets[slot]) << v;
            } else {
                EXPECT_TRUE(std::equal(targets.begin(), targets.end(),
                                       want_targets.begin()))
                    << v;
            }
        }
    }
    EXPECT_EQ(pool.created(), 1u) << "one host backs the whole round";
    for (auto &response : out) {
        pipeline.recycle(std::move(response.buffer));
    }
    EXPECT_EQ(pool.free_count(), 1u) << "host back with the last view";
    pipeline.finish();
}

TEST_F(FineRound, DeadEndDecodesFromAPackedView)
{
    // A Node2Vec candidate may be a dead end: its empty record is
    // resident in any fine buffer of its block and decodes without a
    // segment, even in a view that has none.
    graph::VertexId dead = graph::kInvalidVertex;
    for (graph::VertexId v = 0; v < file_->num_vertices(); ++v) {
        if (file_->degree(v) == 0) {
            dead = v;
            break;
        }
    }
    ASSERT_NE(dead, graph::kInvalidVertex) << "the fixture has a dead end";
    const std::uint32_t b = partition_->block_of(dead);
    util::MemoryBudget budget;
    storage::BlockReader reader(*file_, budget);
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, false, 1, &pool);
    core::PrefetchPipeline pipeline(loader, reader, pool, 0, nullptr,
                                    80e-6);
    std::vector<storage::AsyncLoader::Request> round = {
        fine_demand(b, {dead})};
    ASSERT_TRUE(round.front().segments.empty());
    pack(round, aligned(), 2);
    std::vector<storage::AsyncLoader::Response> out;
    pipeline.obtain_round(round, out);
    const storage::BlockBuffer &view = out.front().buffer;
    EXPECT_EQ(out.front().result.requests, 0u);
    ASSERT_TRUE(view.vertex_loaded(*file_, dead));
    EXPECT_EQ(view.view(*file_, dead).degree(), 0u);
    pipeline.recycle(std::move(out.front().buffer));
    pipeline.finish();
}

TEST_F(FineRound, RoundNeverHoldsMoreBuffersThanReserved)
{
    // Depth 1 reserves two storage buffers.
    util::MemoryBudget budget;
    storage::BlockReader reader(*file_, budget);
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, false, 1, &pool);
    core::PrefetchPipeline pipeline(loader, reader, pool, 1, nullptr,
                                    80e-6);
    core::BlockScheduler sched(partition_->num_blocks(), 4.0,
                               file_->edge_region_bytes(), 4096);
    const auto demote = [&](std::uint32_t block) {
        pipeline.speculate(partition_->block(block));
        pipeline.poll();
        pipeline.sweep(sched); // no walkers: demoted to the stash
        ASSERT_TRUE(pipeline.covers(block));
    };
    const auto finish_round =
        [&](std::vector<storage::AsyncLoader::Response> &out) {
            for (auto &response : out) {
                pipeline.recycle(std::move(response.buffer));
            }
        };
    std::vector<storage::AsyncLoader::Response> out;

    // A round over two hosts while a demoted load sits in the stash:
    // the stash entry is recycled first, so the pool creates two
    // buffers, not three.
    demote(5);
    std::vector<storage::AsyncLoader::Request> round = {fine_demand(1),
                                                        fine_demand(2)};
    round[1].host = 1; // one host each
    pipeline.obtain_round(round, out);
    EXPECT_FALSE(pipeline.covers(5));
    EXPECT_EQ(pool.created(), 2u) << "storage buffers exceeded the pair";
    EXPECT_EQ(pipeline.stats().demand_loads, 2u);
    EXPECT_EQ(pipeline.stats().prefetch_mispredicts, 1u);
    finish_round(out);

    // Two hosts leave no buffer for a covered block: its speculative
    // result is recycled and the block loaded into its place.
    demote(3);
    round = {fine_demand(3), fine_demand(4)};
    round[1].host = 1;
    pipeline.obtain_round(round, out);
    EXPECT_EQ(pipeline.stats().prefetch_hits, 0u);
    EXPECT_EQ(pipeline.stats().demand_loads, 4u);
    EXPECT_TRUE(out[0].buffer.is_view()) << "loaded, not served";
    EXPECT_EQ(pool.created(), 2u);
    finish_round(out);

    // One host leaves one: the stash serves the covered block, refined
    // to the demand, and the other block lands in the host.
    demote(3);
    round = {fine_demand(3), fine_demand(4)};
    pack(round, aligned(), 1);
    pipeline.obtain_round(round, out);
    EXPECT_EQ(pipeline.stats().prefetch_hits, 1u);
    EXPECT_EQ(pipeline.stats().demand_loads, 5u);
    EXPECT_TRUE(out[0].fine);
    EXPECT_FALSE(out[0].buffer.complete()) << "refined to the demand";
    EXPECT_FALSE(out[0].buffer.is_view());
    EXPECT_EQ(pool.created(), 2u);
    finish_round(out);
    pipeline.finish();
}

TEST_F(FineRound, EngineRunPacksRoundsPastThePair)
{
    ConcurrentRecordingWalk app(kLength, file_->num_vertices(), kWalkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
        *file_, *partition_, config(0, 1, false));
    const auto stats = eng.run(app, kWalkers);
    ASSERT_TRUE(stats.pipelined);
    ASSERT_EQ(stats.blocks_loaded, 0u) << "fine mode from the first load";
    ASSERT_GT(stats.fine_loads, 0u);
    // One latency per round, and a round loads more than the two
    // blocks a buffer pair would hold whole.
    const std::uint64_t rounds = latency_charges(stats);
    EXPECT_GT(rounds, 0u);
    EXPECT_LT(2 * rounds, stats.fine_loads);
}

TEST_F(FineRound, RoundsAreTheSameAtEveryDepth)
{
    // Fine mode from the first load, so no depth ever speculates: the
    // rounds — their count, loads and bytes — must not move.
    std::vector<engine::RunStats> runs;
    for (const unsigned depth : {0u, 1u, 4u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, config(depth, 1, true));
        runs.push_back(eng.run(app, kWalkers));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(latency_charges(runs[i]), latency_charges(runs[0]));
        EXPECT_EQ(runs[i].fine_loads, runs[0].fine_loads);
        EXPECT_EQ(runs[i].graph_bytes_read, runs[0].graph_bytes_read);
        EXPECT_EQ(runs[i].graph_read_requests,
                  runs[0].graph_read_requests);
        EXPECT_DOUBLE_EQ(runs[i].io_wait_seconds, runs[0].io_wait_seconds);
        EXPECT_EQ(runs[i].steps, runs[0].steps);
        EXPECT_EQ(runs[i].block_steps, runs[0].block_steps);
    }
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

TEST_F(FineRound, SingleBufferedRunPacksIntoItsOneBuffer)
{
    // A budget whose 35% buffer share cannot hold two block buffers
    // leaves the engine single-buffered, and its rounds pack into that
    // one buffer.  With so few walkers every round's records fit it, so
    // the rounds, bytes and walks are those of the double-buffered run.
    constexpr std::uint64_t kFew = 6;
    const std::uint64_t aligned = core::block_buffer_bytes(*partition_);
    core::EngineConfig tight = config(0, 1, false);
    tight.memory_budget = file_->index_bytes() + 4 * aligned;
    ConcurrentRecordingWalk single_app(kLength, file_->num_vertices(),
                                       kFew);
    core::NosWalkerEngine<ConcurrentRecordingWalk> single(
        *file_, *partition_, tight);
    const auto single_stats = single.run(single_app, kFew);
    ASSERT_FALSE(single_stats.pipelined);
    ASSERT_EQ(single_stats.blocks_loaded, 0u);
    EXPECT_EQ(single_stats.peak_memory,
              file_->index_bytes() + aligned +
                  kFew * sizeof(engine::Stepped<engine::Walker>));
    const std::uint64_t rounds = latency_charges(single_stats);
    EXPECT_LT(rounds, single_stats.fine_loads)
        << "more than one block per latency charge";

    ConcurrentRecordingWalk pair_app(kLength, file_->num_vertices(), kFew);
    core::NosWalkerEngine<ConcurrentRecordingWalk> pair(
        *file_, *partition_, config(0, 1, false));
    const auto pair_stats = pair.run(pair_app, kFew);
    ASSERT_TRUE(pair_stats.pipelined);
    EXPECT_EQ(latency_charges(pair_stats), rounds);
    EXPECT_EQ(pair_stats.fine_loads, single_stats.fine_loads);
    EXPECT_EQ(pair_stats.graph_bytes_read, single_stats.graph_bytes_read);
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
