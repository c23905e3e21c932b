/**
 * @file
 * The tentpole guarantee of the parallel stepping path: walk output is
 * bit-identical at 1, 2, and 8 step threads, because every trajectory
 * is a pure function of (run seed, walker id) and pre-sample drying is
 * published at round granularity.  Thread counts also change how the
 * step kernel's spans are cut, so these suites double as its
 * span-independence check.
 *
 * The recording apps (tests/recording_app.hpp) are thread safe the way
 * service apps are: each walker owns a private endpoint slot, and
 * visit counters are atomic.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "core/noswalker_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "storage/mem_device.hpp"
#include "util/rng.hpp"

namespace noswalker {
namespace {

using testing_support::ConcurrentRecordingWalk;
using testing_support::RecordingNode2Vec;
using testing_support::RecordingPpr;

class ParallelStepTest : public testing::Test {
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
    config(unsigned threads, bool presample) const
    {
        core::EngineConfig cfg = core::EngineConfig::full(
            testing_support::tight_budget(*file_, *partition_),
            partition_->max_block_bytes());
        cfg.step_threads = threads;
        cfg.presample = presample;
        return cfg;
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
};

TEST_F(ParallelStepTest, BasicWalkIsBitIdenticalAcrossThreadCounts)
{
    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 24;
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint32_t>> visits;
    std::vector<std::uint64_t> steps;
    for (const unsigned threads : {1u, 2u, 8u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, config(threads, /*presample=*/true));
        const auto stats = eng.run(app, kWalkers);
        endpoints.push_back(app.endpoints);
        std::vector<std::uint32_t> v(app.visits.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
            v[i] = app.visits[i].load();
        }
        visits.push_back(std::move(v));
        steps.push_back(stats.steps);
        EXPECT_GT(stats.kernel_cohorts, 0u);
        EXPECT_GT(stats.kernel_prefetches, 0u);
    }
    // Dead ends retire walkers early, so the budget is an upper bound.
    EXPECT_GT(steps[0], 0u);
    EXPECT_LE(steps[0], kWalkers * kLength);
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]);
        EXPECT_EQ(endpoints[t], endpoints[0]) << "thread config " << t;
        EXPECT_EQ(visits[t], visits[0]) << "thread config " << t;
    }
}

TEST_F(ParallelStepTest, PresampleOffIsBitIdenticalAcrossThreadCounts)
{
    constexpr std::uint64_t kWalkers = 400;
    constexpr std::uint32_t kLength = 16;
    std::vector<std::vector<graph::VertexId>> endpoints;
    for (const unsigned threads : {1u, 2u, 8u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, config(threads, /*presample=*/false));
        eng.run(app, kWalkers);
        endpoints.push_back(app.endpoints);
    }
    EXPECT_EQ(endpoints[1], endpoints[0]);
    EXPECT_EQ(endpoints[2], endpoints[0]);
}

TEST_F(ParallelStepTest, PprIsBitIdenticalAcrossThreadCounts)
{
    // A few query sources spread across the id range, so the walkers
    // hop blocks and exercise the park/stall paths.
    const graph::VertexId n = file_->num_vertices();
    const std::vector<graph::VertexId> sources{0, n / 3, n / 2, n - 1};
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint32_t>> visits;
    std::vector<std::uint64_t> steps;
    for (const unsigned threads : {1u, 2u, 8u}) {
        RecordingPpr app(sources, 120, 12, n);
        core::NosWalkerEngine<RecordingPpr> eng(
            *file_, *partition_, config(threads, /*presample=*/true));
        const auto stats = eng.run(app, app.total_walkers());
        endpoints.push_back(app.endpoints);
        std::vector<std::uint32_t> v(app.visits.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
            v[i] = app.visits[i].load();
        }
        visits.push_back(std::move(v));
        steps.push_back(stats.steps);
    }
    EXPECT_GT(steps[0], 0u);
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]);
        EXPECT_EQ(endpoints[t], endpoints[0]) << "thread config " << t;
        EXPECT_EQ(visits[t], visits[0]) << "thread config " << t;
    }
}

TEST_F(ParallelStepTest, Node2VecIsBitIdenticalAcrossThreadCounts)
{
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::uint64_t> steps;
    std::vector<std::uint64_t> trials;
    for (const unsigned threads : {1u, 2u, 8u}) {
        RecordingNode2Vec app(2.0, 0.5, 12, file_->num_vertices(), 2);
        core::NosWalkerEngine<RecordingNode2Vec> eng(
            *file_, *partition_, config(threads, /*presample=*/true));
        const auto stats = eng.run(app, app.total_walkers());
        endpoints.push_back(app.endpoints);
        steps.push_back(stats.steps);
        trials.push_back(stats.rejection_trials);
    }
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]);
        EXPECT_EQ(trials[t], trials[0]);
        EXPECT_EQ(endpoints[t], endpoints[0]) << "thread config " << t;
    }
}

TEST_F(ParallelStepTest, RerunWithSameSeedRepeats)
{
    // The persistent pool survives across runs of one engine; repeated
    // runs must not leak state between them.
    constexpr std::uint64_t kWalkers = 300;
    ConcurrentRecordingWalk a(10, file_->num_vertices(), kWalkers);
    ConcurrentRecordingWalk b(10, file_->num_vertices(), kWalkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
        *file_, *partition_, config(4, /*presample=*/true));
    eng.run(a, kWalkers);
    eng.run(b, kWalkers);
    EXPECT_EQ(a.endpoints, b.endpoints);
}

TEST_F(ParallelStepTest, EmigrantOutboxOrderIsIndependentOfThreads)
{
    // Bucket order never shows in walk output, but the shard outbox
    // order does: run one shard-mode round over the lower half of the
    // blocks and compare the emigrants element by element.
    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint64_t kSeed = 77;
    const std::uint32_t end_block = partition_->num_blocks() / 2;
    ASSERT_GT(end_block, 0u);
    using Record = core::NosWalkerEngine<ConcurrentRecordingWalk>::Record;
    std::vector<std::vector<Record>> outboxes;
    for (const unsigned threads : {1u, 2u, 8u}) {
        ConcurrentRecordingWalk app(12, file_->num_vertices(), kWalkers);
        std::vector<Record> records;
        for (std::uint64_t id = 0; id < kWalkers; ++id) {
            records.push_back(engine::seed_record(app, id, kSeed));
        }
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, config(threads, /*presample=*/true));
        // The outbox is the concatenation of every flush, tail last.
        std::vector<Record> emigrants;
        eng.run_records(app, std::move(records), kSeed, 0, end_block,
                        [&](std::vector<Record> &&out, bool) {
                            emigrants.insert(
                                emigrants.end(),
                                std::make_move_iterator(out.begin()),
                                std::make_move_iterator(out.end()));
                        });
        outboxes.push_back(std::move(emigrants));
    }
    ASSERT_GT(outboxes[0].size(), 1u);
    for (std::size_t t = 1; t < outboxes.size(); ++t) {
        ASSERT_EQ(outboxes[t].size(), outboxes[0].size())
            << "thread config " << t;
        for (std::size_t i = 0; i < outboxes[0].size(); ++i) {
            const Record &a = outboxes[0][i];
            const Record &b = outboxes[t][i];
            EXPECT_EQ(b.w.id, a.w.id) << "thread config " << t << " @" << i;
            EXPECT_EQ(b.w.location, a.w.location);
            EXPECT_EQ(b.w.step, a.w.step);
            EXPECT_EQ(b.rng_state, a.rng_state);
        }
    }
}

} // namespace
} // namespace noswalker
