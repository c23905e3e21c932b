/**
 * @file
 * Correctness tests for the NosWalker engine itself.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "apps/basic_rw.hpp"
#include "apps/weighted_rw.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "storage/mem_device.hpp"
#include "util/error.hpp"

namespace noswalker::core {
namespace {

struct Fixture {
    graph::CsrGraph graph;
    storage::MemDevice device;
    std::unique_ptr<graph::GraphFile> file;
    std::unique_ptr<graph::BlockPartition> partition;

    Fixture(graph::CsrGraph g, std::uint64_t block_bytes)
        : graph(std::move(g))
    {
        graph::GraphFile::write(graph, device);
        file = std::make_unique<graph::GraphFile>(device);
        partition =
            std::make_unique<graph::BlockPartition>(*file, block_bytes);
    }
};

TEST(NosWalkerEngine, ExactStepCountOnCycle)
{
    Fixture s(graph::generate_cycle(100), 128);
    apps::BasicRandomWalk app(10, 100);
    EngineConfig cfg = EngineConfig::full(0, 128);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 50);
    EXPECT_EQ(stats.steps, 500u);
    EXPECT_EQ(stats.walkers, 50u);
    EXPECT_GT(stats.graph_bytes_read, 0u);
}

TEST(NosWalkerEngine, TransitionsFollowRealEdges)
{
    Fixture s(graph::generate_rmat({.scale = 9,
                                  .edge_factor = 8,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 21,
                                  .symmetrize = false,
                                  .weighted = false}),
            4096);
    testing_support::RecordingWalk app(8, s.graph.num_vertices());
    // Small budget to force genuinely out-of-core behaviour.
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition, 0.25);
    EngineConfig cfg = EngineConfig::full(budget, 4096);
    NosWalkerEngine<testing_support::RecordingWalk> eng(*s.file,
                                                        *s.partition, cfg);
    const auto stats = eng.run(app, 300);
    EXPECT_EQ(stats.steps, app.transitions.size());
    for (const auto &[from, to] : app.transitions) {
        ASSERT_TRUE(s.graph.has_edge(from, to))
            << from << "->" << to << " is not an edge";
    }
}

TEST(NosWalkerEngine, EveryWalkerTakesExactlyLStepsOnRegularGraph)
{
    Fixture s(graph::generate_uniform(2000, 12, 5), 4096);
    testing_support::RecordingWalk app(7, 2000);
    EngineConfig cfg = EngineConfig::full(
        testing_support::tight_budget(*s.file, *s.partition), 4096);
    NosWalkerEngine<testing_support::RecordingWalk> eng(*s.file,
                                                        *s.partition, cfg);
    const auto stats = eng.run(app, 500);
    EXPECT_EQ(stats.walkers, 500u);
    EXPECT_EQ(stats.steps, 500u * 7);
    EXPECT_EQ(app.steps_per_walker.size(), 500u);
    for (const auto &[id, steps] : app.steps_per_walker) {
        EXPECT_EQ(steps, 7u) << "walker " << id;
    }
}

TEST(NosWalkerEngine, EndpointDistributionUniformOnComplete)
{
    Fixture s(graph::generate_complete(8), 1 << 20);
    // Record endpoints through the recording app.
    testing_support::RecordingWalk app(4, 8);
    EngineConfig cfg = EngineConfig::full(0, 1 << 20);
    cfg.seed = 99;
    NosWalkerEngine<testing_support::RecordingWalk> eng(*s.file,
                                                        *s.partition, cfg);
    eng.run(app, 4000);
    std::vector<int> counts(8, 0);
    for (const auto &[from, to] : app.transitions) {
        (void)from;
        ++counts[to];
    }
    const double n = static_cast<double>(app.transitions.size());
    double chi2 = 0.0;
    for (int c : counts) {
        // Uniform target over 7 out-neighbours averages to uniform
        // over all 8 vertices at stationarity; allow loose tolerance.
        const double expected = n / 8.0;
        chi2 += (c - expected) * (c - expected) / expected;
    }
    // 7 dof, alpha = 0.001 => 24.32; loose cap for mixing effects.
    EXPECT_LT(chi2, 40.0);
}

TEST(NosWalkerEngine, MemoryBudgetPeakRespected)
{
    Fixture s(graph::generate_rmat({.scale = 10,
                                  .edge_factor = 8,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 22,
                                  .symmetrize = false,
                                  .weighted = false}),
            8192);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition);
    EngineConfig cfg = EngineConfig::full(budget, 8192);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 1000);
    EXPECT_LE(stats.peak_memory, budget);
    EXPECT_GT(stats.peak_memory, 0u);
}

TEST(NosWalkerEngine, InfeasibleBudgetThrows)
{
    Fixture s(graph::generate_rmat({.scale = 10,
                                  .edge_factor = 8,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 23,
                                  .symmetrize = false,
                                  .weighted = false}),
            1 << 20);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    EngineConfig cfg = EngineConfig::full(1024, 1 << 20);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    EXPECT_THROW(eng.run(app, 10), util::BudgetExceeded);
}

TEST(NosWalkerEngine, DeterministicForSeed)
{
    Fixture s(graph::generate_rmat({.scale = 8,
                                  .edge_factor = 8,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 24,
                                  .symmetrize = false,
                                  .weighted = false}),
            4096);
    EngineConfig cfg = EngineConfig::full(0, 4096);
    cfg.loader_threads = 0; // synchronous: fully deterministic schedule
    testing_support::RecordingWalk app1(6, s.graph.num_vertices());
    testing_support::RecordingWalk app2(6, s.graph.num_vertices());
    NosWalkerEngine<testing_support::RecordingWalk> e1(*s.file,
                                                       *s.partition, cfg);
    NosWalkerEngine<testing_support::RecordingWalk> e2(*s.file,
                                                       *s.partition, cfg);
    const auto s1 = e1.run(app1, 200);
    const auto s2 = e2.run(app2, 200);
    EXPECT_EQ(s1.steps, s2.steps);
    EXPECT_EQ(s1.graph_bytes_read, s2.graph_bytes_read);
    EXPECT_EQ(app1.transitions, app2.transitions);
}

TEST(NosWalkerEngine, KnobCombinationsAllAgreeOnStepCount)
{
    Fixture s(graph::generate_uniform(1500, 10, 6), 4096);
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition);
    const std::uint64_t expected = 400u * 5;
    for (int mask = 0; mask < 8; ++mask) {
        EngineConfig cfg = EngineConfig::full(budget, 4096);
        cfg.walker_management = (mask & 1) != 0;
        cfg.shrink_block = (mask & 2) != 0;
        cfg.presample = (mask & 4) != 0;
        apps::BasicRandomWalk app(5, 1500);
        NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition,
                                                   cfg);
        const auto stats = eng.run(app, 400);
        EXPECT_EQ(stats.steps, expected) << "knob mask " << mask;
        EXPECT_EQ(stats.walkers, 400u) << "knob mask " << mask;
    }
}

TEST(NosWalkerEngine, PresampleStepsServeWalkers)
{
    Fixture s(graph::generate_rmat({.scale = 10,
                                  .edge_factor = 16,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 25,
                                  .symmetrize = false,
                                  .weighted = false}),
            8192);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    EngineConfig cfg = EngineConfig::full(
        testing_support::tight_budget(*s.file, *s.partition, 0.25), 8192);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 2000);
    EXPECT_GT(stats.presample_steps, 0u);
    EXPECT_GT(stats.block_steps, 0u);
    EXPECT_EQ(stats.presample_steps + stats.block_steps, stats.steps);
}

TEST(NosWalkerEngine, BaseImplementationChargesSwapTraffic)
{
    // Dead-end free so both configurations take identical step totals.
    Fixture s(graph::generate_uniform(2000, 16, 26), 8192);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition, 0.25);
    EngineConfig cfg = EngineConfig::base_implementation(budget, 8192);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    // Many walkers relative to the budget: swapping must occur.
    const auto stats = eng.run(app, 50000);
    EXPECT_GT(stats.swap_bytes, 0u);
    // Full NosWalker never swaps.
    EngineConfig full_cfg = EngineConfig::full(budget, 8192);
    apps::BasicRandomWalk app2(10, s.graph.num_vertices());
    NosWalkerEngine<apps::BasicRandomWalk> full_eng(*s.file, *s.partition,
                                                    full_cfg);
    const auto full_stats = full_eng.run(app2, 50000);
    EXPECT_EQ(full_stats.swap_bytes, 0u);
    EXPECT_EQ(full_stats.steps, stats.steps);
}

TEST(NosWalkerEngine, FineModeEngagesForSparseWalkers)
{
    Fixture s(graph::generate_rmat({.scale = 11,
                                  .edge_factor = 8,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 27,
                                  .symmetrize = false,
                                  .weighted = false}),
            8192);
    apps::BasicRandomWalk app(64, s.graph.num_vertices());
    EngineConfig cfg = EngineConfig::full(
        testing_support::tight_budget(*s.file, *s.partition, 0.25), 8192);
    cfg.max_walkers = 4; // very sparse: α·|Wa|·4KiB << S_G
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 8);
    EXPECT_GT(stats.fine_loads, 0u);
}

TEST(NosWalkerEngine, ZeroWalkersIsANoop)
{
    Fixture s(graph::generate_cycle(16), 64);
    apps::BasicRandomWalk app(5, 16);
    EngineConfig cfg = EngineConfig::full(0, 64);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 0);
    EXPECT_EQ(stats.steps, 0u);
    EXPECT_EQ(stats.walkers, 0u);
}

TEST(NosWalkerEngine, SynchronousLoaderMatchesThreadedStepCount)
{
    Fixture s(graph::generate_uniform(800, 8, 7), 4096);
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition);
    EngineConfig async_cfg = EngineConfig::full(budget, 4096);
    EngineConfig sync_cfg = async_cfg;
    sync_cfg.loader_threads = 0;
    apps::BasicRandomWalk a1(6, 800);
    apps::BasicRandomWalk a2(6, 800);
    NosWalkerEngine<apps::BasicRandomWalk> e1(*s.file, *s.partition,
                                              async_cfg);
    NosWalkerEngine<apps::BasicRandomWalk> e2(*s.file, *s.partition,
                                              sync_cfg);
    EXPECT_EQ(e1.run(a1, 300).steps, e2.run(a2, 300).steps);
}

TEST(NosWalkerEngine, DeadEndWalkersRetireEarly)
{
    // 0 -> 1, 1 has no out-edges.
    graph::CsrGraph g({0, 1, 1}, {1});
    Fixture s(std::move(g), 64);
    apps::BasicRandomWalk app(5, 1, /*random_start=*/false);
    EngineConfig cfg = EngineConfig::full(0, 64);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 10); // all start at vertex 0
    EXPECT_EQ(stats.walkers, 10u);
    EXPECT_EQ(stats.steps, 10u); // one step each, then dead end
}

TEST(NosWalkerEngine, WeightedWalkRunsOnAliasFile)
{
    auto g = graph::generate_rmat({.scale = 8,
                                   .edge_factor = 8,
                                   .a = 0.57,
                                   .b = 0.19,
                                   .c = 0.19,
                                   .seed = 28,
                                   .symmetrize = false,
                                   .weighted = true});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev, /*with_alias=*/true);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 8192);
    apps::WeightedRandomWalk app(10, file.num_vertices());
    graph::BlockPartition &partref = part;
    EngineConfig cfg = EngineConfig::full(
        testing_support::tight_budget(file, partref), 8192);
    NosWalkerEngine<apps::WeightedRandomWalk> eng(file, part, cfg);
    const auto stats = eng.run(app, 500);
    EXPECT_GT(stats.steps, 0u);
    EXPECT_EQ(stats.walkers, 500u);
}

TEST(NosWalkerEngine, RunIsRepeatableOnSameEngineObject)
{
    Fixture s(graph::generate_cycle(32), 64);
    apps::BasicRandomWalk app(4, 32);
    EngineConfig cfg = EngineConfig::full(0, 64);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto s1 = eng.run(app, 20);
    const auto s2 = eng.run(app, 20);
    EXPECT_EQ(s1.steps, s2.steps);
}

TEST(NosWalkerEngine, PresampleFirstPolicyStillCompletes)
{
    // use_loaded_block=false flips the source priority: pre-samples
    // are consumed eagerly with the loaded block as fallback.  The run
    // must complete with the same step totals.
    Fixture s(graph::generate_uniform(1500, 10, 61), 4096);
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition);
    EngineConfig cfg = EngineConfig::full(budget, 4096);
    cfg.use_loaded_block = false;
    apps::BasicRandomWalk app(6, 1500);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 300);
    EXPECT_EQ(stats.steps, 300u * 6);
    EXPECT_GT(stats.presample_steps, 0u);
}

TEST(NosWalkerEngine, SingleBufferModeUnderVeryTightBudget)
{
    // A budget just above the floor triggers the single-buffer
    // degradation; the run must still complete within budget.
    Fixture s(graph::generate_uniform(3000, 16, 62), 16384);
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition, 0.05);
    EngineConfig cfg = EngineConfig::full(budget, 16384);
    apps::BasicRandomWalk app(8, 3000);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 500);
    EXPECT_EQ(stats.steps, 500u * 8);
    EXPECT_LE(stats.peak_memory, budget);
}

/** BasicRandomWalk that reads one page of @p device at every step: a
 *  stand-in for another engine reading the same device mid-run. */
class NeighbourReadingWalk : public apps::BasicRandomWalk {
  public:
    NeighbourReadingWalk(std::uint32_t length, graph::VertexId vertices,
                         storage::IoDevice &device)
        : BasicRandomWalk(length, vertices), device_(&device)
    {
    }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &rng)
    {
        std::array<std::byte, 4096> page{};
        device_->read(0, page.size(), page.data());
        return BasicRandomWalk::action(w, next, rng);
    }

  private:
    storage::IoDevice *device_;
};

TEST(NosWalkerEngine, IoCountersCountOnlyTheRunsOwnLoads)
{
    // Device counters also count every other reader of the device, so
    // a run's I/O is attributed from its own loads: a run that shares
    // its device reports exactly the bytes of the same run alone.
    Fixture s(graph::generate_uniform(3000, 16, 62), 16384);
    const EngineConfig cfg = EngineConfig::full(0, 16384);

    apps::BasicRandomWalk alone_app(8, 3000);
    NosWalkerEngine<apps::BasicRandomWalk> alone_eng(*s.file, *s.partition,
                                                     cfg);
    const storage::IoStats before = s.device.stats();
    const auto alone = alone_eng.run(alone_app, 500);
    const storage::IoStats after = s.device.stats();
    // Alone on the device, the run's own loads are the device's reads.
    EXPECT_EQ(alone.graph_bytes_read, after.bytes_read - before.bytes_read);
    EXPECT_EQ(alone.graph_read_requests,
              after.read_requests - before.read_requests);

    NeighbourReadingWalk shared_app(8, 3000, s.device);
    NosWalkerEngine<NeighbourReadingWalk> shared_eng(*s.file, *s.partition,
                                                     cfg);
    const auto shared = shared_eng.run(shared_app, 500);
    ASSERT_EQ(shared.steps, alone.steps);
    // The neighbour's page per step did reach the device.
    EXPECT_EQ(s.device.stats().bytes_read - after.bytes_read,
              shared.graph_bytes_read + shared.steps * 4096);
    EXPECT_EQ(shared.graph_bytes_read, alone.graph_bytes_read);
    EXPECT_EQ(shared.graph_read_requests, alone.graph_read_requests);
    EXPECT_EQ(shared.edges_loaded, alone.edges_loaded);
    EXPECT_DOUBLE_EQ(shared.io_busy_seconds, alone.io_busy_seconds);
}

TEST(EngineConfig, ValidationCatchesNonsense)
{
    EngineConfig cfg;
    cfg.block_bytes = 0;
    EXPECT_THROW(cfg.validate(), util::ConfigError);
    cfg = EngineConfig{};
    cfg.alpha = -1;
    EXPECT_THROW(cfg.validate(), util::ConfigError);
    cfg = EngineConfig{};
    cfg.presamples_per_vertex = 0;
    EXPECT_THROW(cfg.validate(), util::ConfigError);
    cfg = EngineConfig{};
    cfg.presample_memory_fraction = 1.0;
    EXPECT_THROW(cfg.validate(), util::ConfigError);
    EXPECT_NO_THROW(EngineConfig{}.validate());
}

} // namespace
} // namespace noswalker::core
