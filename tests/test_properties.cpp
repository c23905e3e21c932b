/**
 * @file
 * Parameterized property suites: the core invariants must hold across
 * graph families × block sizes × budget fractions × engines.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "apps/basic_rw.hpp"
#include "baselines/drunkardmob.hpp"
#include "baselines/graphene.hpp"
#include "baselines/graphwalker.hpp"
#include "baselines/inmemory.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "storage/mem_device.hpp"

namespace noswalker {
namespace {

enum class Family { kRmat, kUniform, kPowerLaw };

std::string
family_name(Family f)
{
    switch (f) {
      case Family::kRmat: return "rmat";
      case Family::kUniform: return "uniform";
      case Family::kPowerLaw: return "powerlaw";
    }
    return "?";
}

/** A graph of family @p f with 2^@p shift times the base vertex
 *  count (1,024 rmat and uniform, 2,048 power-law vertices). */
graph::CsrGraph
make_graph(Family f, unsigned shift)
{
    switch (f) {
      case Family::kRmat:
        return graph::generate_rmat({.scale = 10 + shift,
                                     .edge_factor = 16,
                                     .a = 0.57,
                                     .b = 0.19,
                                     .c = 0.19,
                                     .seed = 77,
                                     .symmetrize = false,
                                     .weighted = false});
      case Family::kUniform:
        return graph::generate_uniform(1024u << shift, 16, 78);
      case Family::kPowerLaw:
        return graph::generate_power_law(2048u << shift, 2.7, 2, 128, 79);
    }
    return {};
}

using Params = std::tuple<Family, std::uint64_t /*block*/,
                          double /*budget fraction; 0 = unlimited*/>;

class EngineProperties : public testing::TestWithParam<Params> {
  protected:
    void SetUp() override { build(0); }

    /** Build the parameter's graph, 2^@p shift times the base size. */
    void
    build(unsigned shift)
    {
        const auto [family, block_bytes, fraction] = GetParam();
        graph_ = make_graph(family, shift);
        graph::GraphFile::write(graph_, device_);
        file_ = std::make_unique<graph::GraphFile>(device_);
        partition_ = std::make_unique<graph::BlockPartition>(*file_,
                                                             block_bytes);
        budget_ = fraction == 0.0
                      ? 0
                      : testing_support::tight_budget(*file_, *partition_,
                                                      fraction);
        block_bytes_ = block_bytes;
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_{storage::SsdModel::p4618()};
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
    std::uint64_t budget_ = 0;
    std::uint64_t block_bytes_ = 0;
};

TEST_P(EngineProperties, NosWalkerTransitionsAreRealEdges)
{
    testing_support::RecordingWalk app(6, graph_.num_vertices());
    core::EngineConfig cfg = core::EngineConfig::full(budget_,
                                                      block_bytes_);
    core::NosWalkerEngine<testing_support::RecordingWalk> eng(
        *file_, *partition_, cfg);
    const auto stats = eng.run(app, 250);
    EXPECT_EQ(stats.steps, app.transitions.size());
    for (const auto &[from, to] : app.transitions) {
        ASSERT_TRUE(graph_.has_edge(from, to));
    }
    if (budget_ != 0) {
        EXPECT_LE(stats.peak_memory, budget_);
    }
}

TEST_P(EngineProperties, AllEnginesRetireAllWalkersWithEqualSteps)
{
    const std::uint64_t walkers = 200;
    apps::BasicRandomWalk a1(8, graph_.num_vertices());
    apps::BasicRandomWalk a2(8, graph_.num_vertices());
    apps::BasicRandomWalk a3(8, graph_.num_vertices());
    apps::BasicRandomWalk a4(8, graph_.num_vertices());

    core::EngineConfig cfg = core::EngineConfig::full(budget_,
                                                      block_bytes_);
    core::NosWalkerEngine<apps::BasicRandomWalk> nw(*file_, *partition_,
                                                    cfg);
    baselines::GraphWalkerEngine<apps::BasicRandomWalk> gw(
        *file_, *partition_, 0);
    baselines::DrunkardMobEngine<apps::BasicRandomWalk> dm(
        *file_, *partition_, 0);
    baselines::InMemoryEngine<apps::BasicRandomWalk> im(*file_);

    const auto s1 = nw.run(a1, walkers);
    const auto s2 = gw.run(a2, walkers);
    const auto s3 = dm.run(a3, walkers);
    const auto s4 = im.run(a4, walkers);
    EXPECT_EQ(s1.walkers, walkers);
    EXPECT_EQ(s2.walkers, walkers);
    EXPECT_EQ(s3.walkers, walkers);
    EXPECT_EQ(s4.walkers, walkers);
    // On dead-end-free graphs every walker takes exactly L steps, so
    // all engines must agree; with dead ends the cut-off point is
    // path-dependent and totals legitimately differ.
    bool has_dead_end = false;
    for (graph::VertexId v = 0; v < graph_.num_vertices(); ++v) {
        if (graph_.degree(v) == 0) {
            has_dead_end = true;
            break;
        }
    }
    if (!has_dead_end) {
        EXPECT_EQ(s1.steps, walkers * 8);
        EXPECT_EQ(s2.steps, walkers * 8);
        EXPECT_EQ(s3.steps, walkers * 8);
        EXPECT_EQ(s4.steps, walkers * 8);
    }
}

TEST_P(EngineProperties, DeviceCountersAreConsistent)
{
    apps::BasicRandomWalk app(6, graph_.num_vertices());
    core::EngineConfig cfg = core::EngineConfig::full(budget_,
                                                      block_bytes_);
    device_.reset_stats();
    core::NosWalkerEngine<apps::BasicRandomWalk> eng(*file_, *partition_,
                                                     cfg);
    const auto stats = eng.run(app, 300);
    const storage::IoStats io = device_.stats();
    // Engine-visible counters must match the device's ground truth.
    EXPECT_EQ(stats.graph_bytes_read, io.bytes_read);
    EXPECT_EQ(stats.graph_read_requests, io.read_requests);
    EXPECT_GT(io.busy_seconds, 0.0);
    EXPECT_EQ(stats.edges_loaded,
              io.bytes_read / file_->record_bytes());
}

/**
 * The edges-per-step comparison is about constrained runs, where
 * neither engine caches the whole graph.  tight_budget's floor (index,
 * buffer pair, 48 KiB) exceeds the base graphs' file size, so this
 * suite runs on graphs 16 times larger, at the bounded budgets only.
 */
class BoundedEngineProperties : public EngineProperties {
  protected:
    void SetUp() override { build(4); }
};

TEST_P(BoundedEngineProperties,
       NosWalkerNeverLoadsMoreEdgesPerStepThanGraphWalker)
{
    ASSERT_NE(budget_, 0u);
    ASSERT_LT(budget_, file_->file_bytes());
    apps::BasicRandomWalk a1(10, graph_.num_vertices());
    apps::BasicRandomWalk a2(10, graph_.num_vertices());
    core::EngineConfig cfg = core::EngineConfig::full(budget_,
                                                      block_bytes_);
    core::NosWalkerEngine<apps::BasicRandomWalk> nw(*file_, *partition_,
                                                    cfg);
    baselines::GraphWalkerEngine<apps::BasicRandomWalk> gw(
        *file_, *partition_, budget_);
    const auto s1 = nw.run(a1, 500);
    const auto s2 = gw.run(a2, 500);
    EXPECT_LE(s1.edges_per_step(), s2.edges_per_step() * 1.05);
}

std::string
sweep_name(const testing::TestParamInfo<Params> &info)
{
    const Family family = std::get<0>(info.param);
    const std::uint64_t block = std::get<1>(info.param);
    const double fraction = std::get<2>(info.param);
    return family_name(family) + "_b" + std::to_string(block) + "_m" +
           std::to_string(static_cast<int>(fraction * 100));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineProperties,
    testing::Combine(testing::Values(Family::kRmat, Family::kUniform,
                                     Family::kPowerLaw),
                     testing::Values(std::uint64_t{4096},
                                     std::uint64_t{16384}),
                     testing::Values(0.0, 0.3, 0.6)),
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    Bounded, BoundedEngineProperties,
    testing::Combine(testing::Values(Family::kRmat, Family::kUniform,
                                     Family::kPowerLaw),
                     testing::Values(std::uint64_t{4096},
                                     std::uint64_t{16384}),
                     testing::Values(0.3, 0.6)),
    sweep_name);

/** Dataset twins must all be walkable end to end. */
class DatasetProperties
    : public testing::TestWithParam<graph::DatasetId> {};

TEST_P(DatasetProperties, NosWalkerCompletesOnEveryTwin)
{
    const graph::DatasetSpec &spec = graph::dataset_spec(GetParam());
    const graph::CsrGraph g = graph::build_dataset(GetParam(), 10);
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev, spec.alias_tables);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 8192);
    apps::BasicRandomWalk app(5, file.num_vertices());
    core::EngineConfig cfg = core::EngineConfig::full(
        testing_support::tight_budget(file, part, 0.4), 8192);
    core::NosWalkerEngine<apps::BasicRandomWalk> eng(file, part, cfg);
    const auto stats = eng.run(app, 300);
    EXPECT_EQ(stats.walkers, 300u) << spec.name;
}

std::string
twin_name(const testing::TestParamInfo<graph::DatasetId> &info)
{
    return std::string("twin") +
           std::to_string(static_cast<int>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllTwins, DatasetProperties,
    testing::Values(graph::DatasetId::kTwitter, graph::DatasetId::kYahoo,
                    graph::DatasetId::kKron30, graph::DatasetId::kKron31,
                    graph::DatasetId::kCrawlWeb,
                    graph::DatasetId::kKron30W, graph::DatasetId::kG12,
                    graph::DatasetId::kAlpha27),
    twin_name);

} // namespace
} // namespace noswalker
