/**
 * @file
 * Behavioural tests of the baseline engines: each must exhibit the
 * scheduling policy of the system it reproduces.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/basic_rw.hpp"
#include "baselines/drunkardmob.hpp"
#include "baselines/graphene.hpp"
#include "baselines/graphwalker.hpp"
#include "baselines/inmemory.hpp"
#include "baselines/knightking_model.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "storage/mem_device.hpp"
#include "util/error.hpp"

namespace noswalker::baselines {
namespace {

struct Fixture {
    graph::CsrGraph graph;
    storage::MemDevice device;
    std::unique_ptr<graph::GraphFile> file;
    std::unique_ptr<graph::BlockPartition> partition;

    explicit Fixture(graph::CsrGraph g, std::uint64_t block_bytes = 8192)
        : graph(std::move(g))
    {
        graph::GraphFile::write(graph, device);
        file = std::make_unique<graph::GraphFile>(device);
        partition =
            std::make_unique<graph::BlockPartition>(*file, block_bytes);
    }
};

graph::CsrGraph
test_rmat(std::uint64_t seed = 40, unsigned scale = 9)
{
    return graph::generate_rmat({.scale = scale,
                                 .edge_factor = 16,
                                 .a = 0.57,
                                 .b = 0.19,
                                 .c = 0.19,
                                 .seed = seed,
                                 .symmetrize = false,
                                 .weighted = false});
}

TEST(DrunkardMob, StepCountExactOnRegularGraph)
{
    Fixture s(graph::generate_uniform(1000, 8, 2));
    apps::BasicRandomWalk app(10, 1000);
    DrunkardMobEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, 0);
    const auto stats = eng.run(app, 200);
    EXPECT_EQ(stats.steps, 2000u);
    EXPECT_EQ(stats.walkers, 200u);
}

TEST(DrunkardMob, LoadsEveryBlockEachSweep)
{
    Fixture s(test_rmat(), 4096);
    // One walker with one step starting at vertex 0 (never isolated in
    // RMAT): DrunkardMob still streams whole blocks to serve it.
    apps::BasicRandomWalk app(1, s.graph.num_vertices(),
                              /*random_start=*/false);
    DrunkardMobEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, 0);
    const auto stats = eng.run(app, 1);
    // A full sweep is up to num_blocks loads for a single step.
    EXPECT_GE(stats.blocks_loaded, 1u);
    EXPECT_GT(stats.edges_per_step(), 1.0);
}

TEST(DrunkardMob, FailsWhenWalkersExceedBudget)
{
    Fixture s(test_rmat(), 8192);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    // Budget fits the index and buffers but not 10^6 walker states.
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition, 0.4);
    DrunkardMobEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition,
                                                 budget);
    EXPECT_THROW(eng.run(app, 1'000'000), util::BudgetExceeded);
}

TEST(GraphWalker, ReentryMovesMultipleStepsPerLoad)
{
    Fixture s(test_rmat(), 1ULL << 30); // single block: full re-entry
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    GraphWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, 0);
    const auto stats = eng.run(app, 100);
    // One block, walkers never leave it: a single load suffices.
    EXPECT_EQ(stats.blocks_loaded, 1u);
    EXPECT_EQ(stats.steps, stats.block_steps);
}

TEST(GraphWalker, FewerEdgesPerStepThanDrunkardMob)
{
    Fixture s(test_rmat(), 4096);
    apps::BasicRandomWalk a1(10, s.graph.num_vertices());
    apps::BasicRandomWalk a2(10, s.graph.num_vertices());
    // A tight budget keeps both systems genuinely out of core (with an
    // unlimited budget both would cache the whole graph).
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition, 0.3);
    DrunkardMobEngine<apps::BasicRandomWalk> dm(*s.file, *s.partition,
                                                budget);
    GraphWalkerEngine<apps::BasicRandomWalk> gw(*s.file, *s.partition,
                                                budget);
    const auto sd = dm.run(a1, 500);
    const auto sg = gw.run(a2, 500);
    // Dead ends make exact step totals path-dependent; compare the
    // normalized Fig 2(a) metric: GraphWalker needs fewer loaded edges
    // per step than DrunkardMob.
    EXPECT_NEAR(static_cast<double>(sd.steps),
                static_cast<double>(sg.steps), 0.05 * sd.steps);
    EXPECT_LT(sg.edges_per_step(), sd.edges_per_step());
}

TEST(GraphWalker, SpillsUnderTightWalkerBuffer)
{
    Fixture s(test_rmat(41, 10), 8192);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition, 0.3);
    GraphWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition,
                                                 budget);
    const auto stats = eng.run(app, 100'000);
    EXPECT_GT(stats.swap_bytes, 0u);
    // Unlimited budget: no swapping at all.
    apps::BasicRandomWalk app2(10, s.graph.num_vertices());
    GraphWalkerEngine<apps::BasicRandomWalk> roomy(*s.file, *s.partition,
                                                   0);
    EXPECT_EQ(roomy.run(app2, 100'000).swap_bytes, 0u);
}

TEST(GraphWalker, TransitionsFollowRealEdges)
{
    Fixture s(test_rmat(42), 4096);
    testing_support::RecordingWalk app(6, s.graph.num_vertices());
    GraphWalkerEngine<testing_support::RecordingWalk> eng(*s.file,
                                                          *s.partition, 0);
    eng.run(app, 200);
    for (const auto &[from, to] : app.transitions) {
        ASSERT_TRUE(s.graph.has_edge(from, to));
    }
}

TEST(Graphene, OnlyIssuesFineLoads)
{
    Fixture s(test_rmat(43), 4096);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    GrapheneEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, 0);
    const auto stats = eng.run(app, 300);
    EXPECT_GT(stats.fine_loads, 0u);
    EXPECT_EQ(stats.blocks_loaded, 0u);
    EXPECT_GT(stats.steps, 0u);
}

TEST(Graphene, SkipsWalkerFreeBlocks)
{
    Fixture s(test_rmat(44), 4096);
    // One walker, one step, from vertex 0: only its pages are touched.
    apps::BasicRandomWalk app(1, s.graph.num_vertices(),
                              /*random_start=*/false);
    GrapheneEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, 0);
    const auto stats = eng.run(app, 1);
    EXPECT_EQ(stats.fine_loads, 1u);
    EXPECT_LE(stats.graph_bytes_read,
              8 * storage::BlockReader::kPageBytes);
}

TEST(Graphene, ReadsLessThanDrunkardMob)
{
    Fixture s(test_rmat(45), 4096);
    apps::BasicRandomWalk a1(10, s.graph.num_vertices());
    apps::BasicRandomWalk a2(10, s.graph.num_vertices());
    // Tight budget: DrunkardMob cannot cache the graph, while
    // Graphene's on-demand fine loads touch only walker pages.
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition, 0.3);
    DrunkardMobEngine<apps::BasicRandomWalk> dm(*s.file, *s.partition,
                                                budget);
    GrapheneEngine<apps::BasicRandomWalk> ge(*s.file, *s.partition, 0);
    const auto sd = dm.run(a1, 100);
    const auto sg = ge.run(a2, 100);
    EXPECT_EQ(sd.steps, sg.steps);
    EXPECT_LT(sg.graph_bytes_read, sd.graph_bytes_read);
}

TEST(GraphWalker, CachesBlocksWhenBudgetAllows)
{
    Fixture s(test_rmat(48), 4096);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    // Unlimited budget: the whole graph is cached, so device traffic
    // cannot exceed one full pass over the edge region (plus header).
    GraphWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition,
                                                 0);
    const auto stats = eng.run(app, 2000);
    EXPECT_LE(stats.graph_bytes_read,
              s.file->edge_region_bytes() + (64 << 10));
}

TEST(InMemory, LoadsEdgeRegionExactlyOnce)
{
    Fixture s(test_rmat(46));
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    InMemoryEngine<apps::BasicRandomWalk> eng(*s.file);
    const auto stats = eng.run(app, 500);
    EXPECT_EQ(stats.graph_bytes_read, s.file->edge_region_bytes());
    EXPECT_EQ(stats.edges_loaded, s.file->num_edges());
    EXPECT_GT(stats.io_busy_seconds, 0.0);
}

TEST(InMemory, StepCountMatchesOutOfCoreEngines)
{
    Fixture s(graph::generate_uniform(500, 6, 3));
    apps::BasicRandomWalk a1(8, 500);
    apps::BasicRandomWalk a2(8, 500);
    InMemoryEngine<apps::BasicRandomWalk> im(*s.file);
    GraphWalkerEngine<apps::BasicRandomWalk> gw(*s.file, *s.partition, 0);
    EXPECT_EQ(im.run(a1, 300).steps, gw.run(a2, 300).steps);
}

TEST(KnightKing, NetworkModelMath)
{
    ClusterModel m;
    m.nodes = 4;
    m.network_bps = 10e9;
    m.message_bytes = 16;
    // 1M messages * 16B over 4 * 1.25 GB/s.
    EXPECT_NEAR(m.network_seconds(1'000'000),
                16e6 / (1.25e9 * 4), 1e-9);
    EXPECT_DOUBLE_EQ(m.network_seconds(0), 0.0);
    ClusterModel single;
    single.nodes = 1;
    EXPECT_DOUBLE_EQ(single.network_seconds(1'000'000), 0.0);
}

TEST(KnightKing, LoadModelMath)
{
    ClusterModel m;
    m.nodes = 4;
    m.load_bandwidth = 1e9;
    EXPECT_DOUBLE_EQ(m.load_seconds(4'000'000'000ULL), 1.0);
}

TEST(KnightKing, CountsCrossPartitionMessages)
{
    Fixture s(test_rmat(47));
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    ClusterModel m;
    m.nodes = 4;
    KnightKingModelEngine<apps::BasicRandomWalk> eng(*s.file, m);
    const auto result = eng.run(app, 500);
    EXPECT_GT(result.cross_partition_messages, 0u);
    // Hash partitioning: ~3/4 of steps cross nodes.
    EXPECT_LE(result.cross_partition_messages, result.stats.steps);
    EXPECT_GT(result.cross_partition_messages, result.stats.steps / 2);
    EXPECT_GT(result.total_seconds(), result.walk_seconds());
}

TEST(KnightKing, WalkSecondsIsMaxOfComputeAndNetwork)
{
    ClusterRunResult r;
    r.compute_seconds = 2.0;
    r.network_seconds = 3.0;
    r.load_seconds = 1.0;
    EXPECT_DOUBLE_EQ(r.walk_seconds(), 3.0);
    EXPECT_DOUBLE_EQ(r.total_seconds(), 4.0);
}

TEST(RunStats, ModeledTimePolicies)
{
    engine::RunStats sync;
    sync.io_busy_seconds = 2.0;
    sync.io_efficiency = 0.25;
    sync.cpu_seconds = 1.0;
    sync.pipelined = false;
    EXPECT_DOUBLE_EQ(sync.modeled_seconds(), 9.0);

    engine::RunStats piped = sync;
    piped.pipelined = true;
    piped.io_efficiency = 0.8;
    EXPECT_DOUBLE_EQ(piped.modeled_seconds(), 2.5);

    engine::RunStats cpu_bound = piped;
    cpu_bound.cpu_seconds = 10.0;
    EXPECT_DOUBLE_EQ(cpu_bound.modeled_seconds(), 10.0);

    // Pipelined overlap hides busy phases in each other, but seconds
    // the consumer provably blocked on loads extend the total.
    engine::RunStats stalled = piped;
    stalled.io_wait_seconds = 0.75;
    EXPECT_DOUBLE_EQ(stalled.modeled_seconds(), 3.25);

    // The non-pipelined total already serializes loading and stepping;
    // the wait term must not be double counted there.
    engine::RunStats sync_stalled = sync;
    sync_stalled.io_wait_seconds = 0.75;
    EXPECT_DOUBLE_EQ(sync_stalled.modeled_seconds(), 9.0);
}

TEST(RunStats, ScaledAndAccumulateRoundTripNewerCounters)
{
    // Every counter added since the walk-service PR must survive both
    // scaled() (per-tenant attribution) and operator+= (fleet totals)
    // with its intended semantics: waits and hit/mispredict counts are
    // additive work, pre-sample pool sizes and peaks are shared-state
    // maxima that scaling must NOT split.
    engine::RunStats s;
    s.io_wait_seconds = 2.0;
    s.prefetch_hits = 40;
    s.prefetch_mispredicts = 8;
    s.cache_hit_blocks = 6;
    s.cache_miss_blocks = 8;
    s.migrations = 100;
    s.migration_batches = 10;
    s.migration_wait_seconds = 0.4;
    s.migration_overlap_seconds = 0.8;
    s.presample_bytes_used = 1000;
    s.presample_bytes_total = 4000;
    s.peak_memory = 512;
    s.io_efficiency = 0.8;
    s.pipelined = true;

    const engine::RunStats half = s.scaled(0.5);
    EXPECT_DOUBLE_EQ(half.io_wait_seconds, 1.0);
    EXPECT_EQ(half.prefetch_hits, 20u);
    EXPECT_EQ(half.prefetch_mispredicts, 4u);
    EXPECT_EQ(half.cache_hit_blocks, 3u);
    EXPECT_EQ(half.cache_miss_blocks, 4u);
    EXPECT_EQ(half.migrations, 50u);
    EXPECT_EQ(half.migration_batches, 5u);
    EXPECT_DOUBLE_EQ(half.migration_wait_seconds, 0.2);
    EXPECT_DOUBLE_EQ(half.migration_overlap_seconds, 0.4);
    EXPECT_EQ(half.presample_bytes_used, 1000u)
        << "shared pool size is not divisible across tenants";
    EXPECT_EQ(half.presample_bytes_total, 4000u);
    EXPECT_EQ(half.peak_memory, 512u);
    EXPECT_DOUBLE_EQ(half.io_efficiency, 0.8);
    EXPECT_TRUE(half.pipelined);

    engine::RunStats sum = half;
    engine::RunStats other;
    other.io_wait_seconds = 0.5;
    other.prefetch_hits = 5;
    other.prefetch_mispredicts = 1;
    other.cache_hit_blocks = 2;
    other.cache_miss_blocks = 1;
    other.migrations = 7;
    other.migration_batches = 2;
    other.migration_wait_seconds = 0.1;
    other.migration_overlap_seconds = 0.05;
    other.presample_bytes_used = 3000;
    other.presample_bytes_total = 3000;
    other.peak_memory = 1024;
    other.io_efficiency = 0.5;
    sum += other;
    EXPECT_DOUBLE_EQ(sum.io_wait_seconds, 1.5);
    EXPECT_EQ(sum.prefetch_hits, 25u);
    EXPECT_EQ(sum.prefetch_mispredicts, 5u);
    EXPECT_EQ(sum.cache_hit_blocks, 5u);
    EXPECT_EQ(sum.cache_miss_blocks, 5u);
    EXPECT_EQ(sum.migrations, 57u);
    EXPECT_EQ(sum.migration_batches, 7u);
    EXPECT_DOUBLE_EQ(sum.migration_wait_seconds, 0.3);
    EXPECT_DOUBLE_EQ(sum.migration_overlap_seconds, 0.45);
    EXPECT_EQ(sum.presample_bytes_used, 3000u) << "max, not sum";
    EXPECT_EQ(sum.presample_bytes_total, 4000u) << "max, not sum";
    EXPECT_EQ(sum.peak_memory, 1024u) << "max, not sum";
    EXPECT_DOUBLE_EQ(sum.io_efficiency, 0.8) << "max, not sum";
    EXPECT_TRUE(sum.pipelined);
}

TEST(RunStatsPlanner, CountersFoldAndScale)
{
    // The engine always leaves the plan counters at 0, but they fold
    // and scale like every other counter, so a reader of RunStats
    // (walkbench) never sees a partial aggregate.
    engine::RunStats a;
    a.planned_loads = 10;
    a.plan_rescores = 6;
    a.plan_cache_credits = 4;
    a.cache_miss_blocks = 8;
    engine::RunStats b;
    b.planned_loads = 2;
    b.plan_rescores = 1;
    b.plan_cache_credits = 3;
    b.cache_miss_blocks = 2;
    a += b;
    EXPECT_EQ(a.planned_loads, 12u);
    EXPECT_EQ(a.plan_rescores, 7u);
    EXPECT_EQ(a.plan_cache_credits, 7u);
    EXPECT_EQ(a.cache_miss_blocks, 10u);

    const engine::RunStats half = a.scaled(0.5);
    EXPECT_EQ(half.planned_loads, 6u);
    EXPECT_EQ(half.plan_rescores, 4u); // 3.5 rounds to 4
    EXPECT_EQ(half.plan_cache_credits, 4u);
    EXPECT_EQ(half.cache_miss_blocks, 5u);
}

TEST(RunStatsKernel, CountersAggregateAndScale)
{
    engine::RunStats a;
    a.kernel_cohorts = 10;
    a.kernel_prefetches = 1000;
    a.kernel_scalar_fallbacks = 4;
    engine::RunStats b;
    b.kernel_cohorts = 6;
    b.kernel_prefetches = 200;
    b.kernel_scalar_fallbacks = 1;

    a += b;
    EXPECT_EQ(a.kernel_cohorts, 16u);
    EXPECT_EQ(a.kernel_prefetches, 1200u);
    EXPECT_EQ(a.kernel_scalar_fallbacks, 5u);

    const engine::RunStats half = a.scaled(0.5);
    EXPECT_EQ(half.kernel_cohorts, 8u);
    EXPECT_EQ(half.kernel_prefetches, 600u);
    EXPECT_EQ(half.kernel_scalar_fallbacks, 3u); // rounds half-up

    const std::string dump = a.to_string();
    EXPECT_NE(dump.find("kernel_cohorts=16"), std::string::npos);
    EXPECT_NE(dump.find("kernel_prefetches=1200"), std::string::npos);
    EXPECT_NE(dump.find("kernel_scalar_fallbacks=5"), std::string::npos);
}

TEST(RunStats, DerivedMetrics)
{
    engine::RunStats s;
    s.steps = 100;
    s.edges_loaded = 2500;
    s.graph_bytes_read = 10000;
    s.swap_bytes = 6000;
    EXPECT_DOUBLE_EQ(s.edges_per_step(), 25.0);
    EXPECT_EQ(s.total_io_bytes(), 16000u);
    EXPECT_FALSE(s.to_string().empty());
}

/** Whether @p token appears in @p dump as a whole space- or
 *  newline-separated word. */
bool
has_word(const std::string &dump, const std::string &token)
{
    for (std::size_t at = dump.find(token); at != std::string::npos;
         at = dump.find(token, at + 1)) {
        const std::size_t end = at + token.size();
        const bool starts =
            at == 0 || dump[at - 1] == ' ' || dump[at - 1] == '\n';
        const bool ends =
            end == dump.size() || dump[end] == ' ' || dump[end] == '\n';
        if (starts && ends) {
            return true;
        }
    }
    return false;
}

TEST(RunStats, ToStringNamesEveryField)
{
    // Every field prints as name=value, so a dumped record is complete:
    // each gets a distinct value here, which also catches a name wired
    // to the wrong member.
    engine::RunStats s;
    s.engine = "NosWalker";
    s.pipelined = true;
    const std::vector<std::pair<std::string, std::uint64_t *>> counters = {
        {"walkers", &s.walkers},
        {"steps", &s.steps},
        {"graph_bytes_read", &s.graph_bytes_read},
        {"graph_read_requests", &s.graph_read_requests},
        {"edges_loaded", &s.edges_loaded},
        {"swap_bytes", &s.swap_bytes},
        {"blocks_loaded", &s.blocks_loaded},
        {"fine_loads", &s.fine_loads},
        {"cache_hit_blocks", &s.cache_hit_blocks},
        {"cache_miss_blocks", &s.cache_miss_blocks},
        {"prefetch_hits", &s.prefetch_hits},
        {"prefetch_mispredicts", &s.prefetch_mispredicts},
        {"planned_loads", &s.planned_loads},
        {"plan_rescores", &s.plan_rescores},
        {"plan_cache_credits", &s.plan_cache_credits},
        {"migrations", &s.migrations},
        {"migration_batches", &s.migration_batches},
        {"kernel_cohorts", &s.kernel_cohorts},
        {"kernel_prefetches", &s.kernel_prefetches},
        {"kernel_scalar_fallbacks", &s.kernel_scalar_fallbacks},
        {"presample_steps", &s.presample_steps},
        {"block_steps", &s.block_steps},
        {"stalls", &s.stalls},
        {"rejection_trials", &s.rejection_trials},
        {"rejection_rejected", &s.rejection_rejected},
        {"peak_memory", &s.peak_memory},
        {"presample_bytes_used", &s.presample_bytes_used},
        {"presample_bytes_total", &s.presample_bytes_total},
    };
    const std::vector<std::pair<std::string, double *>> times = {
        {"cpu_seconds", &s.cpu_seconds},
        {"io_busy_seconds", &s.io_busy_seconds},
        {"io_wait_seconds", &s.io_wait_seconds},
        {"migration_wait_seconds", &s.migration_wait_seconds},
        {"migration_overlap_seconds", &s.migration_overlap_seconds},
        {"io_efficiency", &s.io_efficiency},
        {"wall_seconds", &s.wall_seconds},
    };
    std::vector<std::string> words = {"engine=NosWalker", "pipelined=true"};
    for (std::size_t i = 0; i < counters.size(); ++i) {
        *counters[i].second = 1000 + i;
        words.push_back(counters[i].first + "=" + std::to_string(1000 + i));
    }
    for (std::size_t i = 0; i < times.size(); ++i) {
        *times[i].second = 0.5 + static_cast<double>(i);
        words.push_back(times[i].first + "=" + std::to_string(i) + ".5");
    }
    ASSERT_EQ(words.size(), 37u) << "one word per RunStats field";

    const std::string dump = s.to_string();
    for (const std::string &word : words) {
        EXPECT_TRUE(has_word(dump, word)) << word << " missing in\n"
                                          << dump;
    }
}

} // namespace
} // namespace noswalker::baselines
