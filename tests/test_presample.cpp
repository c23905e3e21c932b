/**
 * @file
 * Tests for the compact pre-sample buffer (§3.3.2–§3.3.4).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/block_scheduler.hpp"
#include "core/presample_buffer.hpp"
#include "core/presample_pool.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/block_reader.hpp"
#include "storage/mem_device.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace noswalker::core {
namespace {

class PreSampleTest : public testing::Test {
  protected:
    void
    SetUp() override
    {
        // Star graph: hub 0 has high degree, leaves degree 1 (direct).
        graph_ = graph::generate_star(64);
        graph::GraphFile::write(graph_, device_);
        file_ = std::make_unique<graph::GraphFile>(device_);
        partition_ = std::make_unique<graph::BlockPartition>(
            *file_, 1ULL << 20); // single block
        reader_ = std::make_unique<storage::BlockReader>(*file_,
                                                         unbudgeted_);
        reader_->load_coarse(partition_->block(0), buffer_);
    }

    PreSampleBuffer::BuildParams
    params(std::uint64_t max_bytes = 1 << 16)
    {
        PreSampleBuffer::BuildParams p;
        p.max_bytes = max_bytes;
        p.base_quota = 4;
        p.max_quota = 16;
        p.low_degree_cutoff = 2;
        return p;
    }

    void
    fill(PreSampleBuffer &ps)
    {
        auto sampler = [this](const graph::VertexView &view) {
            return view.sample_uniform(rng_);
        };
        const graph::BlockInfo &block = partition_->block(0);
        for (graph::VertexId v = block.first_vertex;
             v < block.end_vertex; ++v) {
            if (ps.quota(v) > 0) {
                ps.fill_vertex(buffer_.view(*file_, v), sampler);
            }
        }
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
    util::MemoryBudget unbudgeted_{0};
    std::unique_ptr<storage::BlockReader> reader_;
    storage::BlockBuffer buffer_;
    util::Rng rng_{11};
};

TEST_F(PreSampleTest, LowDegreeVerticesAreDirect)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    // Leaves (degree 1 <= cutoff 2) are direct; the hub is sampled.
    EXPECT_FALSE(ps.is_direct(0));
    for (graph::VertexId v = 1; v < 64; ++v) {
        ASSERT_TRUE(ps.is_direct(v)) << v;
        ASSERT_TRUE(ps.has(v));
        const graph::VertexView view = ps.direct_view(v);
        ASSERT_EQ(view.degree(), 1u);
        EXPECT_EQ(view.targets[0], 0u); // leaf points at hub
    }
}

TEST_F(PreSampleTest, DirectVerticesNeverRunDry)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(ps.has(1));
    }
}

TEST_F(PreSampleTest, SampledDrawsAreRealEdgesAndAccounted)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    const std::uint32_t q = ps.quota(0);
    ASSERT_GT(q, 0u);
    // Draws are with replacement from the walker's stream, and drying
    // only becomes visible once publish_drain() runs — so within one
    // step round the reservoir serves freely.
    util::Rng rng(7);
    for (std::uint32_t i = 0; i < 2 * q; ++i) {
        ASSERT_TRUE(ps.has(0));
        const graph::VertexId next = ps.sample(0, rng);
        // The hub's samples must be real neighbours.
        EXPECT_TRUE(graph_.has_edge(0, next));
        ps.consume(0);
    }
    EXPECT_TRUE(ps.has(0));
    EXPECT_EQ(ps.visits(0), 2 * q);
    // consumed_fraction is buffer-wide: 2q draws over all slots.
    EXPECT_DOUBLE_EQ(ps.consumed_fraction(),
                     static_cast<double>(2 * q) /
                         static_cast<double>(ps.slot_count()));
}

TEST_F(PreSampleTest, PublishedDrainDriesSampledVertices)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    const std::uint32_t q = ps.quota(0);
    util::Rng rng(13);
    // Consume a full quota: still available until the snapshot is
    // published (round-granular visibility).
    for (std::uint32_t i = 0; i < q; ++i) {
        ps.sample(0, rng);
        ps.consume(0);
    }
    EXPECT_TRUE(ps.has(0));
    ps.publish_drain();
    EXPECT_FALSE(ps.has(0));
    // Direct vertices hold the real adjacency and never dry.
    ps.consume(1);
    ps.publish_drain();
    EXPECT_TRUE(ps.has(1));
}

TEST_F(PreSampleTest, SampleIsAFunctionOfTheCallerStream)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    // Identically seeded streams see identical slot picks regardless of
    // interleaved draws by other streams — the property that makes
    // pre-sample-served steps thread-count independent.
    util::Rng a(21), b(21), interloper(99);
    for (int i = 0; i < 32; ++i) {
        const graph::VertexId from_a = ps.sample(0, a);
        ps.sample(0, interloper);
        const graph::VertexId from_b = ps.sample(0, b);
        EXPECT_EQ(from_a, from_b);
    }
}

TEST_F(PreSampleTest, StallVisitsFeedHistory)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    const std::uint32_t before = ps.visits(0);
    ps.record_visit(0);
    ps.record_visit(0);
    EXPECT_EQ(ps.visits(0), before + 2);
}

TEST_F(PreSampleTest, HistoryReweightsQuotas)
{
    util::MemoryBudget budget(0);
    // Use a skewed RMAT block so multiple vertices compete for slots.
    auto g = graph::generate_rmat(
        {.scale = 7, .edge_factor = 16, .a = 0.57, .b = 0.19, .c = 0.19,
         .seed = 3, .symmetrize = false, .weighted = false});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 1ULL << 20);
    storage::BlockReader reader(file, unbudgeted_);
    storage::BlockBuffer buf;
    reader.load_coarse(part.block(0), buf);

    PreSampleBuffer::BuildParams p = params(8192);
    PreSampleBuffer first(file, part.block(0), p, nullptr, budget);

    // Find two comparable high-degree vertices.
    graph::VertexId hot = graph::kInvalidVertex;
    graph::VertexId cold = graph::kInvalidVertex;
    for (graph::VertexId v = 0; v < file.num_vertices(); ++v) {
        if (file.degree(v) > p.low_degree_cutoff &&
            first.quota(v) > 0) {
            if (hot == graph::kInvalidVertex) {
                hot = v;
            } else if (cold == graph::kInvalidVertex) {
                cold = v;
                break;
            }
        }
    }
    ASSERT_NE(hot, graph::kInvalidVertex);
    ASSERT_NE(cold, graph::kInvalidVertex);

    // Hammer `hot` with visits.
    for (int i = 0; i < 500; ++i) {
        first.record_visit(hot);
    }
    PreSampleBuffer second(file, part.block(0), p, &first, budget);
    EXPECT_GT(second.quota(hot), second.quota(cold));
    EXPECT_GE(second.quota(hot), first.quota(hot));
}

TEST_F(PreSampleTest, ZeroDegreeVerticesGetNoSlots)
{
    // Graph with an isolated vertex.
    graph::CsrGraph g({0, 1, 1}, {0});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 1 << 20);
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(file, part.block(0), params(), nullptr, budget);
    EXPECT_EQ(ps.quota(1), 0u);
    EXPECT_FALSE(ps.has(1));
}

TEST_F(PreSampleTest, UnfilledVertexReportsEmpty)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    // No fill_vertex calls yet.
    EXPECT_FALSE(ps.has(0));
    EXPECT_FALSE(ps.is_direct(1));
}

TEST_F(PreSampleTest, MemoryIsBudgetedAndReleased)
{
    util::MemoryBudget budget(1 << 20);
    {
        PreSampleBuffer ps(*file_, partition_->block(0), params(),
                           nullptr, budget);
        EXPECT_GT(budget.used(), 0u);
        EXPECT_EQ(budget.used(), ps.memory_bytes());
    }
    EXPECT_EQ(budget.used(), 0u);
}

TEST_F(PreSampleTest, TinyCapThrowsBudgetExceeded)
{
    util::MemoryBudget budget(0);
    EXPECT_THROW(PreSampleBuffer(*file_, partition_->block(0), params(8),
                                 nullptr, budget),
                 util::BudgetExceeded);
}

TEST_F(PreSampleTest, WeightedDirectViewCarriesWeights)
{
    auto g = graph::generate_rmat(
        {.scale = 6, .edge_factor = 2, .a = 0.57, .b = 0.19, .c = 0.19,
         .seed = 8, .symmetrize = false, .weighted = true});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 1 << 20);
    storage::BlockReader reader(file, unbudgeted_);
    storage::BlockBuffer buf;
    reader.load_coarse(part.block(0), buf);

    util::MemoryBudget budget(0);
    PreSampleBuffer ps(file, part.block(0), params(), nullptr, budget);
    auto sampler = [this](const graph::VertexView &view) {
        return view.sample_uniform(rng_);
    };
    graph::VertexId direct = graph::kInvalidVertex;
    for (graph::VertexId v = 0; v < file.num_vertices(); ++v) {
        if (ps.quota(v) > 0) {
            ps.fill_vertex(buf.view(file, v), sampler);
            if (ps.is_direct(v)) {
                direct = v;
            }
        }
    }
    ASSERT_NE(direct, graph::kInvalidVertex);
    const graph::VertexView view = ps.direct_view(direct);
    ASSERT_EQ(view.weights.size(), view.targets.size());
    const auto ref_w = g.weights(direct);
    for (std::uint32_t i = 0; i < view.degree(); ++i) {
        EXPECT_FLOAT_EQ(view.weights[i], ref_w[i]);
    }
}

TEST_F(PreSampleTest, QuotaCapRespected)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer::BuildParams p = params(1 << 20);
    p.max_quota = 5;
    PreSampleBuffer ps(*file_, partition_->block(0), p, nullptr, budget);
    EXPECT_LE(ps.quota(0), 5u); // hub capped despite huge byte budget
}

TEST_F(PreSampleTest, RebuildOnReusedStorageMatchesAFreshBuild)
{
    auto g = graph::generate_rmat(
        {.scale = 8, .edge_factor = 8, .a = 0.57, .b = 0.19, .c = 0.19,
         .seed = 9, .symmetrize = false, .weighted = true});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 2048);
    ASSERT_GE(part.num_blocks(), 3u);
    storage::BlockReader reader(file, unbudgeted_);
    storage::BlockBuffer buf;
    reader.load_coarse(part.block(1), buf);
    auto sampler = [](const graph::VertexView &view) {
        return view.targets[0];
    };
    const auto fill_all = [&](PreSampleBuffer &ps) {
        for (graph::VertexId v = part.block(1).first_vertex;
             v < part.block(1).end_vertex; ++v) {
            if (ps.quota(v) > 0) {
                ps.fill_vertex(buf.view(file, v), sampler);
            }
        }
    };
    util::MemoryBudget budget(0);
    PreSampleBuffer::BuildParams p = params(1 << 20);

    // Generation 1, filled, with skewed history and some dry vertices.
    PreSampleBuffer first(file, part.block(1), p, nullptr, budget);
    fill_all(first);
    const graph::BlockInfo &b1 = part.block(1);
    for (graph::VertexId v = b1.first_vertex; v < b1.end_vertex; ++v) {
        for (graph::VertexId k = 0; k < (v * 7) % 23; ++k) {
            first.record_visit(v);
        }
    }
    first.publish_drain();
    // Cap generation 2 just below what its history asks for, so the
    // overshoot scaling runs too.
    PreSampleBuffer::Plan untrimmed;
    ASSERT_TRUE(PreSampleBuffer::plan(file, b1, p, &first, untrimmed));
    p.max_bytes = untrimmed.bytes - 64;

    PreSampleBuffer fresh(file, b1, p, &first, budget);

    // A dirty buffer of another block, rebuilt onto block 1.
    PreSampleBuffer other(file, part.block(0), p, nullptr, budget);
    other.consume(part.block(0).first_vertex);
    PreSampleBuffer::Plan plan;
    ASSERT_TRUE(PreSampleBuffer::plan(file, b1, p, &first, plan));
    other.rebuild(plan, util::Reservation(budget, plan.bytes));

    // The previous generation rebuilt in place from its own history
    // (the engine's common path).
    PreSampleBuffer::Plan self_plan;
    ASSERT_TRUE(PreSampleBuffer::plan(file, b1, p, &first, self_plan));
    first.rebuild(self_plan, util::Reservation(budget, self_plan.bytes));

    EXPECT_LT(fresh.slot_count(), untrimmed.idx.back()); // trimmed
    for (PreSampleBuffer *reused : {&other, &first}) {
        EXPECT_EQ(reused->memory_bytes(), fresh.memory_bytes());
        EXPECT_EQ(reused->block_id(), fresh.block_id());
        EXPECT_EQ(reused->num_vertices(), fresh.num_vertices());
        EXPECT_EQ(reused->slot_count(), fresh.slot_count());
        EXPECT_DOUBLE_EQ(reused->consumed_fraction(), 0.0);
        EXPECT_EQ(reused->stall_count(), 0u);
        EXPECT_EQ(reused->dry_pending(), 0u);
        for (graph::VertexId v = b1.first_vertex; v < b1.end_vertex; ++v) {
            ASSERT_EQ(reused->quota(v), fresh.quota(v)) << v;
            ASSERT_EQ(reused->visits(v), 0u) << v;
            ASSERT_FALSE(reused->has(v)) << v; // unfilled
        }
    }
    fill_all(fresh);
    fill_all(other);
    fill_all(first);
    for (PreSampleBuffer *reused : {&other, &first}) {
        for (graph::VertexId v = b1.first_vertex; v < b1.end_vertex; ++v) {
            ASSERT_EQ(reused->is_direct(v), fresh.is_direct(v)) << v;
            ASSERT_EQ(reused->has(v), fresh.has(v)) << v;
            if (fresh.is_direct(v)) {
                const graph::VertexView a = reused->direct_view(v);
                const graph::VertexView e = fresh.direct_view(v);
                ASSERT_TRUE(std::equal(a.targets.begin(), a.targets.end(),
                                       e.targets.begin(), e.targets.end()));
                ASSERT_TRUE(std::equal(a.weights.begin(), a.weights.end(),
                                       e.weights.begin(), e.weights.end()));
            }
        }
    }
    // The charge is the plan's exact byte count.
    EXPECT_EQ(budget.used(), 3 * fresh.memory_bytes());
    EXPECT_LE(fresh.memory_bytes(), p.max_bytes);
}

TEST_F(PreSampleTest, ConcurrentDrainListsEachVertexOnce)
{
    auto g = graph::generate_rmat(
        {.scale = 8, .edge_factor = 16, .a = 0.57, .b = 0.19, .c = 0.19,
         .seed = 5, .symmetrize = false, .weighted = false});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 1ULL << 20);
    storage::BlockReader reader(file, unbudgeted_);
    storage::BlockBuffer buf;
    reader.load_coarse(part.block(0), buf);
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(file, part.block(0), params(1 << 20), nullptr,
                       budget);
    auto sampler = [this](const graph::VertexView &view) {
        return view.sample_uniform(rng_);
    };
    std::vector<graph::VertexId> sampled;
    for (graph::VertexId v = 0; v < file.num_vertices(); ++v) {
        if (ps.quota(v) > 0) {
            ps.fill_vertex(buf.view(file, v), sampler);
            if (!ps.is_direct(v)) {
                sampled.push_back(v);
            }
        }
    }
    ASSERT_GE(sampled.size(), 16u);

    // K consumers hammer every sampled vertex: even-ranked vertices get
    // K x quota counted visits (far past the quota), odd-ranked ones
    // quota - 1 in total (never dry).  Draws and stall visits mix.
    constexpr unsigned kConsumers = 4;
    util::ThreadPool pool(kConsumers - 1);
    pool.run(kConsumers, [&](std::size_t t) {
        for (std::size_t r = 0; r < sampled.size(); ++r) {
            const graph::VertexId v = sampled[r];
            const std::uint32_t q = ps.quota(v);
            for (std::uint32_t k = 0; k < q; ++k) {
                if (r % 2 == 1 && (k + 1 == q || k % kConsumers != t)) {
                    continue;
                }
                if ((k + t) % 2 == 0) {
                    ps.consume(v);
                } else {
                    ps.record_visit(v);
                }
            }
        }
    });

    const std::size_t drained = (sampled.size() + 1) / 2;
    EXPECT_EQ(ps.dry_pending(), drained);
    for (const graph::VertexId v : sampled) {
        ASSERT_TRUE(ps.has(v)) << v; // not before the publish
    }
    ps.publish_drain();
    EXPECT_EQ(ps.dry_pending(), 0u);
    for (std::size_t r = 0; r < sampled.size(); ++r) {
        EXPECT_EQ(ps.has(sampled[r]), r % 2 == 1) << sampled[r];
        const std::uint32_t q = ps.quota(sampled[r]);
        EXPECT_EQ(ps.visits(sampled[r]), r % 2 == 1 ? q - 1 : kConsumers * q);
    }
    // A vertex is listed once: driving a dry one further lists nothing.
    ps.consume(sampled[0]);
    ps.record_visit(sampled[0]);
    EXPECT_EQ(ps.dry_pending(), 0u);
}

/** Two 8-vertex blocks of degree-8 vertices, then one block of
 *  @p leaves degree-1 vertices (block_bytes 256, 4-byte records). */
graph::CsrGraph
two_dense_blocks_then_leaves(graph::VertexId leaves)
{
    std::vector<graph::EdgeIndex> offsets{0};
    std::vector<graph::VertexId> targets;
    const graph::VertexId n = 16 + leaves;
    for (graph::VertexId v = 0; v < n; ++v) {
        const std::uint32_t deg = v < 16 ? 8 : 1;
        for (std::uint32_t k = 0; k < deg; ++k) {
            targets.push_back((v + 1 + k) % n);
        }
        offsets.push_back(targets.size());
    }
    return graph::CsrGraph(std::move(offsets), std::move(targets));
}

class PreSamplePoolTest : public testing::Test {
  protected:
    void
    build(graph::VertexId leaves)
    {
        graph::GraphFile::write(two_dense_blocks_then_leaves(leaves),
                                device_);
        file_ = std::make_unique<graph::GraphFile>(device_);
        ASSERT_EQ(file_->record_bytes(), 4u);
        partition_ =
            std::make_unique<graph::BlockPartition>(*file_, 256);
        ASSERT_EQ(partition_->num_blocks(), 3u);
        scheduler_ = std::make_unique<BlockScheduler>(
            3, 1.0, file_->edge_region_bytes(), 4096);
    }

    PreSampleBuffer::BuildParams
    params() const
    {
        PreSampleBuffer::BuildParams p;
        p.max_bytes = 512;
        p.base_quota = 4;
        p.max_quota = 16;
        p.low_degree_cutoff = 2;
        return p;
    }

    /** Bytes block @p b's first-generation buffer charges. */
    std::uint64_t
    charge(std::uint32_t b) const
    {
        util::MemoryBudget unlimited(0);
        return PreSampleBuffer(*file_, partition_->block(b), params(),
                               nullptr, unlimited)
            .memory_bytes();
    }

    void
    add_walkers(std::uint32_t b, int n)
    {
        for (int i = 0; i < n; ++i) {
            scheduler_->add_walker(b);
        }
    }

    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
    std::unique_ptr<BlockScheduler> scheduler_;
};

TEST_F(PreSamplePoolTest, EqualCountsEvictTheLowestBlockId)
{
    build(8);
    ASSERT_EQ(charge(0), charge(1));
    // Room for the two dense buffers, not for a third buffer on top.
    PreSamplePool pool(*file_, 3, charge(0) + charge(1) + charge(2) - 1,
                       params());
    for (std::uint32_t b = 0; b < 3; ++b) {
        add_walkers(b, 5);
    }
    ASSERT_NE(pool.prepare(partition_->block(1), *scheduler_), nullptr);
    ASSERT_NE(pool.prepare(partition_->block(0), *scheduler_), nullptr);
    // Blocks 0 and 1 tie at five walkers: the lowest id goes, whatever
    // order the buffers were built in.
    ASSERT_NE(pool.prepare(partition_->block(2), *scheduler_), nullptr);
    EXPECT_EQ(pool.find(0), nullptr);
    EXPECT_NE(pool.find(1), nullptr);
    EXPECT_NE(pool.find(2), nullptr);
}

TEST_F(PreSamplePoolTest, FewerWaitingWalkersBeatsTheLowerId)
{
    build(8);
    PreSamplePool pool(*file_, 3, charge(0) + charge(1) + charge(2) - 1,
                       params());
    add_walkers(0, 5);
    add_walkers(1, 4);
    ASSERT_NE(pool.prepare(partition_->block(0), *scheduler_), nullptr);
    ASSERT_NE(pool.prepare(partition_->block(1), *scheduler_), nullptr);
    ASSERT_NE(pool.prepare(partition_->block(2), *scheduler_), nullptr);
    EXPECT_NE(pool.find(0), nullptr);
    EXPECT_EQ(pool.find(1), nullptr);
    EXPECT_EQ(pool.generation(2), 1u);
}

TEST_F(PreSamplePoolTest, BlockWhoseMetaExceedsTheCapFlushesThePool)
{
    // 64 leaves: block 2's meta array alone (14 B per vertex) is over
    // the 512-byte per-buffer cap, so it can never get a buffer.
    build(64);
    PreSamplePool pool(*file_, 3, 1 << 16, params());
    add_walkers(0, 5);
    add_walkers(1, 5);
    ASSERT_NE(pool.prepare(partition_->block(0), *scheduler_), nullptr);
    ASSERT_NE(pool.prepare(partition_->block(1), *scheduler_), nullptr);
    // Its load still evicts every other buffer before it is skipped:
    // the flush is a periodic refresh the engine's I/O depends on.
    EXPECT_EQ(pool.prepare(partition_->block(2), *scheduler_), nullptr);
    EXPECT_EQ(pool.find(0), nullptr);
    EXPECT_EQ(pool.find(1), nullptr);
    EXPECT_EQ(pool.find(2), nullptr);
    EXPECT_EQ(pool.generation(2), 0u);
}

TEST_F(PreSamplePoolTest, UndrainedBufferIsKept)
{
    build(8);
    PreSamplePool pool(*file_, 3, 1 << 16, params());
    PreSampleBuffer *first = pool.prepare(partition_->block(0), *scheduler_);
    ASSERT_NE(first, nullptr);
    // Nothing consumed, no stalls: the reload keeps the samples.
    EXPECT_EQ(pool.prepare(partition_->block(0), *scheduler_), nullptr);
    EXPECT_EQ(pool.find(0), first);
    EXPECT_EQ(pool.generation(0), 1u);
    EXPECT_EQ(pool.peak_bytes(), first->memory_bytes());
}

} // namespace
} // namespace noswalker::core
