/**
 * @file
 * Tests for the on-disk graph format and the block partitioner.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/mem_device.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace noswalker::graph {
namespace {

using storage::MemDevice;
using storage::SsdModel;

CsrGraph
sample_graph(bool weighted)
{
    RmatParams p;
    p.scale = 7;
    p.edge_factor = 6;
    p.seed = 4;
    p.weighted = weighted;
    return generate_rmat(p);
}

TEST(GraphFile, RoundTripUnweighted)
{
    const CsrGraph g = sample_graph(false);
    MemDevice dev;
    GraphFile::write(g, dev);
    GraphFile file(dev);
    EXPECT_EQ(file.num_vertices(), g.num_vertices());
    EXPECT_EQ(file.num_edges(), g.num_edges());
    EXPECT_FALSE(file.weighted());
    EXPECT_FALSE(file.has_alias());
    EXPECT_EQ(file.record_bytes(), 4u);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(file.degree(v), g.degree(v));
    }
    EXPECT_EQ(file.edge_region_bytes(), g.num_edges() * 4);
    EXPECT_EQ(file.index_bytes(),
              (g.num_vertices() + 1) * sizeof(EdgeIndex));
}

TEST(GraphFile, RoundTripWeighted)
{
    const CsrGraph g = sample_graph(true);
    MemDevice dev;
    GraphFile::write(g, dev);
    GraphFile file(dev);
    EXPECT_TRUE(file.weighted());
    EXPECT_EQ(file.record_bytes(), 8u);
    EXPECT_EQ(file.edge_region_bytes(), g.num_edges() * 8);
}

TEST(GraphFile, WeightedWithAliasTables)
{
    const CsrGraph g = sample_graph(true);
    MemDevice dev;
    GraphFile::write(g, dev, /*with_alias=*/true);
    GraphFile file(dev);
    EXPECT_TRUE(file.has_alias());
    EXPECT_EQ(file.record_bytes(), 16u);
    // Alias tables inflate the on-disk size ~4x over plain CSR edges,
    // reproducing the K30W 136->384 GiB effect directionally.
    EXPECT_EQ(file.edge_region_bytes(), g.num_edges() * 16);
}

TEST(GraphFile, AliasRequiresWeights)
{
    const CsrGraph g = sample_graph(false);
    MemDevice dev;
    EXPECT_THROW(GraphFile::write(g, dev, true), util::ConfigError);
}

TEST(GraphFile, DecodeMatchesReference)
{
    const CsrGraph g = sample_graph(true);
    MemDevice dev;
    GraphFile::write(g, dev, true);
    GraphFile file(dev);

    // Read the whole edge region and decode every vertex.
    std::vector<std::uint8_t> raw(file.edge_region_bytes());
    dev.read(file.edge_region_offset(), raw.size(), raw.data());
    util::Rng rng(1);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const VertexView view =
            file.decode(v, raw, file.edge_region_offset());
        ASSERT_EQ(view.degree(), g.degree(v));
        const auto nbrs = g.neighbors(v);
        const auto ws = g.weights(v);
        for (std::uint32_t i = 0; i < view.degree(); ++i) {
            ASSERT_EQ(view.targets[i], nbrs[i]);
            ASSERT_FLOAT_EQ(view.weights[i], ws[i]);
        }
        if (view.degree() > 0) {
            ASSERT_EQ(view.prob.size(), view.degree());
            ASSERT_EQ(view.alias.size(), view.degree());
            // Alias samples must be valid neighbours.
            for (int k = 0; k < 8; ++k) {
                const VertexId s = view.sample_weighted(rng);
                EXPECT_TRUE(view.has_target(s));
            }
        }
    }
}

TEST(GraphFile, WeightedSamplingWithoutAliasFallsBack)
{
    // degree-3 vertex, weights 1/2/7.
    CsrGraph g({0, 3}, {0, 0, 0}, {1.0f, 2.0f, 7.0f});
    MemDevice dev;
    GraphFile::write(g, dev, false);
    GraphFile file(dev);
    std::vector<std::uint8_t> raw(file.edge_region_bytes());
    dev.read(file.edge_region_offset(), raw.size(), raw.data());
    const VertexView view = file.decode(0, raw, file.edge_region_offset());
    EXPECT_TRUE(view.prob.empty());
    util::Rng rng(5);
    // All targets are vertex 0; exercising the prefix-scan path.
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(view.sample_weighted(rng), 0u);
    }
}

TEST(GraphFile, BadMagicRejected)
{
    MemDevice dev;
    std::vector<std::uint8_t> junk(64, 0xAB);
    dev.write(0, junk.size(), junk.data());
    EXPECT_THROW(GraphFile file(dev), util::IoError);
}

TEST(GraphFile, TruncatedFileRejected)
{
    const CsrGraph g = sample_graph(false);
    MemDevice dev;
    GraphFile::write(g, dev);
    // Chop the edge region.
    MemDevice truncated;
    std::vector<std::uint8_t> head(dev.size() / 2);
    dev.read(0, head.size(), head.data());
    truncated.write(0, head.size(), head.data());
    EXPECT_THROW(GraphFile file(truncated), util::IoError);
}

TEST(GraphFile, TooSmallForHeaderRejected)
{
    MemDevice dev;
    std::uint8_t b = 0;
    dev.write(0, 1, &b);
    EXPECT_THROW(GraphFile file(dev), util::IoError);
}

class PartitionTest : public testing::Test {
  protected:
    void
    SetUp() override
    {
        graph_ = sample_graph(false);
        GraphFile::write(graph_, device_);
        file_ = std::make_unique<GraphFile>(device_);
    }

    CsrGraph graph_;
    MemDevice device_;
    std::unique_ptr<GraphFile> file_;
};

TEST_F(PartitionTest, CoversAllVerticesExactlyOnce)
{
    BlockPartition part(*file_, 1024);
    VertexId expected = 0;
    EdgeIndex edges = 0;
    std::uint64_t bytes = 0;
    for (const BlockInfo &b : part.blocks()) {
        EXPECT_EQ(b.first_vertex, expected);
        expected = b.end_vertex;
        edges += b.num_edges;
        bytes += b.byte_size;
    }
    EXPECT_EQ(expected, file_->num_vertices());
    EXPECT_EQ(edges, file_->num_edges());
    EXPECT_EQ(bytes, file_->edge_region_bytes());
}

TEST_F(PartitionTest, BlockSizesRespectTargetOrSingleVertex)
{
    const std::uint64_t target = 512;
    BlockPartition part(*file_, target);
    for (const BlockInfo &b : part.blocks()) {
        if (b.byte_size > target) {
            // Oversized blocks must be a single fat vertex.
            EXPECT_EQ(b.num_vertices(), 1u);
        }
    }
    EXPECT_GE(part.max_block_bytes(), 1u);
    EXPECT_EQ(part.target_block_bytes(), target);
}

TEST_F(PartitionTest, BlockOfIsConsistent)
{
    BlockPartition part(*file_, 777);
    for (VertexId v = 0; v < file_->num_vertices(); ++v) {
        const std::uint32_t b = part.block_of(v);
        EXPECT_TRUE(part.block(b).contains(v)) << "vertex " << v;
    }
}

/**
 * block_of against its definition — the last block whose first vertex
 * is <= v, by binary search — for every vertex and past the end.
 */
void
expect_block_of_matches_upper_bound(const BlockPartition &part,
                                    VertexId num_vertices)
{
    std::vector<VertexId> firsts;
    for (const BlockInfo &b : part.blocks()) {
        firsts.push_back(b.first_vertex);
    }
    const auto reference = [&](VertexId v) {
        return static_cast<std::uint32_t>(
            (std::upper_bound(firsts.begin(), firsts.end(), v) -
             firsts.begin()) -
            1);
    };
    for (VertexId v = 0; v < num_vertices + 70; ++v) {
        ASSERT_EQ(part.block_of(v), reference(v)) << "vertex " << v;
    }
    for (const VertexId v :
         {num_vertices * 2 + 1, kInvalidVertex - 1, kInvalidVertex}) {
        ASSERT_EQ(part.block_of(v), part.num_blocks() - 1) << v;
    }
}

TEST_F(PartitionTest, BlockOfMatchesUpperBoundOnTheRmatTwin)
{
    CsrGraph g = build_dataset(DatasetId::kTwitter, 12);
    MemDevice dev;
    GraphFile::write(g, dev);
    GraphFile file(dev);
    for (const std::uint64_t target : {256ULL, 2048ULL, 16384ULL}) {
        BlockPartition part(file, target);
        ASSERT_GT(part.num_blocks(), 2u);
        expect_block_of_matches_upper_bound(part, file.num_vertices());
    }
}

TEST_F(PartitionTest, BlockOfMatchesUpperBoundWithOneVertexBlocks)
{
    // A one-byte target closes a block after every vertex with edges.
    BlockPartition part(*file_, 1);
    EXPECT_GT(part.num_blocks(), file_->num_vertices() / 2);
    expect_block_of_matches_upper_bound(part, file_->num_vertices());
}

TEST_F(PartitionTest, BlockOfMatchesUpperBoundWithClusteredBlockStarts)
{
    // 64 one-vertex hub blocks, then one block of 200,000 edgeless
    // vertices: the first radix bucket holds every block start.
    std::vector<EdgeIndex> offsets{0};
    std::vector<VertexId> targets;
    for (VertexId v = 0; v < 64; ++v) {
        for (VertexId k = 0; k < 64; ++k) {
            targets.push_back(k);
        }
        offsets.push_back(targets.size());
    }
    offsets.resize(offsets.size() + 200000, targets.size());
    MemDevice dev;
    GraphFile::write(CsrGraph(std::move(offsets), std::move(targets)), dev);
    GraphFile file(dev);
    BlockPartition part(file, 256);
    ASSERT_EQ(part.num_blocks(), 65u);
    expect_block_of_matches_upper_bound(part, file.num_vertices());
}

TEST_F(PartitionTest, BlockOfMatchesUpperBoundWithOneBlock)
{
    BlockPartition part(*file_, 1ULL << 40);
    ASSERT_EQ(part.num_blocks(), 1u);
    expect_block_of_matches_upper_bound(part, file_->num_vertices());
}

TEST(Partition, BlockOfOnAZeroVertexGraph)
{
    MemDevice dev;
    GraphFile::write(CsrGraph({0}, {}), dev);
    GraphFile file(dev);
    ASSERT_EQ(file.num_vertices(), 0u);
    BlockPartition part(file, 4096);
    ASSERT_EQ(part.num_blocks(), 1u);
    expect_block_of_matches_upper_bound(part, 0);
}

TEST_F(PartitionTest, SingleBlockWhenTargetHuge)
{
    BlockPartition part(*file_, 1ULL << 40);
    EXPECT_EQ(part.num_blocks(), 1u);
}

TEST_F(PartitionTest, RejectsZeroTarget)
{
    EXPECT_THROW(BlockPartition(*file_, 0), util::ConfigError);
}

TEST_F(PartitionTest, ByteOffsetsMatchFile)
{
    BlockPartition part(*file_, 2048);
    for (const BlockInfo &b : part.blocks()) {
        EXPECT_EQ(b.byte_begin,
                  file_->vertex_byte_offset(b.first_vertex));
        EXPECT_EQ(b.edge_begin, file_->edge_begin(b.first_vertex));
    }
}

} // namespace
} // namespace noswalker::graph
