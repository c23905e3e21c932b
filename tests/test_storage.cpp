/**
 * @file
 * Unit tests for the storage substrate: SSD cost model, devices,
 * RAID-0 striping, block reader, async loader.
 */
#include <gtest/gtest.h>

#include <cmath>

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/async_loader.hpp"
#include "storage/block_reader.hpp"
#include "storage/file_device.hpp"
#include "storage/mem_device.hpp"
#include "storage/raid_device.hpp"
#include "storage/ssd_model.hpp"
#include "util/error.hpp"

namespace noswalker::storage {
namespace {

TEST(SsdModel, SmallRequestsAreIopsBound)
{
    const SsdModel m = SsdModel::p4618();
    // A 4 KiB read costs 1/600k s: IOPS bound.
    EXPECT_DOUBLE_EQ(m.request_seconds(4096), 1.0 / 600000.0);
    // Effective 4 KiB bandwidth ≈ 2.4 GiB/s, matching §3.3.1.
    const double eff_bw = 4096.0 / m.request_seconds(4096);
    EXPECT_NEAR(eff_bw / (1ULL << 30), 2.4, 0.2);
}

TEST(SsdModel, LargeRequestsAreBandwidthBound)
{
    const SsdModel m = SsdModel::p4618();
    const std::uint64_t len = 8ULL << 20;
    EXPECT_DOUBLE_EQ(m.request_seconds(len),
                     static_cast<double>(len) / m.seq_bandwidth);
}

TEST(SsdModel, RaidPresetFlipsTheTradeoff)
{
    const SsdModel nvme = SsdModel::p4618();
    const SsdModel raid = SsdModel::raid0_s4610();
    // RAID: slightly more sequential bandwidth, far fewer IOPS.
    EXPECT_GT(raid.seq_bandwidth, nvme.seq_bandwidth);
    EXPECT_LT(raid.iops, nvme.iops);
    EXPECT_GT(raid.request_seconds(4096), nvme.request_seconds(4096));
}

TEST(SsdModel, InstantIsFree)
{
    const SsdModel m = SsdModel::instant();
    EXPECT_DOUBLE_EQ(m.request_seconds(1ULL << 30), 0.0);
}

TEST(MemDevice, WriteThenRead)
{
    MemDevice dev;
    const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
    dev.write(10, data.size(), data.data());
    EXPECT_EQ(dev.size(), 15u);
    std::vector<std::uint8_t> out(5);
    dev.read(10, 5, out.data());
    EXPECT_EQ(out, data);
}

TEST(MemDevice, ReadPastEndThrows)
{
    MemDevice dev;
    std::uint8_t b = 0;
    dev.write(0, 1, &b);
    std::uint8_t out[4];
    EXPECT_THROW(dev.read(0, 4, out), util::IoError);
}

TEST(MemDevice, StatsAccounting)
{
    MemDevice dev(SsdModel::p4618());
    std::vector<std::uint8_t> buf(8192, 7);
    dev.write(0, buf.size(), buf.data());
    dev.read(0, 4096, buf.data());
    dev.read(4096, 4096, buf.data());
    const IoStats s = dev.stats();
    EXPECT_EQ(s.bytes_written, 8192u);
    EXPECT_EQ(s.write_requests, 1u);
    EXPECT_EQ(s.bytes_read, 8192u);
    EXPECT_EQ(s.read_requests, 2u);
    // One bandwidth-bound 8 KiB write plus two IOPS-bound reads.
    const SsdModel m = SsdModel::p4618();
    EXPECT_NEAR(s.busy_seconds,
                m.request_seconds(8192) + 2.0 / 600000.0, 1e-8);
    dev.reset_stats();
    EXPECT_EQ(dev.stats().bytes_read, 0u);
}

TEST(MemDevice, BusySecondsSumTheModelExactly)
{
    // Odd lengths price at fractions of a nanosecond: the device's busy
    // time must add them up, not round each request down.
    const SsdModel m = SsdModel::p4618();
    MemDevice dev(m);
    std::vector<std::uint8_t> buf(1 << 20, 3);
    dev.write(0, buf.size(), buf.data());
    dev.reset_stats();
    constexpr int kReads = 1000;
    constexpr std::uint64_t kLen = 12345;
    const double each = m.request_seconds(kLen);
    ASSERT_NE(each * 1e9, std::floor(each * 1e9)) << "not a whole ns";
    for (int i = 0; i < kReads; ++i) {
        dev.read(0, kLen, buf.data());
    }
    const double want = kReads * each;
    EXPECT_NEAR(dev.stats().busy_seconds, want, want * 1e-12);
}

TEST(IoStats, Accumulate)
{
    IoStats a{100, 50, 2, 1, 0.5};
    IoStats b{10, 5, 1, 1, 0.25};
    a += b;
    EXPECT_EQ(a.bytes_read, 110u);
    EXPECT_EQ(a.bytes_written, 55u);
    EXPECT_EQ(a.read_requests, 3u);
    EXPECT_EQ(a.write_requests, 2u);
    EXPECT_DOUBLE_EQ(a.busy_seconds, 0.75);
}

TEST(FileDevice, RoundTripAndPersistence)
{
    const std::string path = testing::TempDir() + "noswalker_filedev.bin";
    {
        FileDevice dev(path);
        const std::vector<std::uint8_t> data = {9, 8, 7};
        dev.write(100, data.size(), data.data());
        dev.sync();
        EXPECT_EQ(dev.size(), 103u);
    }
    {
        FileDevice dev(path);
        std::vector<std::uint8_t> out(3);
        dev.read(100, 3, out.data());
        EXPECT_EQ(out, (std::vector<std::uint8_t>{9, 8, 7}));
    }
    std::remove(path.c_str());
}

TEST(FileDevice, UnopenablePathThrows)
{
    EXPECT_THROW(FileDevice("/nonexistent-dir/x/y/z.bin"),
                 util::IoError);
}

TEST(FileDevice, ShortReadThrows)
{
    const std::string path = testing::TempDir() + "noswalker_short.bin";
    FileDevice dev(path);
    std::uint8_t b = 1;
    dev.write(0, 1, &b);
    std::uint8_t out[16];
    EXPECT_THROW(dev.read(0, 16, out), util::IoError);
    std::remove(path.c_str());
}

TEST(Raid0, StripeRoundTrip)
{
    Raid0Device raid(3, 16, SsdModel::instant());
    std::vector<std::uint8_t> data(200);
    std::iota(data.begin(), data.end(), 0);
    raid.write(5, data.size(), data.data());
    std::vector<std::uint8_t> out(200);
    raid.read(5, out.size(), out.data());
    EXPECT_EQ(out, data);
}

TEST(Raid0, MembersShareTheBytes)
{
    Raid0Device raid(4, 16, SsdModel::p4618());
    std::vector<std::uint8_t> data(16 * 8, 3); // 8 full chunks
    raid.write(0, data.size(), data.data());
    const IoStats agg = raid.array_stats();
    EXPECT_EQ(agg.bytes_written, data.size());
    EXPECT_EQ(agg.write_requests, 8u); // one request per chunk
}

TEST(Raid0, StatsUseMaxMemberBusy)
{
    Raid0Device raid(2, 4096, SsdModel::p4618());
    std::vector<std::uint8_t> data(8192, 1);
    raid.write(0, data.size(), data.data());
    raid.read(0, 8192, data.data()); // one chunk per member
    const IoStats s = raid.stats();
    EXPECT_EQ(s.bytes_read, 8192u);
    // Parallel members: busy = one 4 KiB request, not two.
    EXPECT_NEAR(s.busy_seconds, raid.array_stats().busy_seconds, 1e-12);
    EXPECT_LT(s.busy_seconds, 2.1 / 600000.0);
}

TEST(Raid0, PaperArrayPreset)
{
    auto raid = Raid0Device::paper_array();
    EXPECT_EQ(raid->num_members(), 7u);
}

TEST(Raid0, RejectsZeroMembers)
{
    EXPECT_THROW(Raid0Device(0, 16, SsdModel::instant()),
                 util::ConfigError);
}

class BlockReaderTest : public testing::Test {
  protected:
    void
    SetUp() override
    {
        graph_ = graph::generate_rmat({.scale = 8,
                                       .edge_factor = 8,
                                       .a = 0.57,
                                       .b = 0.19,
                                       .c = 0.19,
                                       .seed = 2,
                                       .symmetrize = false,
                                       .weighted = false});
        graph::GraphFile::write(graph_, device_);
        file_ = std::make_unique<graph::GraphFile>(device_);
        partition_ =
            std::make_unique<graph::BlockPartition>(*file_, 2048);
    }

    graph::CsrGraph graph_;
    MemDevice device_{SsdModel::p4618()};
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
    util::MemoryBudget budget_{0};
};

TEST_F(BlockReaderTest, CoarseLoadDecodesAllVertices)
{
    BlockReader reader(*file_, budget_);
    BlockBuffer buffer;
    for (const graph::BlockInfo &block : partition_->blocks()) {
        const LoadResult r = reader.load_coarse(block, buffer);
        EXPECT_GT(r.bytes_read, 0u);
        EXPECT_TRUE(buffer.complete());
        for (graph::VertexId v = block.first_vertex;
             v < block.end_vertex; ++v) {
            ASSERT_TRUE(buffer.vertex_loaded(*file_, v));
            const graph::VertexView view = buffer.view(*file_, v);
            ASSERT_EQ(view.degree(), graph_.degree(v));
            const auto ref = graph_.neighbors(v);
            for (std::uint32_t i = 0; i < view.degree(); ++i) {
                ASSERT_EQ(view.targets[i], ref[i]);
            }
        }
    }
}

TEST_F(BlockReaderTest, CoarseRespectsMaxRequest)
{
    BlockReader reader(*file_, budget_, 4096);
    BlockBuffer buffer;
    const graph::BlockInfo &block = partition_->block(0);
    const LoadResult r = reader.load_coarse(block, buffer);
    EXPECT_GE(r.requests, block.byte_size / 4096);
    const IoStats s = device_.stats();
    EXPECT_GE(s.read_requests, r.requests);
}

TEST_F(BlockReaderTest, FineLoadsOnlyNeededPages)
{
    BlockReader reader(*file_, budget_);
    // Pick one vertex with edges from block 0.
    const graph::BlockInfo &block = partition_->block(0);
    graph::VertexId target = block.first_vertex;
    while (file_->degree(target) == 0) {
        ++target;
    }
    BlockBuffer buffer;
    const std::vector<graph::VertexId> needed = {target};
    const LoadResult r = reader.load_fine(block, needed, buffer);
    EXPECT_FALSE(buffer.complete());
    EXPECT_TRUE(buffer.vertex_loaded(*file_, target));
    // Fine loads are page-granular and far smaller than the block.
    EXPECT_EQ(r.bytes_read % BlockReader::kPageBytes, 0u);
    EXPECT_LE(r.bytes_read,
              file_->vertex_byte_size(target) +
                  2 * BlockReader::kPageBytes);
    // Decoded view matches the reference graph.
    const graph::VertexView view = buffer.view(*file_, target);
    const auto ref = graph_.neighbors(target);
    ASSERT_EQ(view.degree(), ref.size());
    for (std::uint32_t i = 0; i < view.degree(); ++i) {
        EXPECT_EQ(view.targets[i], ref[i]);
    }
}

TEST_F(BlockReaderTest, FineCoalescesAdjacentPages)
{
    BlockReader reader(*file_, budget_);
    const graph::BlockInfo &block = partition_->block(0);
    // Ask for every vertex: all pages marked => one coalesced request
    // per max_request span.
    std::vector<graph::VertexId> all;
    for (graph::VertexId v = block.first_vertex; v < block.end_vertex;
         ++v) {
        all.push_back(v);
    }
    BlockBuffer buffer;
    const LoadResult r = reader.load_fine(block, all, buffer);
    // Whole block in few requests (coalesced), not one per page.
    EXPECT_LE(r.requests, 2u);
    EXPECT_GE(r.bytes_read, block.byte_size);
}

TEST_F(BlockReaderTest, FineIgnoresForeignVertices)
{
    ASSERT_GT(partition_->num_blocks(), 1u);
    BlockReader reader(*file_, budget_);
    const graph::BlockInfo &block = partition_->block(0);
    const graph::BlockInfo &other = partition_->block(1);
    BlockBuffer buffer;
    const std::vector<graph::VertexId> needed = {other.first_vertex};
    const LoadResult r = reader.load_fine(block, needed, buffer);
    EXPECT_EQ(r.bytes_read, 0u);
    EXPECT_FALSE(buffer.vertex_loaded(*file_, other.first_vertex));
}

TEST_F(BlockReaderTest, BufferMemoryIsBudgeted)
{
    util::MemoryBudget tight(1024); // smaller than any aligned block
    BlockReader reader(*file_, tight);
    BlockBuffer buffer;
    EXPECT_THROW(reader.load_coarse(partition_->block(0), buffer),
                 util::BudgetExceeded);
}

TEST_F(BlockReaderTest, AsyncLoaderBackground)
{
    BlockReader reader(*file_, budget_);
    AsyncLoader loader(reader, true);
    AsyncLoader::Request req;
    req.block = &partition_->block(0);
    loader.submit(std::move(req));
    EXPECT_TRUE(loader.outstanding());
    AsyncLoader::Response resp = loader.wait();
    EXPECT_FALSE(loader.outstanding());
    EXPECT_EQ(resp.block->id, 0u);
    EXPECT_TRUE(resp.buffer.complete());
}

TEST_F(BlockReaderTest, AsyncLoaderSynchronousMode)
{
    BlockReader reader(*file_, budget_);
    AsyncLoader loader(reader, false);
    AsyncLoader::Request req;
    req.block = &partition_->block(0);
    loader.submit(std::move(req));
    EXPECT_FALSE(loader.thread_started());
    AsyncLoader::Response resp = loader.wait();
    EXPECT_FALSE(loader.outstanding());
    EXPECT_EQ(resp.block->id, 0u);
    EXPECT_FALSE(resp.fine);
    EXPECT_TRUE(resp.buffer.complete());
}

TEST_F(BlockReaderTest, AsyncLoaderPropagatesErrors)
{
    util::MemoryBudget tight(16);
    BlockReader reader(*file_, tight);
    AsyncLoader loader(reader, true);
    AsyncLoader::Request req;
    req.block = &partition_->block(0);
    loader.submit(std::move(req));
    EXPECT_THROW(loader.wait(), util::BudgetExceeded);
}

TEST_F(BlockReaderTest, AbandonedPrefetchShutsDownCleanly)
{
    BlockReader reader(*file_, budget_);
    {
        AsyncLoader loader(reader, true);
        AsyncLoader::Request req;
        req.block = &partition_->block(0);
        loader.submit(std::move(req));
        // Destroy without wait(): loader must join without deadlock.
    }
    SUCCEED();
}

} // namespace
} // namespace noswalker::storage
