/**
 * @file
 * Tests for BlockScheduler, WalkerPool and WalkerSpill.
 */
#include <gtest/gtest.h>

#include "core/block_scheduler.hpp"
#include "core/walker_pool.hpp"
#include "engine/walker.hpp"
#include "engine/walker_spill.hpp"
#include "storage/mem_device.hpp"
#include "util/memory_budget.hpp"

namespace noswalker {
namespace {

TEST(BlockScheduler, HottestPicksMaxCount)
{
    core::BlockScheduler sched(4, 4.0, 1 << 20, 4096);
    EXPECT_EQ(sched.hottest(), core::BlockScheduler::kNoBlock);
    sched.add_walker(1);
    sched.add_walker(2);
    sched.add_walker(2);
    EXPECT_EQ(sched.hottest(), 2u);
    sched.remove_walker(2);
    sched.remove_walker(2);
    EXPECT_EQ(sched.hottest(), 1u);
    sched.remove_walkers(1, 1);
    EXPECT_EQ(sched.hottest(), core::BlockScheduler::kNoBlock);
}

TEST(BlockScheduler, CountsTracked)
{
    core::BlockScheduler sched(2, 4.0, 1 << 20, 4096);
    sched.add_walker(0);
    sched.add_walker(0);
    EXPECT_EQ(sched.count(0), 2u);
    EXPECT_EQ(sched.count(1), 0u);
}

TEST(BlockScheduler, RemoveWalkersUnderflowClampsInsteadOfWrapping)
{
    // Regression: remove_walkers(b, n) with n > count used to wrap the
    // unsigned bucket to ~2^64, wedging the schedule on block b
    // forever.  Release builds clamp to zero; debug builds assert.
    core::BlockScheduler sched(4, 4.0, 1 << 20, 4096);
    sched.add_walker(1);
    sched.add_walker(2);
#ifdef NDEBUG
    sched.remove_walkers(1, 5); // over-removal clamps...
    EXPECT_EQ(sched.count(1), 0u);
    EXPECT_EQ(sched.hottest(), 2u) << "block 1 must not wrap hottest";
#else
    EXPECT_DEATH(sched.remove_walkers(1, 5), "");
#endif
}

TEST(BlockScheduler, HottestBreaksTiesTowardLowestBlockId)
{
    // Stated determinism contract (not an accident): the prefetch
    // nomination and the processed-block schedule rely on it.
    core::BlockScheduler sched(5, 4.0, 1 << 20, 4096);
    sched.add_walker(4);
    sched.add_walker(2);
    sched.add_walker(3);
    EXPECT_EQ(sched.hottest(), 2u);
    sched.add_walker(3);
    EXPECT_EQ(sched.hottest(), 3u) << "strictly hotter wins";
    sched.add_walker(2);
    EXPECT_EQ(sched.hottest(), 2u) << "tie at 2 resolves to lower id";
}

TEST(BlockScheduler, TopKBreaksTiesTowardLowestIdAtEveryRank)
{
    core::BlockScheduler sched(6, 4.0, 1 << 20, 4096);
    // counts: b1=2, b3=2, b0=1, b5=1, b4=0.
    sched.add_walker(3);
    sched.add_walker(3);
    sched.add_walker(1);
    sched.add_walker(1);
    sched.add_walker(5);
    sched.add_walker(0);
    const std::vector<std::uint32_t> top =
        sched.top_k_excluding(6, {});
    const std::vector<std::uint32_t> want = {1, 3, 0, 5};
    EXPECT_EQ(top, want);
    // A fine round's heat order is the same ranking, every busy block.
    std::vector<std::uint32_t> heat = {42};
    sched.heat_order(heat);
    EXPECT_EQ(heat, want);
    const std::uint32_t skip[] = {1};
    const std::vector<std::uint32_t> rest =
        sched.top_k_excluding(2, skip);
    const std::vector<std::uint32_t> want_rest = {3, 0};
    EXPECT_EQ(rest, want_rest);
}

TEST(BlockScheduler, FineModeRule)
{
    // S_G = 1 MiB, alpha = 4, page 4 KiB: threshold at |Wa| = 64.
    core::BlockScheduler sched(2, 4.0, 1 << 20, 4096);
    EXPECT_FALSE(sched.fine_mode(1000));
    EXPECT_FALSE(sched.fine_mode(64)); // 4*64*4096 == S_G, not <
    EXPECT_TRUE(sched.fine_mode(63));
}

TEST(BlockScheduler, FineModeIsSticky)
{
    core::BlockScheduler sched(2, 4.0, 1 << 20, 4096);
    EXPECT_TRUE(sched.fine_mode(1));
    // Once fine, stays fine even if the count argument grows.
    EXPECT_TRUE(sched.fine_mode(1'000'000));
    EXPECT_TRUE(sched.fine_mode_active());
}

TEST(WalkerPool, AdmitParkTakeRetire)
{
    util::MemoryBudget budget(0);
    core::WalkerPool<engine::Walker> pool(3, 4, budget);
    EXPECT_EQ(pool.capacity(), 4u);
    EXPECT_TRUE(pool.can_admit());
    pool.admit();
    pool.admit();
    EXPECT_EQ(pool.live(), 2u);
    pool.park(1, engine::Walker{0, 5, 0});
    pool.park(1, engine::Walker{1, 6, 0});
    EXPECT_EQ(pool.parked(1), 2u);
    EXPECT_EQ(pool.total_parked(), 2u);
    EXPECT_EQ(pool.bucket_view(1).size(), 2u);
    std::vector<engine::Walker> bucket;
    bucket.reserve(16);
    pool.take_bucket(1, bucket);
    EXPECT_EQ(bucket.size(), 2u);
    EXPECT_EQ(pool.parked(1), 0u);
    // The scratch's storage stays with the bucket for its next refill.
    EXPECT_GE(pool.bucket_view(1).capacity(), 16u);
    pool.retire();
    pool.retire();
    EXPECT_EQ(pool.live(), 0u);
}

TEST(WalkerPool, CapacityBoundsAdmission)
{
    util::MemoryBudget budget(0);
    core::WalkerPool<engine::Walker> pool(1, 2, budget);
    pool.admit();
    pool.admit();
    EXPECT_FALSE(pool.can_admit());
    pool.retire();
    EXPECT_TRUE(pool.can_admit());
}

TEST(WalkerPool, BudgetChargedForCapacity)
{
    util::MemoryBudget budget(1 << 20);
    {
        core::WalkerPool<engine::Walker> pool(1, 100, budget);
        EXPECT_EQ(budget.used(), 100 * sizeof(engine::Walker));
    }
    EXPECT_EQ(budget.used(), 0u);
}

TEST(WalkerPool, ExplicitReservationOverride)
{
    util::MemoryBudget budget(1 << 20);
    core::WalkerPool<engine::Walker> pool(1, 1000, budget, 64);
    EXPECT_EQ(budget.used(), 64u);
}

TEST(WalkerSpill, NoTrafficUnderCapacity)
{
    storage::MemDevice dev;
    engine::WalkerSpill spill(dev, 16, 100, 4);
    spill.park(0, 50);
    spill.park(1, 50);
    spill.activate(0);
    EXPECT_EQ(spill.swap_bytes(), 0u);
    EXPECT_EQ(spill.resident(), 100u);
}

TEST(WalkerSpill, OverflowWritesOut)
{
    storage::MemDevice dev;
    engine::WalkerSpill spill(dev, 16, 100, 4);
    spill.park(0, 150);
    // 50 walkers * 16 bytes spilled.
    EXPECT_EQ(spill.swap_bytes(), 50u * 16);
    EXPECT_EQ(spill.resident(), 100u);
    EXPECT_GT(dev.stats().bytes_written, 0u);
}

TEST(WalkerSpill, ActivateReadsBack)
{
    storage::MemDevice dev;
    engine::WalkerSpill spill(dev, 16, 100, 4);
    spill.park(0, 150);
    const std::uint64_t written = spill.swap_bytes();
    spill.activate(0);
    // Read-back traffic of the 50 spilled states (may evict others).
    EXPECT_GE(spill.swap_bytes(), written + 50u * 16);
    EXPECT_GT(dev.stats().bytes_read, 0u);
    // After activation the whole bucket can be retired.
    spill.retire(0, 150);
    EXPECT_EQ(spill.resident(), 0u);
}

TEST(WalkerSpill, EvictionFromColdestMakesRoom)
{
    storage::MemDevice dev;
    engine::WalkerSpill spill(dev, 16, 100, 4);
    spill.park(0, 60); // resident 60
    spill.park(1, 80); // 140 > 100: 40 of block 1 spilled
    EXPECT_EQ(spill.resident(), 100u);
    spill.activate(1); // needs 40 back: evicts from block 0
    spill.retire(1, 80);
    EXPECT_EQ(spill.resident(), 20u);
    spill.activate(0); // block 0's evicted states return
    spill.retire(0, 60);
    EXPECT_EQ(spill.resident(), 0u);
}

TEST(WalkerSpill, SwapTrafficGoesThroughDeviceModel)
{
    storage::MemDevice dev(storage::SsdModel::p4618());
    engine::WalkerSpill spill(dev, 16, 10, 2);
    spill.park(0, 1000);
    EXPECT_GT(dev.stats().busy_seconds, 0.0);
    EXPECT_EQ(dev.stats().bytes_written, spill.swap_bytes());
}

} // namespace
} // namespace noswalker
