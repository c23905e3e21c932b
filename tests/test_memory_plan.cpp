/**
 * @file
 * The memory plan's split pinned on the shipped workloads: every
 * expected value is what NosWalkerEngine::setup reserved before the
 * split moved into core::plan_memory, read from instrumented runs at
 * seed 1 (walkbench oc-basic, svc and oc-node2vec-2shard; the
 * fig14_breakdown base stage; Integration.RaidDeviceEndToEnd for an
 * unlimited budget).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/memory_plan.hpp"

namespace noswalker::core {
namespace {

/** A limited budget that is wholly free when setup starts. */
MemoryPlanInputs
fresh(std::uint64_t budget, std::uint64_t index, std::uint64_t buffer,
      std::uint64_t record, std::uint64_t walkers, bool presample)
{
    return {budget, budget, index, buffer, record, walkers, presample};
}

TEST(MemoryPlan, OcBasic)
{
    const MemoryPlanInputs in =
        fresh(1'114'126, 262'152, 135'168, 24, 1'000'000, true);
    const MemoryPlan plan = plan_memory(in, EngineConfig{});
    EXPECT_EQ(plan.index_bytes, 262'152u);
    EXPECT_EQ(plan.buffers, 2u);
    EXPECT_EQ(plan.buffer_bytes, 135'168u);
    EXPECT_EQ(plan.walker_cap, 12'117u);
    EXPECT_EQ(plan.walker_bytes, 290'808u);
    EXPECT_EQ(plan.resident_walkers, 0u);
    EXPECT_EQ(plan.presample_bytes, 247'205u);
    EXPECT_EQ(plan.spec_slots, 1u);
    EXPECT_EQ(plan.spec_bytes(), 0u);
    // walkbench's peak_mem_bytes, and 43,625 B left idle.
    EXPECT_EQ(plan.reserved(), 1'070'501u);
    EXPECT_EQ(in.limit - plan.reserved(), 43'625u);
}

TEST(MemoryPlan, SvcEngine)
{
    // A shared budget: the cache and other requests hold some of it.
    const MemoryPlanInputs in{17'891'342, 17'870'334, 262'152, 135'168,
                              24,         92,         false};
    const MemoryPlan plan = plan_memory(in, EngineConfig{});
    EXPECT_EQ(plan.buffers, 2u);
    EXPECT_EQ(plan.walker_cap, 92u);
    EXPECT_EQ(plan.walker_bytes, 2'208u);
    EXPECT_EQ(plan.presample_bytes, 0u);
    EXPECT_EQ(plan.spec_slots, 2u);
    EXPECT_EQ(plan.spec_bytes(), 135'168u);
    EXPECT_EQ(plan.reserved(), 669'864u);
    EXPECT_EQ(in.available - plan.reserved(), 17'200'470u);
}

TEST(MemoryPlan, OcNode2VecShardSlices)
{
    // ShardedEngine's slices split by need; shard rounds never
    // pre-sample.  Both leave the same room for the walker pool.
    const MemoryPlanInputs shard0 =
        fresh(465'159, 43'272, 135'168, 40, 19'584, false);
    const MemoryPlanInputs shard1 =
        fresh(648'967, 227'080, 135'168, 40, 65'536, false);
    for (const MemoryPlanInputs &in : {shard0, shard1}) {
        const MemoryPlan plan = plan_memory(in, EngineConfig{});
        EXPECT_EQ(plan.buffers, 1u);
        EXPECT_EQ(plan.walker_cap, 3'583u);
        EXPECT_EQ(plan.walker_bytes, 143'320u);
        EXPECT_EQ(plan.presample_bytes, 0u);
        EXPECT_EQ(plan.spec_slots, 0u);
        EXPECT_EQ(in.limit - plan.reserved(), 143'399u);
    }
    EXPECT_EQ(plan_memory(shard0, EngineConfig{}).reserved(), 321'760u);
    EXPECT_EQ(plan_memory(shard1, EngineConfig{}).reserved(), 505'568u);

    // A round with fewer walkers than the cap sizes the pool to them.
    MemoryPlanInputs small = shard1;
    small.walkers = 2;
    EXPECT_EQ(plan_memory(small, EngineConfig{}).walker_bytes, 80u);
}

TEST(MemoryPlan, UnlimitedBudget)
{
    const MemoryPlanInputs in{0,     std::numeric_limits<std::uint64_t>::max(),
                              4'104, 16'384,
                              24,    300,
                              true};
    const MemoryPlan plan = plan_memory(in, EngineConfig{});
    EXPECT_EQ(plan.buffers, 2u);
    EXPECT_EQ(plan.walker_cap, 300u);
    EXPECT_EQ(plan.walker_bytes, 7'200u);
    EXPECT_EQ(plan.presample_bytes, std::uint64_t{64} << 20);
    EXPECT_EQ(plan.spec_slots, 2u);
    EXPECT_EQ(plan.reserved(), 67'169'320u);
}

TEST(MemoryPlan, WalkerManagementOff)
{
    // fig14_breakdown's base stage: every walker exists up front and
    // only the resident buffer is charged.
    EngineConfig config;
    config.walker_management = false;
    const MemoryPlan plan = plan_memory(
        fresh(597'695, 65'544, 36'864, 24, 32'768, false), config);
    EXPECT_EQ(plan.buffers, 2u);
    EXPECT_EQ(plan.walker_cap, 32'768u);
    EXPECT_EQ(plan.walker_bytes, 229'211u);
    EXPECT_EQ(plan.resident_walkers, 9'550u);
    EXPECT_EQ(plan.spec_slots, 2u);
    EXPECT_EQ(plan.reserved(), 405'347u);

    // Single-buffered, with a resident buffer larger than the walkers.
    const MemoryPlan single = plan_memory(
        fresh(597'695, 65'544, 135'168, 24, 8'192, false), config);
    EXPECT_EQ(single.buffers, 1u);
    EXPECT_EQ(single.walker_cap, 8'192u);
    EXPECT_EQ(single.walker_bytes, 196'608u);
    EXPECT_EQ(single.resident_walkers, 8'270u);
    EXPECT_EQ(single.spec_slots, 0u);
    EXPECT_EQ(single.reserved(), 397'320u);
}

TEST(MemoryPlan, OnlySpeculationDependsOnTheDepth)
{
    const MemoryPlanInputs in =
        fresh(1'114'126, 262'152, 135'168, 24, 1'000'000, true);
    const MemoryPlan base = plan_memory(in, EngineConfig{});
    for (unsigned depth = 0; depth <= 8; ++depth) {
        EngineConfig config;
        config.prefetch_depth = depth;
        const MemoryPlan plan = plan_memory(in, config);
        EXPECT_EQ(plan.buffers, base.buffers);
        EXPECT_EQ(plan.walker_cap, base.walker_cap);
        EXPECT_EQ(plan.presample_bytes, base.presample_bytes);
        EXPECT_LE(plan.reserved(), in.limit);
    }
}

} // namespace
} // namespace noswalker::core
