/**
 * @file
 * Unit tests for the util substrate: RNG, alias tables, bitmaps,
 * memory budget, blocking queue, timers.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "util/alias_table.hpp"
#include "util/bitmap.hpp"
#include "util/blocking_queue.hpp"
#include "util/error.hpp"
#include "util/memory_budget.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace noswalker::util {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) {
            ++same;
        }
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NextIndexInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.next_index(bound), bound);
        }
    }
}

TEST(Rng, NextIndexCoversAllValues)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        seen.insert(rng.next_index(8));
    }
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.next_double();
        ASSERT_GE(x, 0.0);
        ASSERT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(5);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent() == child()) {
            ++same;
        }
    }
    EXPECT_LT(same, 2);
}

TEST(SplitMix, Deterministic)
{
    SplitMix64 a(42);
    SplitMix64 b(42);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), SplitMix64(43).next());
}

TEST(AliasTable, UniformWeights)
{
    std::vector<double> w(4, 1.0);
    AliasTable table(w);
    Rng rng(3);
    std::vector<int> counts(4, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        ++counts[table.sample(rng)];
    }
    for (int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.02);
    }
}

TEST(AliasTable, SkewedWeightsMatchDistribution)
{
    const std::vector<double> w = {1.0, 2.0, 4.0, 8.0, 1.0};
    const double total = 16.0;
    AliasTable table(w);
    Rng rng(13);
    std::vector<int> counts(w.size(), 0);
    const int n = 160000;
    for (int i = 0; i < n; ++i) {
        ++counts[table.sample(rng)];
    }
    // Chi-square goodness of fit, 4 dof, alpha=0.001 => 18.47.
    double chi2 = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
        const double expected = n * w[i] / total;
        const double diff = counts[i] - expected;
        chi2 += diff * diff / expected;
    }
    EXPECT_LT(chi2, 18.47);
}

TEST(AliasTable, ZeroWeightNeverSampled)
{
    const std::vector<double> w = {0.0, 1.0, 0.0, 1.0};
    AliasTable table(w);
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        const auto s = table.sample(rng);
        EXPECT_TRUE(s == 1 || s == 3);
    }
}

TEST(AliasTable, SingleOutcome)
{
    const std::vector<double> w = {3.5};
    AliasTable table(w);
    Rng rng(19);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(table.sample(rng), 0u);
    }
}

TEST(AliasTable, AllZeroWeightsThrows)
{
    const std::vector<double> w = {0.0, 0.0};
    AliasTable table;
    EXPECT_THROW(table.build(w), ConfigError);
}

TEST(AliasTableBatch, SampleBatchMatchesSequentialDrawForDraw)
{
    for (const std::size_t outcomes : {1UL, 3UL, 17UL, 1000UL}) {
        std::vector<double> weights(outcomes);
        util::Rng wrng(911 + outcomes);
        for (double &w : weights) {
            w = wrng.next_double() * 10.0;
        }
        weights[0] += 1.0; // at least one strictly positive weight
        const util::AliasTable table(weights);

        for (const std::size_t n : {1UL, 5UL, 64UL, 257UL}) {
            const std::uint64_t seed = 1234 + outcomes * 1000 + n;
            util::Rng seq(seed);
            std::vector<std::uint32_t> expected(n);
            for (std::uint32_t &draw : expected) {
                draw = table.sample(seq);
            }

            util::Rng batch(seed);
            std::vector<std::uint32_t> got(n);
            table.sample_batch(batch, got.data(), n);
            EXPECT_EQ(got, expected)
                << outcomes << " outcomes, batch of " << n;
            // The generators must also agree *after* the draws, so a
            // caller can keep using the stream either way.
            EXPECT_EQ(batch(), seq());
        }
    }
}

TEST(AliasArrays, MatchAliasTableSemantics)
{
    const std::vector<double> w = {5.0, 1.0, 2.0};
    std::vector<float> prob(3);
    std::vector<std::uint32_t> alias(3);
    build_alias_arrays(w, prob, alias);
    // Sample manually and compare against expectations.
    Rng rng(23);
    std::vector<int> counts(3, 0);
    const int n = 90000;
    for (int i = 0; i < n; ++i) {
        const auto slot =
            static_cast<std::size_t>(rng.next_index(3));
        const auto pick = rng.next_double() < prob[slot]
                              ? static_cast<std::uint32_t>(slot)
                              : alias[slot];
        ++counts[pick];
    }
    EXPECT_NEAR(counts[0] / double(n), 5.0 / 8.0, 0.02);
    EXPECT_NEAR(counts[1] / double(n), 1.0 / 8.0, 0.02);
    EXPECT_NEAR(counts[2] / double(n), 2.0 / 8.0, 0.02);
}

TEST(Bitmap, SetTestClear)
{
    Bitmap bm(130);
    EXPECT_EQ(bm.size(), 130u);
    EXPECT_TRUE(bm.none());
    bm.set(0);
    bm.set(64);
    bm.set(129);
    EXPECT_TRUE(bm.test(0));
    EXPECT_TRUE(bm.test(64));
    EXPECT_TRUE(bm.test(129));
    EXPECT_FALSE(bm.test(1));
    EXPECT_EQ(bm.count(), 3u);
    bm.clear(64);
    EXPECT_FALSE(bm.test(64));
    EXPECT_EQ(bm.count(), 2u);
}

TEST(Bitmap, ForEachSetAscending)
{
    Bitmap bm(200);
    const std::vector<std::size_t> bits = {3, 64, 65, 127, 128, 199};
    for (std::size_t b : bits) {
        bm.set(b);
    }
    std::vector<std::size_t> seen;
    bm.for_each_set([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, bits);
}

TEST(Bitmap, ForEachRunMatchesABitByBitScan)
{
    // Runs across word edges, whole set words and runs to the end.
    for (const std::size_t nbits : {1u, 63u, 64u, 65u, 128u, 200u, 257u}) {
        for (std::uint64_t seed = 0; seed < 40; ++seed) {
            Bitmap bm(nbits);
            Rng rng(seed);
            const std::uint64_t density = seed % 4; // 0: sparse … 3: dense
            for (std::size_t i = 0; i < nbits; ++i) {
                if (rng.next_index(4) < density + (seed % 8 >= 4 ? 1 : 0)) {
                    bm.set(i);
                }
            }
            std::vector<std::pair<std::size_t, std::size_t>> want;
            for (std::size_t i = 0; i < nbits;) {
                if (!bm.test(i)) {
                    ++i;
                    continue;
                }
                std::size_t end = i + 1;
                while (end < nbits && bm.test(end)) {
                    ++end;
                }
                want.emplace_back(i, end);
                i = end;
            }
            std::vector<std::pair<std::size_t, std::size_t>> got;
            bm.for_each_run([&](std::size_t first, std::size_t end) {
                got.emplace_back(first, end);
            });
            ASSERT_EQ(got, want) << nbits << " bits, seed " << seed;
        }
    }
}

TEST(Bitmap, ResetClearsAll)
{
    Bitmap bm(64);
    bm.set(5);
    bm.set(63);
    bm.reset();
    EXPECT_TRUE(bm.none());
    EXPECT_EQ(bm.count(), 0u);
}

TEST(Bitmap, ResizeZero)
{
    Bitmap bm(10);
    bm.set(3);
    bm.resize(0);
    EXPECT_EQ(bm.size(), 0u);
    EXPECT_TRUE(bm.none());
}

TEST(MemoryBudget, ReserveReleasePeak)
{
    MemoryBudget budget(1000);
    budget.reserve(400, "a");
    EXPECT_EQ(budget.used(), 400u);
    budget.reserve(500, "b");
    EXPECT_EQ(budget.used(), 900u);
    EXPECT_EQ(budget.peak(), 900u);
    budget.release(500);
    EXPECT_EQ(budget.used(), 400u);
    EXPECT_EQ(budget.peak(), 900u);
    EXPECT_EQ(budget.available(), 600u);
}

TEST(MemoryBudget, ExceedingThrows)
{
    MemoryBudget budget(100);
    budget.reserve(60);
    EXPECT_THROW(budget.reserve(41), BudgetExceeded);
    EXPECT_EQ(budget.used(), 60u); // failed reserve must not leak
    EXPECT_FALSE(budget.try_reserve(41));
    EXPECT_TRUE(budget.try_reserve(40));
}

TEST(MemoryBudget, UnlimitedNeverThrows)
{
    MemoryBudget budget(0);
    budget.reserve(1ULL << 40);
    EXPECT_EQ(budget.used(), 1ULL << 40);
}

TEST(MemoryBudget, SaturatingReserveNearUint64Max)
{
    // Regression: on an unlimited budget, cur + bytes used to wrap
    // around UINT64_MAX and corrupt used_/peak_ (used() would come
    // back tiny while two huge reservations were outstanding).
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    MemoryBudget budget(0);
    EXPECT_TRUE(budget.try_reserve(max - 100));
    EXPECT_EQ(budget.used(), max - 100);
    EXPECT_TRUE(budget.try_reserve(1000)); // would wrap; saturates
    EXPECT_EQ(budget.used(), max);
    EXPECT_EQ(budget.peak(), max);

    // Releases clamp at zero once saturation lost exact pairing, so
    // the drain invariant (everything released ⇒ used() == 0) holds.
    budget.release(1000);
    budget.release(max - 100);
    EXPECT_EQ(budget.used(), 0u);
}

TEST(MemoryBudget, OverflowingReserveRejectedUnderLimit)
{
    // Regression: under a finite limit, a wrapped cur + bytes could
    // come out *below* the limit and slip a giant reservation past
    // the cap.
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    MemoryBudget budget(1ULL << 20);
    budget.reserve(100);
    EXPECT_FALSE(budget.try_reserve(max - 50));
    EXPECT_EQ(budget.used(), 100u);
    EXPECT_THROW(budget.reserve(max - 50), BudgetExceeded);
    EXPECT_EQ(budget.used(), 100u);
    budget.release(100);
    EXPECT_EQ(budget.used(), 0u);
}

TEST(Reservation, RaiiReleases)
{
    MemoryBudget budget(100);
    {
        Reservation r(budget, 80, "tmp");
        EXPECT_EQ(budget.used(), 80u);
    }
    EXPECT_EQ(budget.used(), 0u);
}

TEST(Reservation, MoveTransfersOwnership)
{
    MemoryBudget budget(100);
    Reservation a(budget, 50);
    Reservation b = std::move(a);
    EXPECT_EQ(budget.used(), 50u);
    a.release(); // moved-from: no-op
    EXPECT_EQ(budget.used(), 50u);
    b.release();
    EXPECT_EQ(budget.used(), 0u);
}

TEST(Reservation, ResizeGrowsAndShrinks)
{
    MemoryBudget budget(100);
    Reservation r(budget, 20);
    r.resize(70);
    EXPECT_EQ(budget.used(), 70u);
    r.resize(10);
    EXPECT_EQ(budget.used(), 10u);
    EXPECT_THROW(r.resize(200), BudgetExceeded);
    EXPECT_EQ(budget.used(), 10u);
}

TEST(MemoryBudget, ConcurrentReserveRespectsCap)
{
    MemoryBudget budget(10000);
    std::vector<std::thread> threads;
    std::atomic<int> successes{0};
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 1000; ++i) {
                if (budget.try_reserve(10)) {
                    ++successes;
                }
            }
        });
    }
    for (auto &th : threads) {
        th.join();
    }
    EXPECT_EQ(successes.load(), 1000);
    EXPECT_EQ(budget.used(), 10000u);
}

TEST(BlockingQueue, FifoOrder)
{
    BlockingQueue<int> q(8);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(q.push(i));
    }
    for (int i = 0; i < 5; ++i) {
        auto v = q.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
}

TEST(BlockingQueue, CloseDrainsThenEnds)
{
    BlockingQueue<int> q(4);
    q.push(1);
    q.close();
    EXPECT_FALSE(q.push(2));
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 1);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, CrossThreadTransfer)
{
    BlockingQueue<int> q(2);
    std::thread producer([&] {
        for (int i = 0; i < 100; ++i) {
            q.push(i);
        }
        q.close();
    });
    int expected = 0;
    while (auto v = q.pop()) {
        EXPECT_EQ(*v, expected++);
    }
    EXPECT_EQ(expected, 100);
    producer.join();
}

TEST(BlockingQueue, TryPopEmpty)
{
    BlockingQueue<int> q(2);
    EXPECT_FALSE(q.try_pop().has_value());
    q.push(9);
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 9);
}

TEST(Timer, MeasuresElapsed)
{
    Timer t;
    const double a = t.seconds();
    EXPECT_GE(a, 0.0);
    AccumTimer acc;
    acc.start();
    acc.stop();
    acc.start();
    acc.stop();
    EXPECT_GE(acc.seconds(), 0.0);
}

} // namespace
} // namespace noswalker::util
