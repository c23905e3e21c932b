/**
 * @file
 * BlockingQueue semantics the walk service depends on: bounded
 * capacity with non-blocking rejection, timed pops, and clean
 * multi-producer/multi-consumer shutdown.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/blocking_queue.hpp"

namespace noswalker::util {
namespace {

using namespace std::chrono_literals;

TEST(BlockingQueue, BoundedCapacityRejectsTryPushWhenFull)
{
    BlockingQueue<int> q(2);
    EXPECT_TRUE(q.try_push(1));
    EXPECT_TRUE(q.try_push(2));
    EXPECT_FALSE(q.try_push(3));
    EXPECT_EQ(q.size(), 2u);

    EXPECT_EQ(q.try_pop().value(), 1);
    EXPECT_TRUE(q.try_push(3));
    EXPECT_EQ(q.try_pop().value(), 2);
    EXPECT_EQ(q.try_pop().value(), 3);
    EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, UnboundedNeverRejects)
{
    BlockingQueue<int> q(0);
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(q.try_push(i));
    }
    EXPECT_EQ(q.size(), 10000u);
    for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(q.pop().value(), i);
    }
}

TEST(BlockingQueue, PopForTimesOutOnEmptyOpenQueue)
{
    BlockingQueue<int> q(4);
    const auto before = std::chrono::steady_clock::now();
    EXPECT_FALSE(q.pop_for(20ms).has_value());
    EXPECT_GE(std::chrono::steady_clock::now() - before, 20ms);
    EXPECT_FALSE(q.closed());
}

TEST(BlockingQueue, TryPushResultDistinguishesFullFromClosed)
{
    // Regression: the walk service reports *why* a submission was
    // dropped.  A bare bool cannot tell a full queue from a closed one
    // (the service used to re-probe closed() after the failed push and
    // could misreport a racing close), so the outcome must be decided
    // under the queue lock.
    BlockingQueue<int> q(1);
    EXPECT_EQ(q.try_push_result(1), PushOutcome::kPushed);
    EXPECT_EQ(q.try_push_result(2), PushOutcome::kFull);
    EXPECT_EQ(q.size(), 1u);

    // Full AND closed: closed wins — the value could never be served.
    q.close();
    EXPECT_EQ(q.try_push_result(3), PushOutcome::kClosed);

    // Empty and closed is still closed, never "full".
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.try_push_result(4), PushOutcome::kClosed);
}

TEST(BlockingQueue, CloseFailsPushesButDrainsRemainingElements)
{
    BlockingQueue<int> q(8);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(3));
    EXPECT_FALSE(q.try_push(3));
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_FALSE(q.pop_for(1ms).has_value());
}

TEST(BlockingQueue, MultiConsumerShutdownDeliversEverythingExactlyOnce)
{
    constexpr int kItems = 2000;
    constexpr int kConsumers = 4;
    BlockingQueue<int> q(16);

    std::atomic<int> delivered{0};
    std::atomic<long long> sum{0};
    std::vector<std::thread> consumers;
    consumers.reserve(kConsumers);
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            while (auto v = q.pop()) {
                delivered.fetch_add(1, std::memory_order_relaxed);
                sum.fetch_add(*v, std::memory_order_relaxed);
            }
        });
    }

    for (int i = 1; i <= kItems; ++i) {
        ASSERT_TRUE(q.push(i));
    }
    q.close();
    for (std::thread &t : consumers) {
        t.join();
    }

    EXPECT_EQ(delivered.load(), kItems);
    EXPECT_EQ(sum.load(),
              static_cast<long long>(kItems) * (kItems + 1) / 2);
}

TEST(BlockingQueue, CloseWakesProducersBlockedOnFullQueue)
{
    BlockingQueue<int> q(1);
    ASSERT_TRUE(q.push(1)); // queue now full

    std::atomic<int> rejected{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
        producers.emplace_back([&] {
            if (!q.push(99)) {
                rejected.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    // Give the producers a moment to block on the full queue.
    std::this_thread::sleep_for(10ms);
    q.close();
    for (std::thread &t : producers) {
        t.join();
    }
    EXPECT_EQ(rejected.load(), 3);
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_FALSE(q.pop().has_value());
}

} // namespace
} // namespace noswalker::util
