/**
 * @file
 * BoundedTaskQueue unit tests: FIFO discipline, capacity
 * backpressure, the timed pop, and multi-producer ordering.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "exec/task_queue.h"

namespace naspipe {
namespace {

TEST(TaskQueue, FifoOrder)
{
    BoundedTaskQueue<int> q(8);
    for (int i = 0; i < 5; i++)
        q.push(i);
    EXPECT_EQ(q.size(), 5u);
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(q.pop(), i);
    EXPECT_TRUE(q.empty());
}

/** Whether a push of @p item into the full @p q blocks until a pop
 *  frees a slot, and the popped order stays FIFO. */
void
expectPushBlocksUntilPop(BoundedTaskQueue<int> &q, int head, int item)
{
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        q.push(item);  // the queue is full: blocks until the pop
        pushed.store(true);
    });
    // The producer cannot land while the queue is at capacity.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.pop(), head);
    producer.join();
    EXPECT_TRUE(pushed.load());
}

TEST(TaskQueue, PushBlocksAtCapacity)
{
    BoundedTaskQueue<int> q(2);
    q.push(1);
    q.push(2);
    expectPushBlocksUntilPop(q, 1, 3);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
}

TEST(TaskQueue, TimedPopOnEmptyReturnsNothing)
{
    BoundedTaskQueue<int> q(2);
    EXPECT_FALSE(q.pop(std::chrono::seconds(0)).has_value());
    EXPECT_FALSE(q.pop(std::chrono::milliseconds(5)).has_value());
    q.push(7);
    EXPECT_EQ(q.pop(std::chrono::seconds(0)), std::optional<int>(7));
    EXPECT_TRUE(q.empty());
}

TEST(TaskQueue, TimedPopWakesOnPush)
{
    BoundedTaskQueue<int> q(2);
    std::thread producer([&q] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        q.push(9);
    });
    // The deadline is far off: only the push can end this wait.
    std::optional<int> got = q.pop(std::chrono::seconds(60));
    producer.join();
    EXPECT_EQ(got, std::optional<int>(9));
}

TEST(TaskQueue, CapacityFloorIsOne)
{
    BoundedTaskQueue<int> q(0);
    q.push(1);
    expectPushBlocksUntilPop(q, 1, 2);
    EXPECT_EQ(q.size(), 1u);
}

TEST(TaskQueue, DrainIntoMovesEverything)
{
    BoundedTaskQueue<int> q(8);
    for (int i = 0; i < 6; i++)
        q.push(i);
    std::vector<int> out;
    EXPECT_EQ(q.drainInto(out), 6u);
    EXPECT_TRUE(q.empty());
    ASSERT_EQ(out.size(), 6u);
    for (int i = 0; i < 6; i++)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(q.drainInto(out), 0u);
}

TEST(TaskQueue, BlockingPushUnblocksOnPop)
{
    BoundedTaskQueue<int> q(1);
    q.push(1);
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        q.push(2);  // blocks until the consumer pops
        pushed.store(true);
    });
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);  // pop blocks until the producer lands
    producer.join();
    EXPECT_TRUE(pushed.load());
}

TEST(TaskQueue, MultiProducerPreservesPerProducerOrder)
{
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 200;
    BoundedTaskQueue<int> q(16);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; p++) {
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; i++)
                q.push(p * kPerProducer + i);
        });
    }
    std::vector<int> lastSeen(kProducers, -1);
    for (int n = 0; n < kProducers * kPerProducer; n++) {
        int v = *q.pop();
        int p = v / kPerProducer;
        int i = v % kPerProducer;
        EXPECT_GT(i, lastSeen[static_cast<std::size_t>(p)]);
        lastSeen[static_cast<std::size_t>(p)] = i;
    }
    for (auto &t : producers)
        t.join();
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace naspipe
