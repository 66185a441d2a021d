/**
 * @file
 * Unit tests for the work-stealing TaskGroup runtime.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "util/task.hh"
#include "util/threadpool.hh"

namespace afsb {
namespace {

TEST(TaskGroup, RunsEverySpawnedTaskOnce)
{
    ThreadPool pool(4);
    TaskGroup group(&pool);
    std::vector<std::atomic<int>> hits(500);
    for (size_t i = 0; i < hits.size(); ++i)
        group.spawn([&hits, i] { ++hits[i]; });
    group.sync();
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(TaskGroup, NullPoolRunsInlineOnCaller)
{
    TaskGroup group(nullptr);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen;
    for (int i = 0; i < 8; ++i)
        group.spawn([&] { seen.push_back(std::this_thread::get_id()); });
    group.sync();
    ASSERT_EQ(seen.size(), 8u);
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
}

TEST(TaskGroup, TasksSpawnTasksRecursively)
{
    // A binary fan-out spawned entirely from inside tasks: 1 root
    // spawning 2 spawning 4 ... totals 2^d - 1 executions.
    ThreadPool pool(4);
    TaskGroup group(&pool);
    std::atomic<int> count{0};
    std::function<void(int)> node = [&](int depth) {
        ++count;
        if (depth == 0)
            return;
        group.spawn([&, depth] { node(depth - 1); });
        group.spawn([&, depth] { node(depth - 1); });
    };
    group.spawn([&] { node(6); });
    group.sync();
    EXPECT_EQ(count.load(), (1 << 7) - 1);
}

TEST(TaskGroup, SyncIsReusable)
{
    ThreadPool pool(3);
    TaskGroup group(&pool);
    std::atomic<int> sum{0};
    for (int i = 0; i < 10; ++i)
        group.spawn([&, i] { sum += i; });
    group.sync();
    EXPECT_EQ(sum.load(), 45);
    for (int i = 0; i < 5; ++i)
        group.spawn([&, i] { sum += i; });
    group.sync();
    EXPECT_EQ(sum.load(), 55);
}

TEST(TaskGroup, SyncWithNoTasksReturnsImmediately)
{
    ThreadPool pool(2);
    TaskGroup group(&pool);
    group.sync();
    group.sync();
}

TEST(TaskGroup, GateFiresAfterAllArrivals)
{
    ThreadPool pool(4);
    TaskGroup group(&pool);
    std::atomic<int> before{0};
    std::atomic<int> after{0};
    std::atomic<bool> ordered{true};
    constexpr int kArrivals = 32;
    auto *gate = group.gate(kArrivals, [&] {
        if (before.load() != kArrivals)
            ordered = false;
        ++after;
    });
    for (int i = 0; i < kArrivals; ++i)
        group.spawn([&, gate] {
            ++before;
            gate->arrive();
        });
    group.sync();
    EXPECT_EQ(after.load(), 1);
    EXPECT_TRUE(ordered.load());
}

TEST(TaskGroup, GateChainsAcrossStages)
{
    // Three-stage chain: stage tasks arrive at the next stage's gate;
    // every stage must observe the previous one fully drained.
    ThreadPool pool(4);
    TaskGroup group(&pool);
    std::atomic<int> stage1{0};
    std::atomic<int> stage2{0};
    std::atomic<bool> ok{true};
    auto *g2 = group.gate(8, [&] {
        if (stage2.load() != 8)
            ok = false;
    });
    auto *g1 = group.gate(8, [&] {
        if (stage1.load() != 8)
            ok = false;
        for (int i = 0; i < 8; ++i)
            group.spawn([&, g2] {
                ++stage2;
                g2->arrive();
            });
    });
    for (int i = 0; i < 8; ++i)
        group.spawn([&, g1] {
            ++stage1;
            g1->arrive();
        });
    group.sync();
    EXPECT_TRUE(ok.load());
    EXPECT_EQ(stage2.load(), 8);
}

TEST(TaskGroup, NestedGroupInsideTaskRunsInline)
{
    // A group created inside a task of another group must not
    // dispatch to the pool (its participants could deadlock against
    // the outer group's); it degrades to inline execution.
    ThreadPool pool(2);
    TaskGroup outer(&pool);
    std::atomic<int> innerCount{0};
    std::atomic<bool> sawInline{false};
    outer.spawn([&] {
        TaskGroup inner(&pool);
        for (int i = 0; i < 10; ++i)
            inner.spawn([&] { ++innerCount; });
        inner.sync();
        sawInline = true;
    });
    outer.sync();
    EXPECT_EQ(innerCount.load(), 10);
    EXPECT_TRUE(sawInline.load());
}

TEST(TaskGroup, GroupFromPoolWorkerRunsInline)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] {
        TaskGroup g(&pool);
        for (int i = 0; i < 10; ++i)
            g.spawn([&] { ++count; });
        g.sync();
    });
    pool.wait();
    EXPECT_EQ(count.load(), 10);
}

TEST(TaskGroup, InTaskReflectsContext)
{
    ThreadPool pool(2);
    EXPECT_FALSE(TaskGroup::inTask());
    TaskGroup group(&pool);
    std::atomic<bool> inside{false};
    group.spawn([&] { inside = TaskGroup::inTask(); });
    group.sync();
    EXPECT_TRUE(inside.load());
    EXPECT_FALSE(TaskGroup::inTask());
}

TEST(TaskGroup, ManyTasksManyWorkersStress)
{
    ThreadPool pool(8);
    TaskGroup group(&pool);
    constexpr size_t kN = 2000;
    std::vector<std::atomic<int>> hits(kN);
    for (size_t i = 0; i < kN; ++i)
        group.spawn([&hits, i] { ++hits[i]; });
    group.sync();
    size_t total = 0;
    for (const auto &h : hits)
        total += static_cast<size_t>(h.load());
    EXPECT_EQ(total, kN);
}

TEST(TaskGroup, DestructorSyncsOutstandingTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    {
        TaskGroup group(&pool);
        for (int i = 0; i < 100; ++i)
            group.spawn([&] { ++count; });
    }
    EXPECT_EQ(count.load(), 100);
}

} // namespace
} // namespace afsb
