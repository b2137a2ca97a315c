// The deterministic work-sharding harness (src/harness/parallel.hpp):
// static sharding, inline serial degeneration, exception surfacing,
// jobs-independent seed derivation, and the per-worker metrics merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/parallel.hpp"
#include "obs/metrics.hpp"

using namespace koika;
using namespace koika::harness;

TEST(ResolveJobs, PositivePassesThroughZeroMeansHardware)
{
    EXPECT_EQ(resolve_jobs(1), 1);
    EXPECT_EQ(resolve_jobs(7), 7);
    int hw = resolve_jobs(0);
    EXPECT_GE(hw, 1);
    EXPECT_EQ(resolve_jobs(-3), hw);
}

TEST(DeriveSeed, IsDeterministicAndSpreadsItems)
{
    EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
    std::set<uint64_t> seeds;
    for (uint64_t i = 0; i < 1000; ++i)
        seeds.insert(derive_seed(42, i));
    EXPECT_EQ(seeds.size(), 1000u);
    // Different base seeds diverge too.
    EXPECT_NE(derive_seed(42, 5), derive_seed(43, 5));
}

TEST(ParallelFor, VisitsEveryItemExactlyOnce)
{
    for (int jobs : {1, 2, 8}) {
        std::vector<std::atomic<int>> visits(100);
        parallel_for(100, jobs, [&](uint64_t i) { visits[i]++; });
        for (auto& v : visits)
            EXPECT_EQ(v.load(), 1) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, ZeroItemsIsANoOp)
{
    parallel_for(0, 4, [&](uint64_t) { FAIL(); });
}

TEST(ThreadPool, StaticShardingItemToWorkerIsIModJobs)
{
    ThreadPool pool(4);
    ASSERT_EQ(pool.jobs(), 4);
    std::vector<int> worker_of(64, -1);
    pool.run(64, [&](uint64_t i, int w) { worker_of[i] = w; });
    for (uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(worker_of[i], (int)(i % 4));
}

TEST(ThreadPool, EachWorkerWalksItsItemsInIncreasingOrder)
{
    ThreadPool pool(3);
    std::mutex mu;
    std::vector<std::vector<uint64_t>> order(3);
    pool.run(50, [&](uint64_t i, int w) {
        std::lock_guard<std::mutex> lock(mu);
        order[w].push_back(i);
    });
    for (int w = 0; w < 3; ++w) {
        for (size_t k = 1; k < order[w].size(); ++k)
            EXPECT_LT(order[w][k - 1], order[w][k]);
    }
}

TEST(ThreadPool, SerialPoolRunsInlineOnTheCallingThread)
{
    ThreadPool pool(1);
    std::thread::id caller = std::this_thread::get_id();
    bool inline_run = false;
    pool.run(5, [&](uint64_t, int worker) {
        inline_run = std::this_thread::get_id() == caller && worker == 0;
    });
    EXPECT_TRUE(inline_run);
}

TEST(ThreadPool, IsReusableAcrossRuns)
{
    ThreadPool pool(2);
    std::atomic<int> total{0};
    for (int round = 0; round < 10; ++round)
        pool.run(7, [&](uint64_t, int) { total++; });
    EXPECT_EQ(total.load(), 70);
}

TEST(ThreadPool, RethrowsLowestItemsExceptionLikeASerialRun)
{
    for (int jobs : {1, 4}) {
        ThreadPool pool(jobs);
        std::atomic<int> ran{0};
        try {
            pool.run(20, [&](uint64_t i, int) {
                ran++;
                if (i == 3 || i == 11)
                    throw std::runtime_error("item " +
                                             std::to_string(i));
            });
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "item 3") << "jobs=" << jobs;
        }
        // The pool joins before rethrowing: every item still ran.
        EXPECT_EQ(ran.load(), 20) << "jobs=" << jobs;
    }
}

TEST(MetricsMerge, CountersAddGaugesTakeOtherHistogramsFold)
{
    obs::MetricsRegistry a, b;
    a.inc("c", 2);
    b.inc("c", 3);
    b.inc("only_b");
    a.set_gauge("g", 1.0);
    b.set_gauge("g", 7.0);
    a.observe("h", 0.5);
    b.observe("h", 2.0);
    a.merge_from(b);
    EXPECT_EQ(a.counter("c"), 5u);
    EXPECT_EQ(a.counter("only_b"), 1u);
    EXPECT_EQ(a.gauge("g"), 7.0);
    ASSERT_NE(a.histogram("h"), nullptr);
    EXPECT_EQ(a.histogram("h")->total, 2u);
    EXPECT_DOUBLE_EQ(a.histogram("h")->sum, 2.5);
}

TEST(MetricsMerge, MergingAnEmptyRegistryIsIdentity)
{
    obs::MetricsRegistry a, empty;
    a.inc("c", 4);
    a.set_gauge("g", 2.5);
    std::string before = a.to_json().dump(2);
    a.merge_from(empty);
    EXPECT_EQ(a.to_json().dump(2), before);
}

// -- Per-worker contexts (WorkerContext/ContextFactory): the hooks the
// warm fault-trial loop hangs its per-worker state on. Contexts must be
// created lazily on the owning worker, be stable for every item that
// worker handles, and live exactly as long as one run() batch.

namespace {

struct CountingContext final : WorkerContext
{
    explicit CountingContext(std::atomic<int>* live) : live_(live)
    {
        ++*live_;
    }
    ~CountingContext() override { --*live_; }
    std::atomic<int>* live_;
};

} // namespace

TEST(ThreadPool, ContextsLiveExactlyOneRunBatch)
{
    std::atomic<int> live{0};
    std::atomic<int> created{0};
    ContextFactory make = [&](int) {
        created++;
        return std::make_unique<CountingContext>(&live);
    };
    ThreadPool pool(3);
    for (int round = 0; round < 2; ++round) {
        pool.run(12, make,
                 [&](uint64_t, int, WorkerContext* ctx) {
                     ASSERT_NE(ctx, nullptr);
                     EXPECT_GE(live.load(), 1);
                 });
        // Teardown happens before run() returns — never later: a
        // context may pin a whole model pair, and the next batch may
        // use a different factory.
        EXPECT_EQ(live.load(), 0) << "round " << round;
    }
    // Fresh contexts each round: 3 workers x 2 rounds.
    EXPECT_EQ(created.load(), 6);
}

TEST(ThreadPool, EachWorkerSeesOneStableContextPerRun)
{
    std::atomic<int> live{0};
    ThreadPool pool(4);
    std::vector<WorkerContext*> ctx_of(40, nullptr);
    pool.run(40,
             [&](int) { return std::make_unique<CountingContext>(&live); },
             [&](uint64_t i, int, WorkerContext* ctx) {
                 ctx_of[i] = ctx;
             });
    // Static sharding: item i belongs to worker i % 4, and every item
    // of a worker saw the same context object.
    for (uint64_t i = 0; i < 40; ++i) {
        ASSERT_NE(ctx_of[i], nullptr) << "item " << i;
        EXPECT_EQ(ctx_of[i], ctx_of[i % 4]) << "item " << i;
    }
    std::set<WorkerContext*> distinct(ctx_of.begin(), ctx_of.end());
    EXPECT_EQ(distinct.size(), 4u);
    EXPECT_EQ(live.load(), 0);
}

TEST(ThreadPool, SerialContextRunStaysInlineAndTearsDown)
{
    std::atomic<int> live{0};
    ThreadPool pool(1);
    std::thread::id caller = std::this_thread::get_id();
    bool inline_run = false;
    pool.run(5,
             [&](int) { return std::make_unique<CountingContext>(&live); },
             [&](uint64_t, int, WorkerContext* ctx) {
                 ASSERT_NE(ctx, nullptr);
                 inline_run = std::this_thread::get_id() == caller;
             });
    EXPECT_TRUE(inline_run);
    EXPECT_EQ(live.load(), 0);
}

TEST(ParallelForGroupsCtx, ContextsTornDownEvenWhenAnItemThrows)
{
    std::atomic<int> live{0};
    try {
        parallel_for_groups_ctx(
            16, 1, 4,
            [&](int) { return std::make_unique<CountingContext>(&live); },
            [&](uint64_t i, uint64_t, WorkerContext*) {
                if (i == 5)
                    throw std::runtime_error("item 5");
            });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "item 5");
    }
    EXPECT_EQ(live.load(), 0);
}

namespace {

/** Remembers which worker built it. */
struct WorkerIdContext final : WorkerContext
{
    explicit WorkerIdContext(int w) : worker(w) {}
    int worker;
};

} // namespace

TEST(ParallelForGroupsCtx, ContiguousGroupsShardedByGroupIndex)
{
    // The campaign shard shape: n=10 in groups of 4 on 3 workers is
    // (0,4) (4,4) (8,2), group g on worker g % 3, one context each.
    struct Call
    {
        uint64_t first, count;
        int worker;
    };
    std::mutex mu;
    std::vector<Call> calls;
    std::atomic<int> made{0};
    parallel_for_groups_ctx(
        10, 4, 3,
        [&](int w) {
            made++;
            return std::make_unique<WorkerIdContext>(w);
        },
        [&](uint64_t first, uint64_t count, WorkerContext* ctx) {
            std::lock_guard<std::mutex> lock(mu);
            calls.push_back(
                {first, count, static_cast<WorkerIdContext*>(ctx)->worker});
        });
    std::sort(calls.begin(), calls.end(),
              [](const Call& a, const Call& b) { return a.first < b.first; });
    ASSERT_EQ(calls.size(), 3u);
    const uint64_t want[3][2] = {{0, 4}, {4, 4}, {8, 2}};
    for (int g = 0; g < 3; ++g) {
        EXPECT_EQ(calls[(size_t)g].first, want[g][0]) << "group " << g;
        EXPECT_EQ(calls[(size_t)g].count, want[g][1]) << "group " << g;
        EXPECT_EQ(calls[(size_t)g].worker, g % 3) << "group " << g;
    }
    EXPECT_EQ(made.load(), 3);
}

