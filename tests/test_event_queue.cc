/** @file Unit tests for the discrete-event engine. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <utility>
#include <vector>

#include "common/event_queue.hh"

namespace carve {
namespace {

TEST(EventQueue, StartsAtTimeZeroEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, EqualTickEventsFireInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterIsRelativeToNow)
{
    EventQueue eq;
    Cycle seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(50, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10)
            eq.scheduleAfter(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.now(), 9u);
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    EventQueue eq;
    for (Cycle t = 0; t < 10; ++t)
        eq.schedule(t, [] {});
    EXPECT_EQ(eq.run(4), 4u);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, RunWhilePredicateStopsExecution)
{
    EventQueue eq;
    int fired = 0;
    for (Cycle t = 0; t < 10; ++t)
        eq.schedule(t, [&] { ++fired; });
    eq.runWhile([&] { return fired < 3; });
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ExecutedCountsLifetimeEvents)
{
    EventQueue eq;
    for (Cycle t = 0; t < 5; ++t)
        eq.schedule(t, [] {});
    eq.run();
    for (Cycle t = 0; t < 3; ++t)
        eq.schedule(eq.now() + t, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 8u);
}

TEST(EventQueueDeathTest, SchedulingInThePastIsFatal)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    // The diagnostic must name the offending tick and current time.
    EXPECT_DEATH(eq.schedule(50, [] {}), "when=50 now=100");
}

TEST(EventQueueDeathTest, PastScheduleFatalOnHeapEngineToo)
{
    EventQueue eq(EventEngine::Heap);
    eq.schedule(7, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(3, [] {}), "when=3 now=7");
}

TEST(EventQueue, SchedulingAtNowIsAllowed)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(10, [&] {
        eq.schedule(eq.now(), [&] { fired = true; });
    });
    eq.run();
    EXPECT_TRUE(fired);
}

// ---- calendar-specific behaviour ----------------------------------

TEST(EventQueue, FarHorizonEventsExecuteInOrder)
{
    // Events far beyond the near-horizon ring live in the overflow
    // heap and must migrate into the ring, preserving (tick, seq)
    // order against ring-resident events.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1'000'000, [&] { order.push_back(4); });
    eq.schedule(50'000, [&] { order.push_back(3); });
    eq.schedule(5'000, [&] { order.push_back(2); });
    eq.schedule(3, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 1'000'000u);
}

TEST(EventQueue, FarAndNearEventsAtSameTickKeepSeqOrder)
{
    // First event lands in the far heap (beyond the horizon at
    // schedule time); events scheduled later for the same tick from
    // inside the window must still fire *after* it.
    EventQueue eq;
    std::vector<int> order;
    const Cycle t = 5'000;
    eq.schedule(t, [&] { order.push_back(1) ; });
    eq.schedule(t - 10, [&] {
        eq.schedule(t, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EnginesProduceIdenticalExecutionOrder)
{
    // Drive an identical pseudo-random schedule through both engines
    // and require the exact same (tick, id) execution sequence —
    // the determinism contract behind the CARVE_EVENTQ switch.
    using Trace = std::vector<std::pair<Cycle, int>>;
    const auto drive = [](EventEngine engine) {
        EventQueue eq(engine);
        Trace trace;
        std::uint64_t rng = 12345;
        int id = 0;
        const std::function<void()> spawn = [&] {
            trace.emplace_back(eq.now(), id++);
            for (int k = 0; k < 2 && trace.size() < 500; ++k) {
                rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
                eq.scheduleAfter(1 + ((rng >> 33) % 2048), spawn);
            }
        };
        eq.schedule(0, spawn);
        eq.runWhile([&] { return trace.size() < 500; });
        return trace;
    };
    EXPECT_EQ(drive(EventEngine::Calendar),
              drive(EventEngine::Heap));
}

TEST(EventQueue, EngineSelectableByConstructorAndEnv)
{
    EXPECT_EQ(EventQueue(EventEngine::Heap).engine(),
              EventEngine::Heap);
    EXPECT_EQ(EventQueue(EventEngine::Calendar).engine(),
              EventEngine::Calendar);

    setenv("CARVE_EVENTQ", "heap", 1);
    EXPECT_EQ(EventQueue().engine(), EventEngine::Heap);
    setenv("CARVE_EVENTQ", "calendar", 1);
    EXPECT_EQ(EventQueue().engine(), EventEngine::Calendar);
    unsetenv("CARVE_EVENTQ");
    EXPECT_EQ(EventQueue().engine(), EventEngine::Calendar);
}

TEST(EventQueueDeathTest, BadEngineEnvValueIsFatal)
{
    setenv("CARVE_EVENTQ", "bogus", 1);
    EXPECT_DEATH((void)EventQueue(), "CARVE_EVENTQ");
    unsetenv("CARVE_EVENTQ");
}

// ---- EventFn / bindEvent ------------------------------------------

TEST(EventFn, InvokesInlineCallable)
{
    int hits = 0;
    EventFn fn([&hits] { ++hits; });
    ASSERT_TRUE(fn);
    fn();
    EXPECT_EQ(hits, 1);
}

TEST(EventFn, MoveTransfersOwnership)
{
    int hits = 0;
    EventFn a([&hits] { ++hits; });
    EventFn b(std::move(a));
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(hits, 1);
}

TEST(EventFn, OversizedCallableTakesBoxedPath)
{
    // Captures beyond the inline buffer must still work (the miss
    // path continuation in the RDC controller relies on this).
    struct Big
    {
        std::uint64_t pad[16];
    };
    Big big{};
    big.pad[15] = 42;
    std::uint64_t seen = 0;
    EventFn fn([big, &seen] { seen = big.pad[15]; });
    fn();
    EXPECT_EQ(seen, 42u);
}

namespace bind_test {

struct Counter
{
    int calls = 0;
    int last = 0;

    void
    bump(int amount)
    {
        ++calls;
        last = amount;
    }

    void
    wide(std::uint64_t a, std::uint64_t b, std::uint64_t c)
    {
        ++calls;
        last = static_cast<int>(a + b + c);
    }
};

} // namespace bind_test

TEST(EventFn, BindEventPassesBoundArguments)
{
    bind_test::Counter c;
    EventQueue eq;
    eq.schedule(5, bindEvent<&bind_test::Counter::bump>(&c, 17));
    eq.schedule(9, bindEvent<&bind_test::Counter::bump>(&c, 23));
    eq.run();
    EXPECT_EQ(c.calls, 2);
    EXPECT_EQ(c.last, 23);
}

TEST(EventFn, BindEventFitsThisPlusThreeWords)
{
    // The widest hot-path shape: a this-pointer plus 24 bytes of
    // bound arguments exactly fills EventFn's inline storage.
    static_assert(sizeof(detail::BoundEvent<
                      &bind_test::Counter::wide, bind_test::Counter,
                      std::uint64_t, std::uint64_t, std::uint64_t>) ==
                  EventFn::inline_size);
    bind_test::Counter c;
    EventQueue eq;
    eq.schedule(1, bindEvent<&bind_test::Counter::wide>(
                       &c, std::uint64_t{1}, std::uint64_t{2},
                       std::uint64_t{4}));
    eq.run();
    EXPECT_EQ(c.calls, 1);
    EXPECT_EQ(c.last, 7);
}

} // namespace
} // namespace carve
