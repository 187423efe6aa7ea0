/** @file Unit tests for the discrete-event engine. */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
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

// ---- randomized oracle --------------------------------------------

/**
 * One seeded random schedule, checked against what the test itself
 * recorded. Event i is the i-th schedule() call, so its queue
 * sequence number is i; the test keeps every event's tick and counts
 * its firings. Delays cover same-tick cascades, both sides of the
 * near-horizon edge, far ticks around 10^6 and short hops.
 */
struct OracleRun
{
    static constexpr Cycle horizon = EventQueue::horizon;
    static constexpr std::size_t max_events = 4000;

    explicit OracleRun(std::uint64_t seed) : rng(seed) {}

    Cycle
    delay()
    {
        switch (rng() % 8) {
          case 0:
          case 1:
            return 0;
          case 2:
            return horizon - 1;
          case 3:
            return horizon;
          case 4:
            return horizon + 1;
          case 5:
            return 1'000'000 + rng() % 4;
          default:
            return 1 + rng() % 64;
        }
    }

    void
    add(Cycle when)
    {
        const std::size_t seq = ticks.size();
        ticks.push_back(when);
        fires.push_back(0);
        eq.schedule(when, [this, seq] { fire(seq); });
    }

    void
    fire(std::size_t seq)
    {
        ++fires[seq];
        if (eq.now() != ticks[seq])
            ++wrong_now;
        if (ticks[seq] >= window_end)
            ++past_window_end;
        // Strictly increasing (when, seq) over the whole run.
        if (fired_any && (ticks[seq] < last_when ||
                          (ticks[seq] == last_when && seq <= last_seq)))
            ++out_of_order;
        fired_any = true;
        last_when = ticks[seq];
        last_seq = seq;
        for (std::uint64_t k = rng() % 3; k > 0; --k)
            if (ticks.size() < max_events)
                add(eq.now() + delay());
    }

    EventQueue eq;
    std::mt19937_64 rng;
    std::vector<Cycle> ticks;  ///< by seq: the tick it was scheduled at
    std::vector<int> fires;    ///< by seq: how often it fired
    bool fired_any = false;
    Cycle last_when = 0;
    std::size_t last_seq = 0;
    Cycle window_end = 0;  ///< end of the runWindow in progress
    std::uint64_t out_of_order = 0;
    std::uint64_t wrong_now = 0;
    std::uint64_t past_window_end = 0;
};

TEST(EventQueue, RandomSchedulesFireInOrderExactlyOnce)
{
    for (const std::uint64_t seed : {1u, 7u, 42u, 1001u, 65537u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        OracleRun r(seed);
        for (int i = 0; i < 64; ++i)
            r.add(r.delay());
        r.add(1'000'000);

        // Drain through runWindow, as the domain engine does: empty
        // windows, one-tick windows and wide ones, with a barrier-time
        // injection at or past each window end.
        std::uint64_t windows = 0;
        while (!r.eq.empty()) {
            const Cycle next = r.eq.nextTick();
            const Cycle end =
                next + (r.rng() % 4 == 0 ? 0 : r.rng() % (2 * r.horizon));
            r.window_end = end;
            r.eq.runWindow(end);
            ++windows;
            ASSERT_GE(r.eq.nextTick(), end) << "window left work behind";
            if (r.ticks.size() < r.max_events && r.rng() % 2)
                r.add(end + r.delay());
        }

        EXPECT_EQ(r.ticks.size(), r.max_events);
        EXPECT_GT(windows, 100u);
        EXPECT_EQ(r.out_of_order, 0u);
        EXPECT_EQ(r.wrong_now, 0u);
        EXPECT_EQ(r.past_window_end, 0u);
        std::size_t not_once = 0;
        for (const int f : r.fires)
            not_once += f != 1;
        EXPECT_EQ(not_once, 0u) << "events not fired exactly once";
        EXPECT_EQ(r.eq.executed(), r.ticks.size());
    }
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
