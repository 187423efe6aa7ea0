/**
 * @file
 * Discrete-event simulation engine.
 *
 * Every timed component in carve-sim (DRAM channels, links, SMs, the
 * RDC controller) schedules callbacks on a shared EventQueue. Events at
 * equal ticks fire in scheduling order (a monotonic sequence number
 * breaks ties) so simulations are fully deterministic.
 *
 * The engine is built for throughput:
 *
 *  - EventFn is an allocation-free callback type: any callable up to
 *    EventFn::inline_size bytes is stored inline (no heap, unlike
 *    std::function); larger callables fall back to the heap but never
 *    occur on hot paths.
 *  - Event nodes come from a chunked free list, so steady-state
 *    scheduling performs no allocation at all.
 *  - The queue is a two-level calendar queue: a near-horizon ring of
 *    per-cycle buckets gives O(1) schedule/fire for the dense
 *    short-delay traffic the simulator generates, and a far-horizon
 *    binary heap absorbs the rare long-delay events (kernel launches,
 *    watchdogs). Events migrate heap -> ring as simulated time
 *    advances, preserving exact (tick, seq) order.
 */

#ifndef CARVE_COMMON_EVENT_QUEUE_HH
#define CARVE_COMMON_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace carve {

/**
 * Move-only callable with small-buffer optimization, tailored to the
 * event queue's hot path: callables up to inline_size bytes (a
 * this-pointer plus several words of bound arguments, or a moved-in
 * std::function) are stored inline with no heap allocation.
 */
class EventFn
{
  public:
    /** Inline storage: fits every hot-path closure in the simulator
     * (a Completion, a moved-in std::function, or a bindEvent closure
     * of a this-pointer plus a few words), sized so a pooled EventNode
     * is exactly one 64-byte cache line. */
    static constexpr std::size_t inline_size = 32;

    EventFn() noexcept = default;
    EventFn(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventFn(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= inline_size &&
                      alignof(Fn) <= alignof(void *) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inline_ops<Fn>;
        } else {
            // Cold fallback for oversized captures: box on the heap.
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(f)));
            ops_ = &boxed_ops<Fn>;
        }
    }

    EventFn(EventFn &&other) noexcept : ops_(other.ops_)
    {
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_) {
                ops_->relocate(buf_, other.buf_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** Destroy the held callable (if any); leaves *this empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct into @p dst from @p src, destroying src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr Ops inline_ops = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *dst, void *src) {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops boxed_ops = {
        [](void *p) { (**static_cast<Fn **>(p))(); },
        [](void *dst, void *src) {
            ::new (dst) Fn *(*static_cast<Fn **>(src));
        },
        [](void *p) { delete *static_cast<Fn **>(p); },
    };

    alignas(void *) unsigned char buf_[inline_size];
    const Ops *ops_ = nullptr;
};

namespace detail {

/** Callable binding a member function to an object plus fixed
 * arguments; trivially movable, so scheduling one is a small memcpy. */
template <auto MemFn, typename T, typename... Bound>
struct BoundEvent
{
    T *obj;
    std::tuple<Bound...> args;

    void
    operator()()
    {
        std::apply([this](auto &...a) { (obj->*MemFn)(a...); }, args);
    }
};

} // namespace detail

/**
 * Pre-bind a member function call as an event callback:
 *
 *     eq.schedule(when, bindEvent<&Sm::issueWarp>(this, slot));
 *
 * Unlike a capturing lambda this names the handler at the call site,
 * and the resulting callable is a POD-like struct (object pointer +
 * bound arguments) that always fits EventFn's inline storage.
 */
template <auto MemFn, typename T, typename... Bound>
EventFn
bindEvent(T *obj, Bound... bound)
{
    static_assert(sizeof(detail::BoundEvent<MemFn, T, Bound...>) <=
                      EventFn::inline_size,
                  "bound event exceeds EventFn inline storage");
    return EventFn(detail::BoundEvent<MemFn, T, Bound...>{
        obj, std::tuple<Bound...>(bound...)});
}

/**
 * The event queue, keyed by (tick, sequence). schedule()/fire are
 * allocation-free in steady state; see file comment for the queue
 * design.
 */
class EventQueue
{
  public:
    /** Compatibility alias: component interfaces still traffic in
     * std::function callbacks; EventFn absorbs them on schedule. */
    using Callback = std::function<void()>;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time in cycles. */
    Cycle now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     * Scheduling in the past is fatal().
     */
    void schedule(Cycle when, EventFn fn);

    /** Schedule @p fn @p delay cycles from now. */
    void
    scheduleAfter(Cycle delay, EventFn fn)
    {
        schedule(now_ + delay, std::move(fn));
    }

    /** Number of pending events. */
    std::size_t
    pending() const
    {
        return ring_count_ + far_.size();
    }

    /** True when no events remain. */
    bool empty() const { return pending() == 0; }

    /**
     * Run events until the queue drains or @p limit events have fired.
     * @return number of events executed.
     */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX);

    /**
     * Run events while @p keep_going returns true (checked before each
     * event). @return number of events executed.
     */
    std::uint64_t runWhile(const std::function<bool()> &keep_going);

    /** Execute exactly one event if available. @return true if fired. */
    bool step();

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /** Near-window width in cycles (power of two). Events at or past
     * now() + horizon go to the far heap; in practice component
     * delays are tens of cycles, so >99% of traffic stays in the
     * ring. */
    static constexpr std::size_t horizon = 1024;

    /** nextTick() result when no events are pending. */
    static constexpr Cycle no_event = ~Cycle{0};

    /** Tick of the earliest pending event (no_event when empty). */
    Cycle nextTick() const;

    /**
     * Fire every event with tick < @p end in (tick, seq) order; used
     * by the domain engine to execute one lookahead window. now() is
     * left at the last fired tick — never advanced to @p end. When
     * @p per_event is non-null it runs after each event; returning
     * false stops the window early.
     * @return number of events executed.
     */
    std::uint64_t runWindow(Cycle end,
                            const std::function<bool()> *per_event =
                                nullptr);

  private:
    /** One pending event. Nodes are pooled and recycled through a
     * free list; fn is the only non-POD member. Sized to one cache
     * line: in MSHR-saturated phases the pending-event working set is
     * thousands of nodes, and halving the node footprint keeps the
     * schedule/fire loop in L2. */
    struct EventNode
    {
        Cycle when = 0;
        std::uint64_t seq = 0;
        EventNode *next = nullptr;
        EventFn fn;
    };
    static_assert(sizeof(EventNode) == 64,
                  "EventNode must stay a single cache line");

    /** Far-horizon order: min-heap by (when, seq). */
    struct FarLater
    {
        bool
        operator()(const EventNode *a, const EventNode *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    /** FIFO of events for one tick of the near window. */
    struct Bucket
    {
        EventNode *head = nullptr;
        EventNode *tail = nullptr;
    };

    static constexpr std::size_t occ_words = horizon / 64;

    EventNode *allocNode();
    void freeNode(EventNode *n);
    void pushRing(EventNode *n);
    /** Advance time to @p t and pull far events entering the window. */
    void advanceTo(Cycle t);
    /** Detach the next event in (when, seq) order (queue non-empty). */
    EventNode *popNext();
    /** Cold path of popNext: bit-scan for the next occupied bucket
     * when the current tick's bucket is empty. */
    EventNode *popScan(std::size_t start);
    void fireNext();

    Cycle now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;

    // Near-horizon ring: bucket (t % horizon) holds exactly the
    // pending events at tick t for t in [now_, now_ + horizon), in
    // scheduling order. occ_ tracks non-empty buckets so the scan for
    // the next event tick is a handful of word operations.
    std::vector<Bucket> ring_;
    std::uint64_t occ_[occ_words] = {};
    std::size_t ring_count_ = 0;
    Cycle window_end_ = horizon;

    // Far horizon: events at or past window_end_.
    std::priority_queue<EventNode *, std::vector<EventNode *>,
                        FarLater>
        far_;

    // Node pool: chunk-allocated, recycled through free_.
    std::vector<std::unique_ptr<EventNode[]>> pools_;
    EventNode *free_ = nullptr;
};

} // namespace carve

#endif // CARVE_COMMON_EVENT_QUEUE_HH
