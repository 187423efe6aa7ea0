#include "common/domain_engine.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hh"

namespace carve {

namespace engine_ctx {

thread_local unsigned current_shard = barrier_shard;

} // namespace engine_ctx

namespace {

/** Events between wall-clock checks. */
constexpr std::uint64_t clock_check_interval = 8192;

#if defined(__x86_64__) || defined(__i386__)
inline void cpuRelax() { __builtin_ia32_pause(); }
#elif defined(__aarch64__)
inline void cpuRelax() { asm volatile("yield" ::: "memory"); }
#else
inline void cpuRelax() {}
#endif

} // namespace

void
DomainEngine::SpinBarrier::arriveAndWait()
{
    const std::uint32_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        parties_) {
        arrived_.store(0, std::memory_order_relaxed);
        phase_.store(phase + 1, std::memory_order_release);
        return;
    }
    unsigned spins = 0;
    while (phase_.load(std::memory_order_acquire) == phase) {
        if (++spins < 1024)
            cpuRelax();
        else
            std::this_thread::yield();
    }
}

DomainEngine::DomainEngine(unsigned num_gpus, Cycle lookahead,
                           SimEngine mode, unsigned threads)
    : lookahead_(lookahead), mode_(mode),
      threads_(std::max(1u, threads))
{
    if (lookahead_ == 0)
        fatal("DomainEngine: lookahead window must be >= 1 cycle");
    const unsigned domains = num_gpus + 1;  // + system/CPU domain
    if (domains > engine_ctx::barrier_shard) {
        fatal("DomainEngine: %u domains exceed the %u shard slots",
              domains, engine_ctx::barrier_shard);
    }
    queues_.reserve(domains);
    for (unsigned d = 0; d < domains; ++d)
        queues_.push_back(std::make_unique<EventQueue>());
    outboxes_ = std::vector<Outbox>(domains);
}

void
DomainEngine::post(unsigned dst, Cycle when, EventFn fn)
{
    carve_assert(dst < queues_.size());
    if (!fn)
        return;
    const unsigned src = engine_ctx::current_shard;
    if (in_barrier_ || src >= queues_.size()) {
        // Single-threaded context (barrier phase, or an engine-less
        // caller): deliver directly; barrier-phase posts land at or
        // past the next window start by construction.
        queues_[dst]->schedule(when, std::move(fn));
        return;
    }
    Outbox &ob = outboxes_[src];
    ob.msgs.push_back(Msg{when, ob.next_seq++,
                          static_cast<std::uint32_t>(src),
                          static_cast<std::uint32_t>(dst),
                          std::move(fn)});
}

void
DomainEngine::atNextBarrier(std::function<void()> fn)
{
    // Only the system domain (kernel sequencing) and barrier-phase
    // code register actions, so the vector needs no locking.
    carve_assert(engine_ctx::current_shard == systemDomain() ||
                 engine_ctx::current_shard >= queues_.size());
    barrier_actions_.push_back(std::move(fn));
}

std::uint64_t
DomainEngine::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->executed();
    return n;
}

bool
DomainEngine::quiescent() const
{
    for (const auto &q : queues_)
        if (!q->empty())
            return false;
    for (const Outbox &ob : outboxes_)
        if (!ob.msgs.empty())
            return false;
    return barrier_actions_.empty();
}

void
DomainEngine::runAssigned(unsigned worker, unsigned num_workers,
                          Cycle wend,
                          const std::function<bool()> *per_event)
{
    // Leave the thread outside any domain on every exit, a throwing
    // event included: a stale shard would divert the next engine's
    // pre-run posts into an outbox.
    struct LeaveDomain
    {
        ~LeaveDomain()
        {
            engine_ctx::current_shard = engine_ctx::barrier_shard;
        }
    } leave;
    for (unsigned d = worker; d < queues_.size(); d += num_workers) {
        engine_ctx::current_shard = d;
        queues_[d]->runWindow(wend, per_event);
    }
}

void
DomainEngine::windowBarrier(Cycle wend, const Hooks &hooks)
{
    in_barrier_ = true;

    // Self-profiling: sample per-domain occupancy and the outbox
    // depths before the exchange clears them. Everything here is a
    // pure function of the simulated schedule (the same windows and
    // outbox contents arise at any thread count), so these histograms
    // are engine- and thread-count invariant.
    if (profile_) {
        ++profile_->windows;
        if (prev_executed_.size() != queues_.size())
            prev_executed_.assign(queues_.size(), 0);
        std::uint64_t total_msgs = 0;
        for (const Outbox &ob : outboxes_) {
            profile_->outbox_depth.sample(ob.msgs.size());
            total_msgs += ob.msgs.size();
        }
        profile_->exchange_msgs.sample(total_msgs);
        for (std::size_t d = 0; d < queues_.size(); ++d) {
            const std::uint64_t ex = queues_[d]->executed();
            profile_->window_occupancy.sample(ex - prev_executed_[d]);
            prev_executed_[d] = ex;
        }
    }

    // Cross-domain exchange: merge every outbox and inject in
    // (tick, source-domain, sequence) order. Each destination queue
    // assigns its own sequence numbers in this deterministic order,
    // so intra-tick ordering downstream is thread-count independent.
    exchange_scratch_.clear();
    for (Outbox &ob : outboxes_) {
        for (Msg &m : ob.msgs)
            exchange_scratch_.push_back(std::move(m));
        ob.msgs.clear();
        ob.next_seq = 0;
    }
    std::sort(exchange_scratch_.begin(), exchange_scratch_.end(),
              [](const Msg &a, const Msg &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });
    for (Msg &m : exchange_scratch_) {
        // The conservative contract: nothing may land inside the
        // window that just executed.
        carve_assert(m.when >= wend);
        queues_[m.dst]->schedule(m.when, std::move(m.fn));
    }
    exchange_scratch_.clear();

    barrier_tick_ = wend;
    if (hooks.on_barrier)
        hooks.on_barrier(wend);

    // Barrier actions (kernel boundaries) may schedule events but not
    // register further actions for this same barrier.
    std::vector<std::function<void()>> actions;
    actions.swap(barrier_actions_);
    for (auto &fn : actions)
        fn();
}

void
DomainEngine::run(const Hooks &hooks)
{
    stop_requested_.store(false, std::memory_order_relaxed);
    const unsigned num_workers =
        mode_ == SimEngine::Parallel ? std::min(threads_, numDomains())
                                     : 1u;
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::duration<double>(hooks.max_wall_seconds);

    SpinBarrier start(num_workers);
    SpinBarrier done(num_workers);
    std::atomic<bool> shutdown{false};
    Cycle window_end = 0;
    std::vector<std::exception_ptr> errors(num_workers);

    // Barrier-wait telemetry: each worker times its own waits into a
    // private padded shard; the shards are merged into the profile in
    // worker-id order only after the workers have been joined, so no
    // shard is ever read while its owner might still write it.
    const bool time_waits =
        num_workers > 1 && profile_ && profile_->host_timing;
    struct alignas(64) WaitShard
    {
        telemetry::Histogram h;
    };
    std::vector<WaitShard> waits(time_waits ? num_workers : 0);
    // A lone worker runs the loop inline and waits on no barrier.
    const auto sync = [&](SpinBarrier &b, unsigned id) {
        if (num_workers == 1)
            return;
        if (!time_waits) {
            b.arriveAndWait();
            return;
        }
        const auto t0 = std::chrono::steady_clock::now();
        b.arriveAndWait();
        waits[id].h.sample(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    };

    // Wall-clock budget check, one per worker so its amortization
    // counter is private; empty when there is no budget.
    const auto wallCheck = [&]() -> std::function<bool()> {
        if (hooks.max_wall_seconds <= 0.0)
            return {};
        return [&, until_check = clock_check_interval]() mutable {
            if (--until_check > 0)
                return true;
            until_check = clock_check_interval;
            if (std::chrono::steady_clock::now() < deadline)
                return true;
            requestStop();
            return false;
        };
    };

    // One worker's share of a window. A failure, fatal()/panic()
    // included, is parked in errors[id] and surfaced from this thread
    // once every worker has been joined.
    const auto workerWindow = [&](unsigned id,
                                  const std::function<bool()> &wall) {
        try {
            ScopedErrorCapture capture;
            runAssigned(id, num_workers, window_end,
                        wall ? &wall : nullptr);
        } catch (...) {
            errors[id] = std::current_exception();
            requestStop();
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(num_workers - 1);
    for (unsigned id = 1; id < num_workers; ++id) {
        workers.emplace_back([&, id] {
            const std::function<bool()> wall = wallCheck();
            for (;;) {
                sync(start, id);
                if (shutdown.load(std::memory_order_acquire))
                    return;
                workerWindow(id, wall);
                sync(done, id);
            }
        });
    }

    const auto stopWorkers = [&] {
        if (workers.empty())
            return;
        shutdown.store(true, std::memory_order_release);
        start.arriveAndWait();
        for (std::thread &t : workers)
            t.join();
        workers.clear();
    };
    const auto failed = [&] {
        return std::any_of(errors.begin(), errors.end(),
                           [](const std::exception_ptr &e) {
                               return e != nullptr;
                           });
    };

    const std::function<bool()> wall = wallCheck();
    try {
        for (;;) {
            window_end = barrier_tick_ + lookahead_;
            in_barrier_ = false;
            sync(start, 0);
            workerWindow(0, wall);
            sync(done, 0);
            if (failed())
                break;
            windowBarrier(window_end, hooks);
            if (stopRequested())
                break;
            if (hooks.keep_going && !hooks.keep_going(barrier_tick_))
                break;
            if (quiescent())
                break;
        }
    } catch (...) {
        stopWorkers();
        throw;
    }
    stopWorkers();
    in_barrier_ = false;

    if (time_waits)
        for (const WaitShard &w : waits)
            profile_->barrier_wait_ns.merge(w.h);

    // Surface the first failure (lowest worker id) with its own
    // message and level: rethrow under the caller's active
    // ScopedErrorCapture, re-issue as fatal()/panic() otherwise (the
    // window's capture diverted the message).
    for (const std::exception_ptr &e : errors) {
        if (!e)
            continue;
        try {
            std::rethrow_exception(e);
        } catch (const SimAbortError &abort) {
            if (errorCaptureActive())
                throw;
            if (abort.level() == LogLevel::Fatal)
                fatal("%s", abort.what());
            panic("%s", abort.what());
        }
    }
}

} // namespace carve
