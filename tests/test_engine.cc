/** @file Per-GPU event-domain engine: serial-vs-parallel byte
 * identity over the full preset grid, the conservative lookahead
 * window, how a failing event surfaces, and sim_threads validation.
 *
 * The central contract: SimEngine::Serial and SimEngine::Parallel run
 * the same window loop, so the entire stat tree — every counter in
 * every component — must serialize to identical bytes at any thread
 * count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/domain_engine.hh"
#include "common/logging.hh"
#include "core/simulator.hh"
#include "core/system_preset.hh"
#include "harness/stats_json.hh"
#include "workloads/suite.hh"

// ThreadSanitizer slows a simulation ~10x; under it the preset grid
// keeps every preset but only two workloads at 2 and 4 workers (see
// the grid test).
#if defined(__SANITIZE_THREAD__)
#define CARVE_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CARVE_TSAN_BUILD 1
#endif
#endif
#ifndef CARVE_TSAN_BUILD
#define CARVE_TSAN_BUILD 0
#endif

namespace carve {
namespace {

/** Suite scale for the grid: small enough that 8 presets x 6
 * workloads x 4 engine configurations stay tier-1 sized. */
SuiteOptions
gridSuite()
{
    SuiteOptions suite;
    suite.memory_scale = 32;
    suite.duration = 0.02;
    return suite;
}

SimJob
gridJob(Preset preset, const std::string &workload)
{
    const SystemConfig base =
        SystemConfig{}.scaled(gridSuite().memory_scale);
    RunOptions opt;
    opt.max_cycles = 200'000'000;
    return makePresetJob(preset, base,
                         suiteWorkload(workload, gridSuite()), opt);
}

std::string
statBytes(const SimJob &job)
{
    return harness::statTreeToJson(run(job).stat_tree).dump();
}

/** Thread counts to exercise, clamped to this host (run() refuses
 * oversubscription) and deduplicated. */
std::vector<unsigned>
threadCounts()
{
    const unsigned hw = std::max(
        1u, std::thread::hardware_concurrency());
    std::set<unsigned> counts;
    for (unsigned n : {1u, 2u, 4u})
        counts.insert(std::min(n, hw));
    return {counts.begin(), counts.end()};
}

TEST(EngineIdentity, SerialVsParallelAcrossThePresetGrid)
{
    // Every preset (all coherence/replication/migration mechanisms)
    // crossed with six workloads spanning the suite's sharing
    // patterns: interleaved false sharing + atomics, read-only
    // lookups, halo exchange, broadcast weights, private streaming,
    // and graph-style skewed atomics. Under ThreadSanitizer every
    // preset runs on Lulesh (interleaved sharing, kernel-boundary
    // coherence) and SSSP (skewed atomics, remote traffic) at 2 and 4
    // workers only: that reaches every engine path — outbox exchange,
    // barriers, sharded counters — at a quarter of the cost, and a
    // one-worker loop has no race to find.
    const std::vector<Preset> presets = {
        Preset::SingleGpu,        Preset::NumaGpu,
        Preset::NumaGpuMigration, Preset::NumaGpuReplRO,
        Preset::CarveNoCoherence, Preset::CarveSwc,
        Preset::CarveHwc,         Preset::Ideal,
    };
    const std::vector<std::string> workloads = CARVE_TSAN_BUILD
        ? std::vector<std::string>{"Lulesh", "SSSP"}
        : std::vector<std::string>{"Lulesh", "MCB",    "CoMD",
                                   "AlexNet", "stream-triad", "SSSP"};
    std::vector<unsigned> threads = threadCounts();
    if (CARVE_TSAN_BUILD && threads.size() > 1)
        threads.erase(threads.begin());

    for (const Preset preset : presets) {
        for (const std::string &wl : workloads) {
            SimJob job = gridJob(preset, wl);
            job.options.engine = SimEngine::Serial;
            const std::string serial = statBytes(job);
            ASSERT_GT(serial.size(), 100u)
                << presetName(preset) << "/" << wl;

            job.options.engine = SimEngine::Parallel;
            for (const unsigned n : threads) {
                job.options.sim_threads = n;
                EXPECT_EQ(serial, statBytes(job))
                    << presetName(preset) << "/" << wl
                    << " diverged at sim_threads=" << n;
            }
        }
    }
}

TEST(EngineIdentity, MshrSaturatedWakeListsMatchAcrossThreads)
{
    // Tiny MSHR files keep all three wake-lists (L1, L2, RDC) hot:
    // every fill drains parked requests through the owning domain's
    // queue. Wake order must be a pure function of (tick, seq), so
    // the stat tree stays byte-identical at every thread count.
    SimJob job = gridJob(Preset::CarveHwc, "Lulesh");
    job.options.engine = SimEngine::Serial;
    const std::uint64_t unsaturated_events = run(job).events;

    job.config.l1.mshrs = 2;
    job.config.l2.mshrs = 4;
    job.config.rdc.mshr_entries = 4;
    job.preset_label = "carve-mshr-sat";
    const SimResult saturated = run(job);
    const std::string serial =
        harness::statTreeToJson(saturated.stat_tree).dump();
    ASSERT_GT(serial.size(), 100u);

    // A request that finds the file full parks once and is woken by
    // a fill, so saturation adds wake events but no polling: the
    // event count stays within 2x of the unsaturated run (1.21x
    // measured). Retry polling multiplies it by hundreds.
    std::printf("mshr-saturated events %llu, unsaturated %llu\n",
                static_cast<unsigned long long>(saturated.events),
                static_cast<unsigned long long>(unsaturated_events));
    EXPECT_LE(saturated.events, 2 * unsaturated_events)
        << "parked requests must wait for a fill, not poll";

    job.options.engine = SimEngine::Parallel;
    for (const unsigned n : threadCounts()) {
        job.options.sim_threads = n;
        EXPECT_EQ(serial, statBytes(job))
            << "wake-list run diverged at sim_threads=" << n;
    }
}

TEST(EngineIdentity, SpillJobWithUnifiedMemoryMatches)
{
    // CPU-resident pages route through the system domain; make sure
    // that path (not exercised by the presets above) is identical too.
    SimJob job = gridJob(Preset::CarveHwc, "Lulesh");
    job.config.numa.spill_fraction = 0.4;
    job.config.numa.um_migration_threshold = 8;
    job.preset_label = "carve-spill";

    job.options.engine = SimEngine::Serial;
    const std::string serial = statBytes(job);
    job.options.engine = SimEngine::Parallel;
    job.options.sim_threads = threadCounts().back();
    EXPECT_EQ(serial, statBytes(job));
}

// ---- telemetry ----------------------------------------------------

TEST(EngineTelemetry, TelemetryOffIsByteIdenticalToDefault)
{
    // The master switch off must be provably free: the stat tree of
    // a run with an explicit telemetry::Options{} equals one that
    // never mentions telemetry, byte for byte (same guarantee the
    // trace layer makes).
    SimJob plain = gridJob(Preset::CarveHwc, "Lulesh");
    const std::string baseline = statBytes(plain);

    SimJob off = gridJob(Preset::CarveHwc, "Lulesh");
    off.options.telemetry = telemetry::Options{};
    EXPECT_EQ(baseline, statBytes(off));
}

TEST(EngineTelemetry, TelemetryOnIsIdenticalAcrossEnginesAndThreads)
{
    // With host_timing off, every telemetry sample is a pure
    // function of the simulated schedule: histograms (bucket
    // contents and rendered percentiles) must serialize identically
    // for the serial engine and the parallel engine at every thread
    // count, across a preset spread covering the RDC, replication
    // and coherence paths.
    const std::vector<Preset> presets = {
        Preset::NumaGpu, Preset::NumaGpuReplRO, Preset::CarveHwc};
    for (const Preset preset : presets) {
        SimJob job = gridJob(preset, "Lulesh");
        job.options.telemetry.enabled = true;
        job.options.engine = SimEngine::Serial;
        const std::string serial = statBytes(job);
        ASSERT_GT(serial.size(), 100u) << presetName(preset);
        // Telemetry stats actually made it into the tree.
        EXPECT_NE(serial.find("park_duration"), std::string::npos);
        EXPECT_NE(serial.find("engine.windows"), std::string::npos);

        job.options.engine = SimEngine::Parallel;
        for (const unsigned n : threadCounts()) {
            job.options.sim_threads = n;
            EXPECT_EQ(serial, statBytes(job))
                << presetName(preset)
                << " telemetry diverged at sim_threads=" << n;
        }
    }
}

TEST(EngineTelemetry, HostTimingPopulatesBarrierWaitsDeterministicallyNamed)
{
    // host_timing adds samples to engine.barrier_wait_ns (values are
    // wall-clock, so only the name set and count semantics are
    // checkable): parallel runs must record one sample per worker
    // barrier crossing, serial runs keep the histogram registered but
    // empty, and the stat NAME set must not depend on engine,
    // threads, or host_timing — only on telemetry.enabled.
    SimJob job = gridJob(Preset::CarveHwc, "Lulesh");
    job.options.telemetry.enabled = true;
    job.options.telemetry.host_timing = true;

    job.options.engine = SimEngine::Serial;
    const SimResult serial = run(job);
    job.options.engine = SimEngine::Parallel;
    job.options.sim_threads = threadCounts().back();
    const SimResult parallel = run(job);

    const auto names = [](const SimResult &r) {
        std::set<std::string> out;
        for (const auto &st : r.stat_tree)
            out.insert(st.name);
        return out;
    };
    EXPECT_EQ(names(serial), names(parallel));

    const auto statValue = [](const SimResult &r,
                              const std::string &name) {
        for (const auto &st : r.stat_tree) {
            if (st.name == name)
                return st.u64;
        }
        return std::uint64_t{0};
    };
    // One worker runs the window loop inline and waits on no barrier.
    EXPECT_EQ(statValue(serial, "engine.barrier_wait_ns.count"), 0u);
    // The parallel engine crosses two barriers (start + done) per
    // window per worker; with more than one worker and any windows
    // run, the count must be nonzero.
    if (threadCounts().back() > 1 &&
        statValue(parallel, "engine.windows") > 0) {
        EXPECT_GT(statValue(parallel,
                            "engine.barrier_wait_ns.count"),
                  0u);
    }
}

// ---- lookahead window ---------------------------------------------

TEST(DomainEngine, LookaheadWindowTracksMinimumLinkLatency)
{
    SystemConfig cfg;
    cfg.link.latency = 120;
    const Cycle wide = DomainEngine::lookaheadWindow(cfg);
    cfg.link.latency = 10;
    const Cycle narrow = DomainEngine::lookaheadWindow(cfg);
    EXPECT_LT(narrow, wide);
    // The window must cover at least the one-cycle send offset plus
    // the wire latency: an event posted at the last tick of a window
    // can never land inside a window another domain is executing.
    EXPECT_GE(narrow, cfg.link.latency + 1);
    cfg.link.latency = 0;
    EXPECT_GE(DomainEngine::lookaheadWindow(cfg), 1u);
}

// ---- failing events ---------------------------------------------------

/** Worker counts 1/2/4, minus those above this host's hardware
 * threads (reported as skipped). */
std::vector<unsigned>
failureWorkerCounts()
{
    const unsigned hw = std::thread::hardware_concurrency();
    std::vector<unsigned> counts;
    for (unsigned n : {1u, 2u, 4u}) {
        if (hw != 0 && n > hw) {
            std::printf("[  SKIPPED ] %u workers: host has %u hardware "
                        "threads\n", n, hw);
            continue;
        }
        counts.push_back(n);
    }
    return counts;
}

/** Run a two-GPU engine (three domains) on @p workers workers with a
 * fatal() posted into domain 1. */
void
runExplodingEngine(unsigned workers)
{
    DomainEngine engine(2, 10, SimEngine::Parallel, workers);
    engine.post(1, 5, [] { fatal("domain-one exploded"); });
    engine.run(DomainEngine::Hooks{});
}

TEST(DomainEngine, WorkerFailureKeepsItsMessageAndLevel)
{
    for (const unsigned workers : failureWorkerCounts()) {
        SCOPED_TRACE(::testing::Message() << workers << " workers");
        ScopedErrorCapture capture;
        try {
            runExplodingEngine(workers);
            ADD_FAILURE() << "run() returned after a fatal event";
        } catch (const SimAbortError &e) {
            EXPECT_EQ(e.level(), LogLevel::Fatal);
            EXPECT_STREQ(e.what(), "domain-one exploded");
        }
    }
}

TEST(DomainEngineDeathTest, WorkerFailureWithoutCaptureKeepsItsMessage)
{
    for (const unsigned workers : failureWorkerCounts()) {
        SCOPED_TRACE(::testing::Message() << workers << " workers");
        EXPECT_EXIT(runExplodingEngine(workers),
                    ::testing::ExitedWithCode(1),
                    "fatal: domain-one exploded");
    }
}

TEST(DomainEngine, FailedRunLeavesTheThreadOutsideAnyDomain)
{
    for (const unsigned workers : failureWorkerCounts()) {
        SCOPED_TRACE(::testing::Message() << workers << " workers");
        {
            ScopedErrorCapture capture;
            EXPECT_THROW(runExplodingEngine(workers), SimAbortError);
        }
        EXPECT_EQ(engine_ctx::current_shard, engine_ctx::barrier_shard);

        // A fresh engine on this thread: its pre-run post is
        // scheduled directly, not buffered as if domain 1 sent it.
        DomainEngine fresh(2, 10, SimEngine::Parallel, workers);
        bool fired = false;
        fresh.post(0, 3, [&fired] { fired = true; });
        ScopedErrorCapture capture;
        EXPECT_NO_THROW(fresh.run(DomainEngine::Hooks{}));
        EXPECT_TRUE(fired);
    }
}

// ---- sim_threads validation ---------------------------------------

TEST(EngineDeathTest, ZeroSimThreadsIsACleanConfigError)
{
    SimJob job = gridJob(Preset::NumaGpu, "Lulesh");
    job.options.engine = SimEngine::Parallel;
    job.options.sim_threads = 0;
    EXPECT_EXIT(run(job), ::testing::ExitedWithCode(1),
                "sim_threads must be >= 1");
}

TEST(EngineDeathTest, OversubscribedSimThreadsIsACleanConfigError)
{
    if (std::thread::hardware_concurrency() == 0)
        GTEST_SKIP() << "hardware_concurrency unknown on this host";
    SimJob job = gridJob(Preset::NumaGpu, "Lulesh");
    job.options.engine = SimEngine::Parallel;
    job.options.sim_threads = 100000;
    EXPECT_EXIT(run(job), ::testing::ExitedWithCode(1),
                "exceeds this host's");
}

TEST(Config, EngineOverridesRoundTrip)
{
    SystemConfig cfg;
    cfg.applyOverride("engine", "parallel");
    cfg.applyOverride("sim_threads", "4");
    EXPECT_EQ(cfg.engine, SimEngine::Parallel);
    EXPECT_EQ(cfg.sim_threads, 4u);

    bool saw_engine = false, saw_threads = false;
    for (const ConfigOverride &o : cfg.toOverrides()) {
        if (o.key == "engine") {
            saw_engine = true;
            EXPECT_EQ(o.value, "parallel");
        }
        if (o.key == "sim_threads") {
            saw_threads = true;
            EXPECT_EQ(o.value, "4");
        }
    }
    EXPECT_TRUE(saw_engine);
    EXPECT_TRUE(saw_threads);
}

} // namespace
} // namespace carve
