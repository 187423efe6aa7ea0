/**
 * @file
 * Parallel sweep executor: runs a vector of independent RunSpecs on a
 * fixed-size thread pool with per-run failure isolation.
 *
 * Guarantees:
 *  - results[i] always corresponds to specs[i] (deterministic
 *    ordering independent of thread count or scheduling), so a sweep
 *    serialises byte-identically whether run on 1 or N threads;
 *  - a run that panic()s, fatal()s, throws, or trips its watchdog is
 *    reported as Failed/Watchdog in its own RunResult while sibling
 *    runs complete normally;
 *  - each simulation is a self-contained MultiGpuSystem instance —
 *    nothing in src/common (logging aside, which is thread-safe) is
 *    shared mutable state across runs.
 *
 * Dedup: each distinct spec is simulated once per sweep. Specs are
 * keyed by specKey() (spec_key.hh), whose preimage holds every field
 * that can change the result bytes or side effects — preset, full
 * workload, full SystemConfig dump, seed, watchdogs, profile_lines,
 * audit, host_stats, telemetry and trace options, and the engine and
 * sim_threads overrides — so specs differing in one link-bandwidth
 * override never merge. A duplicate receives the first occurrence's
 * RunResult verbatim, wall_seconds and host stats included (so
 * warp-insts per wall second still measures simulation speed), in
 * its own spec slot. Identical specs always yield byte-identical
 * stat trees, so there is no opt-out. on_progress still fires once
 * per spec; SweepTelemetry counts simulations that actually ran.
 */

#ifndef CARVE_HARNESS_SWEEP_HH
#define CARVE_HARNESS_SWEEP_HH

#include <functional>
#include <vector>

#include "harness/run_spec.hh"
#include "telemetry/histogram.hh"

namespace carve {
namespace harness {

/**
 * Harness-side telemetry captured by runSweep: per-worker load (the
 * ThreadPool WorkerState fields) and the per-job wall-time
 * distribution. Workers and wall times are host facts, so this rides
 * results files only under host_stats (CI byte-compare workflows
 * exclude it exactly like sim.wall_seconds).
 */
struct SweepTelemetry
{
    struct Worker
    {
        std::uint64_t jobs_run = 0;  ///< simulations run by this worker
        int numa_node = -1;          ///< host node bound to, or -1
    };
    std::vector<Worker> workers;
    /** Wall time per simulation (duplicates not re-sampled), in
     * microseconds. */
    telemetry::Histogram job_wall_us;
};

/** Sweep execution knobs. */
struct SweepOptions
{
    /** Worker threads; 0 == all hardware threads, 1 == serial. */
    unsigned threads = 1;
    /** Called once per spec when its result is ready (from the
     * finishing worker thread; must be thread-safe). (done, total,
     * result); total == specs.size(), duplicates included. */
    std::function<void(std::size_t, std::size_t, const RunResult &)>
        on_progress;
    /** When set, runSweep fills in worker load and the job wall-time
     * histogram after the sweep completes. */
    SweepTelemetry *telemetry = nullptr;
};

/** Execute one spec in-process with failure isolation. */
RunResult executeRun(const RunSpec &spec);

/**
 * Execute all distinct @p specs and return one result per spec, in
 * spec order (see the file comment for dedup). Never throws for
 * per-run failures; see RunResult::status.
 */
std::vector<RunResult> runSweep(const std::vector<RunSpec> &specs,
                                const SweepOptions &opt = {});

} // namespace harness
} // namespace carve

#endif // CARVE_HARNESS_SWEEP_HH
