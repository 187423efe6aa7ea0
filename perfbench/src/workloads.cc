#include "workloads.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "harness/thread_pool.hh"
#include "workloads/suite.hh"

namespace perfbench {

using namespace carve;
using harness::RunSpec;

namespace {

/** Capacity scale of the figure binaries (capacities divided by 8). */
constexpr unsigned memory_scale = 8;

/** Suite workload standing in for the 20-workload figures: the
 * paper's headline stencil. One keeps a pass near six seconds on one
 * sweep worker, so a run holds several. */
const std::vector<std::string> figure_suite = {"Lulesh"};

RunSpec
makeSpec(Preset preset, const std::string &suite_name, double duration,
         std::uint64_t seed)
{
    SuiteOptions suite;
    suite.memory_scale = memory_scale;
    suite.duration = duration;

    RunSpec s;
    s.preset = preset;
    s.workload = suiteWorkload(suite_name, suite);
    s.base = SystemConfig{}.scaled(memory_scale);
    s.opts.profile_lines = false;
    s.opts.max_cycles = 1'000'000'000;
    s.opts.tolerate_watchdog = true;
    s.opts.seed = seed;
    // Results must be a pure function of the spec: host wall time and
    // RSS stay out of the stat tree so duplicates compare exactly.
    s.host_stats = false;
    return s;
}

/** The cells fig02, fig09, fig11 and fig13 request, in the order the
 * binaries issue them (duplicates kept). */
std::vector<RunSpec>
figureSpecs(std::uint64_t seed)
{
    constexpr double duration = 0.1;
    const std::vector<std::vector<Preset>> per_workload_figs = {
        // fig02: per workload, ideal / NUMA-GPU / +Repl-RO
        {Preset::Ideal, Preset::NumaGpu, Preset::NumaGpuReplRO},
        // fig09: adds the coherence-free CARVE upper bound
        {Preset::Ideal, Preset::NumaGpu, Preset::NumaGpuReplRO,
         Preset::CarveNoCoherence},
        // fig11: the three CARVE coherence options
        {Preset::Ideal, Preset::NumaGpu, Preset::CarveSwc,
         Preset::CarveHwc, Preset::CarveNoCoherence},
        // fig13: the speedup grid (runGrid order: workload-major)
        {Preset::SingleGpu, Preset::NumaGpu, Preset::NumaGpuReplRO,
         Preset::CarveHwc, Preset::Ideal},
    };
    std::vector<RunSpec> specs;
    for (const auto &presets : per_workload_figs) {
        for (const std::string &wl : figure_suite) {
            for (const Preset p : presets)
                specs.push_back(makeSpec(p, wl, duration, seed));
        }
    }
    return specs;
}

std::vector<RunSpec>
crossSpecs(const std::vector<Preset> &presets,
           const std::vector<std::string> &suite_names,
           double duration, std::uint64_t seed)
{
    std::vector<RunSpec> specs;
    for (const std::string &wl : suite_names) {
        for (const Preset p : presets)
            specs.push_back(makeSpec(p, wl, duration, seed));
    }
    return specs;
}

} // namespace

unsigned
BenchWorkload::threads() const
{
    unsigned n = std::max(1u, sweep_threads);
    for (const RunSpec &s : specs) {
        if (s.base.engine == SimEngine::Parallel)
            n = std::max(n, s.base.sim_threads);
    }
    return n;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "figures", "rdc-thrash", "numa-remote", "par-coherence"};
    return names;
}

BenchWorkload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    BenchWorkload w;
    w.name = name;
    // Two host threads at most, so that the probe can pin a workload
    // to the least disturbed vCPUs of a shared host and leave the rest
    // to the benchmark's own processes. The figure sweep runs on one
    // worker: on two it spread twice as much between runs.
    const unsigned threads =
        std::min(2u, harness::ThreadPool::hardwareThreads());
    if (name == "figures") {
        w.specs = figureSpecs(seed);
        w.sweep_threads = 1;
    } else if (name == "rdc-thrash") {
        w.specs = crossSpecs({Preset::CarveHwc},
                             {"XSBench", "RandAccess"}, 0.35, seed);
    } else if (name == "numa-remote") {
        w.specs = crossSpecs({Preset::NumaGpu, Preset::NumaGpuReplRO},
                             {"Lulesh", "SSSP", "AMG", "bfs-road"},
                             0.15, seed);
    } else if (name == "par-coherence") {
        w.specs = crossSpecs({Preset::CarveHwc}, {"Lulesh", "SSSP"},
                             1.0, seed);
        for (RunSpec &s : w.specs) {
            s.base.engine = SimEngine::Parallel;
            s.base.sim_threads = threads;
        }
    } else {
        fatal("unknown workload '%s'", name.c_str());
    }
    return w;
}

SimJob
toJob(const RunSpec &spec)
{
    return makePresetJob(spec.preset, spec.base, spec.workload,
                         spec.opts);
}

SimJob
serialTwin(const SimJob &job)
{
    SimJob twin = job;
    twin.config.engine = SimEngine::Serial;
    twin.config.sim_threads = 1;
    return twin;
}

std::vector<RunSpec>
distinctSpecs(const std::vector<RunSpec> &specs)
{
    std::vector<RunSpec> out;
    std::set<std::string> seen;
    for (const RunSpec &s : specs) {
        if (seen.insert(s.key()).second)
            out.push_back(s);
    }
    return out;
}

} // namespace perfbench
