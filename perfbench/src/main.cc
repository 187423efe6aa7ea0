/**
 * @file
 * carve-perfbench: one measurement of one benchmark workload, printed
 * as a single JSON line. perfbench/run.py drives it, one process per
 * measurement, so every process's peak RSS belongs to one workload.
 *
 *   carve-perfbench sim   --workload W --seed S --seconds T
 *       an untimed warm-up pass over every simulation, then timed
 *       passes for at least T seconds; check every pass's outputs
 *   carve-perfbench setup --workload W --seed S --reps N --seconds T
 *       time the constructors of every distinct job, at least N
 *       times and for at least T seconds
 *   carve-perfbench ref   --workload W --seed S
 *       digests of every distinct job on the serial engine
 *   carve-perfbench trace --workload W --seed S --seconds T
 *                         --spans FILE
 *       the per-layer report: spans, stat-tree counts, replays
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/multi_gpu_system.hh"
#include "harness/json.hh"
#include "measure.hh"
#include "replay.hh"
#include "workloads.hh"
#include "workloads/synthetic.hh"

namespace {

using namespace carve;
using namespace perfbench;
using harness::RunSpec;

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    unsigned reps = 1;
    double seconds = 1.0;
    std::string spans_path;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        fatal("usage: carve-perfbench sim|setup|ref|trace --workload W "
              "--seed S [--reps N] [--seconds T] [--spans FILE]");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("%s needs a value", flag.c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--reps")
            a.reps = static_cast<unsigned>(std::stoul(v));
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--spans")
            a.spans_path = v;
        else
            fatal("unknown flag '%s'", flag.c_str());
    }
    return a;
}

/** Running total of output checks across several executions. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    json::Array failures;

    void
    add(const CheckReport &r)
    {
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &f : r.failures)
            failures.push_back(json::Value(f));
    }

    /** A failed check of a simulation already counted as attempted. */
    void
    fail(const std::string &failure)
    {
        ++failed;
        failures.push_back(json::Value(failure));
    }

    /** One extra simulation checked outside checkRun(). */
    void
    addOne(const std::string &failure)
    {
        ++attempted;
        if (!failure.empty()) {
            ++failed;
            failures.push_back(json::Value(failure));
        }
    }

    void
    writeTo(json::Value &out) const
    {
        out.set("attempted", attempted);
        out.set("failed", failed);
        out.set("failures", json::Value(failures));
    }
};

json::Value
digestsOf(const WorkloadRun &run)
{
    json::Value d{json::Members{}};
    std::set<std::string> seen;
    for (const SimOutcome &o : run.sims) {
        if (seen.insert(o.key).second)
            d.set(o.key, hexDigest(o.digest));
    }
    return d;
}

// ---- sim / setup / ref ---------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

json::Value
jsonArray(const std::vector<double> &v)
{
    json::Array a;
    for (const double x : v)
        a.push_back(json::Value(x));
    return json::Value(std::move(a));
}

/** Timed passes a sim measurement makes even when --seconds is over. */
constexpr std::size_t min_passes = 3;

json::Value
simMode(const BenchWorkload &w, double seconds)
{
    // Pass 0 warms the heap, the page tables and the host caches, as a
    // user's second figure run would find them; it is checked but not
    // timed. Every timed pass must reproduce its stat trees exactly.
    Checks checks;
    std::vector<std::uint64_t> digests;
    json::Value digest_map;
    std::uint64_t insts = 0;
    {
        const WorkloadRun warm = runWorkload(w);
        checks.add(checkRun(w, warm));
        for (const SimOutcome &o : warm.sims) {
            digests.push_back(o.digest);
            insts += o.sim.warp_insts;
        }
        digest_map = digestsOf(warm);
    }

    // Before every pass the workload is pinned to the vCPUs the host
    // probe finds fastest, and the probe runs again after it. The
    // reported times are medians over the passes (of the whole
    // workload's wall time, and of each simulation's own time, summed
    // for warp-insts/s), scaled by the median probe reading.
    HostProbe probe(w.threads());
    std::vector<double> pass_s, probes;
    std::vector<std::vector<double>> sim_s(w.specs.size());
    const double until = nowSeconds() + seconds;
    while (pass_s.size() < min_passes || nowSeconds() < until) {
        probes.push_back(probe.pinToFastestCpus());
        const WorkloadRun run = runWorkload(w);
        probes.push_back(probe.seconds());
        checks.add(checkRun(w, run));
        for (std::size_t i = 0; i < run.sims.size(); ++i) {
            if (run.sims[i].digest != digests[i])
                checks.fail(run.sims[i].key +
                            ": stat tree differs from pass 0");
            sim_s[i].push_back(run.sims[i].wall_s);
        }
        pass_s.push_back(run.wall_s);
    }

    const double scale = HostProbe::scale(median(probes));
    double sim_total = 0.0;
    for (const std::vector<double> &t : sim_s)
        sim_total += median(t);
    json::Value out{json::Members{}};
    out.set("wall_s", median(pass_s) * scale);
    out.set("sim_s", sim_total * scale);
    out.set("warp_insts", insts);
    out.set("raw_wall_s", median(pass_s));
    out.set("pass_s", jsonArray(pass_s));
    out.set("probe_s", jsonArray(probes));
    out.set("digests", std::move(digest_map));
    checks.writeTo(out);
    return out;
}

json::Value
setupMode(const BenchWorkload &w, unsigned reps, double seconds)
{
    // The first construction pays one-off costs (page faults on fresh
    // heap, lazy statics) that every later simulation in a process
    // does not; it is timed but not reported. Each later one runs on
    // the vCPU the host probe finds fastest just before it.
    setupSeconds(w);
    HostProbe probe(1);
    std::vector<double> times, probes;
    const double until = nowSeconds() + seconds;
    while (times.size() < reps || nowSeconds() < until) {
        probes.push_back(probe.pinToFastestCpus());
        times.push_back(setupSeconds(w));
    }
    json::Value out{json::Members{}};
    out.set("setup_s",
            median(times) * HostProbe::scale(median(probes)));
    out.set("raw_setup_s", jsonArray(times));
    return out;
}

json::Value
refMode(const BenchWorkload &w)
{
    Checks checks;
    json::Value digests{json::Members{}};
    for (const RunSpec &spec : distinctSpecs(w.specs)) {
        std::string failure;
        SimResult r;
        try {
            ScopedErrorCapture capture;
            r = run(serialTwin(toJob(spec)));
            failure = checkSimulation(spec, r, r.watchdog_tripped);
        } catch (const std::exception &e) {
            failure = spec.key() + ": " + e.what();
        }
        checks.addOne(failure);
        digests.set(spec.key(), hexDigest(statDigest(r.stat_tree)));
    }
    json::Value out{json::Members{}};
    out.set("digests", std::move(digests));
    checks.writeTo(out);
    return out;
}

// ---- trace ---------------------------------------------------------

/** A simulation split at the library's public seams. */
struct SplitRun
{
    double construct_s = 0.0;
    double loop_s = 0.0;
    double collect_s = 0.0;
    SimResult result;
    std::string failure;
};

SplitRun
runSplit(const SimJob &job, const RunSpec &spec, SpanLog &spans,
         std::uint32_t parent)
{
    SplitRun s;
    const std::string key = spec.key();
    const RunOptions &opt = job.options;
    try {
        ScopedErrorCapture capture;
        ScopedSpan whole(&spans, "core.job", parent, key);
        double t = nowSeconds();
        std::unique_ptr<SyntheticWorkload> trace;
        std::unique_ptr<MultiGpuSystem> sys;
        {
            ScopedSpan span(&spans, "core.construct", whole.id(), key);
            trace = std::make_unique<SyntheticWorkload>(
                job.workload, job.config.line_size, opt.seed);
            sys = std::make_unique<MultiGpuSystem>(
                job.config, *trace, opt.profile_lines, opt.audit,
                opt.telemetry);
        }
        s.construct_s = nowSeconds() - t;
        t = nowSeconds();
        {
            ScopedSpan span(&spans, "core.loop", whole.id(), key);
            sys->run(opt.max_cycles, opt.max_wall_seconds);
        }
        s.loop_s = nowSeconds() - t;
        t = nowSeconds();
        {
            ScopedSpan span(&spans, "core.collect", whole.id(), key);
            s.result = collectResult(*sys, job.workload.name,
                                     job.preset_label);
        }
        s.collect_s = nowSeconds() - t;
        s.failure = checkSimulation(spec, s.result, sys->watchdogTripped());
    } catch (const std::exception &e) {
        s.failure = key + ": " + e.what();
    }
    return s;
}

/** Nearest-rank percentile @p p in [0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

const char *
speedupMetric(Preset p)
{
    switch (p) {
      case Preset::NumaGpu: return "core.speedup.numa_gpu";
      case Preset::NumaGpuReplRO: return "core.speedup.repl_ro";
      case Preset::CarveHwc: return "core.speedup.carve_hwc";
      case Preset::CarveSwc: return "core.speedup.carve_swc";
      case Preset::CarveNoCoherence: return "core.speedup.carve_noc";
      case Preset::Ideal: return "core.speedup.ideal";
      default: return nullptr;
    }
}

json::Value
traceMode(const BenchWorkload &w, double seconds,
          const std::string &spans_path)
{
    json::Value metrics{json::Members{}};
    json::Array not_applicable;
    const auto put = [&](const std::string &name, double v) {
        metrics.set(name, v);
    };
    const auto na = [&](const std::string &name, const char *why) {
        metrics.set(name, 0.0);
        not_applicable.push_back(json::Value(name + ": " + why));
    };
    Checks checks;
    SpanLog spans;
    const bool parallel = w.specs.front().base.engine == SimEngine::Parallel;

    // 1. Span overhead: the workload with and without spans, in
    //    alternation, for the run's time budget.
    std::vector<double> plain_s, spanned_s;
    WorkloadRun spanned;
    std::map<std::string, std::uint64_t> run_digest;
    const double until = nowSeconds() + seconds;
    do {
        const WorkloadRun plain = runWorkload(w);
        checks.add(checkRun(w, plain));
        plain_s.push_back(plain.wall_s);
        spanned = runWorkload(w, &spans);
        checks.add(checkRun(w, spanned));
        spanned_s.push_back(spanned.wall_s);
        for (const SimOutcome &o : plain.sims)
            run_digest.emplace(o.key, o.digest);
    } while (nowSeconds() < until);
    put("bench.span_overhead_frac",
        median(spanned_s) / median(plain_s) - 1.0);

    // harness: scheduling of the last spanned execution.
    {
        std::vector<double> job_s;
        double busy = 0.0;
        for (const SimOutcome &o : spanned.sims) {
            job_s.push_back(o.wall_s);
            busy += o.wall_s;
        }
        const unsigned workers = std::max(1u, w.sweep_threads);
        put("harness.specs", static_cast<double>(w.specs.size()));
        put("harness.unique_specs",
            static_cast<double>(distinctSpecs(w.specs).size()));
        put("harness.job_s.p50", percentile(job_s, 0.5));
        put("harness.job_s.p90", percentile(job_s, 0.9));
        put("harness.worker_busy_frac",
            busy / (spanned.wall_s * static_cast<double>(workers)));
    }

    // 2. Every distinct job split into construct / loop / collect:
    //    telemetry off for host time, on for the counts, and (parallel
    //    engine only) on one thread for the scaling reference.
    const std::vector<RunSpec> distinct = distinctSpecs(w.specs);
    std::vector<SplitRun> off, on;
    double loop_one_thread = 0.0;
    const std::uint32_t split_id =
        spans.begin("bench.split", SpanLog::no_parent);
    for (const RunSpec &spec : distinct) {
        const SimJob job = toJob(spec);
        SplitRun plain = runSplit(job, spec, spans, split_id);
        if (plain.failure.empty() &&
            statDigest(plain.result.stat_tree) != run_digest[spec.key()])
            plain.failure = spec.key() + ": split run differs from run()";
        checks.addOne(plain.failure);
        off.push_back(std::move(plain));

        SimJob telem = job;
        telem.options.telemetry.enabled = true;
        telem.options.telemetry.host_timing = parallel;
        on.push_back(runSplit(telem, spec, spans, split_id));
        checks.addOne(on.back().failure);

        if (parallel) {
            SimJob one = job;
            one.config.sim_threads = 1;
            const SplitRun r = runSplit(one, spec, spans, split_id);
            checks.addOne(r.failure);
            loop_one_thread += r.loop_s;
        }
    }
    spans.end(split_id);

    double setup_s = 0.0, loop_s = 0.0, collect_s = 0.0, loop_telem = 0.0;
    for (const SplitRun &s : off) {
        setup_s += s.construct_s;
        loop_s += s.loop_s;
        collect_s += s.collect_s;
    }
    for (const SplitRun &s : on)
        loop_telem += s.loop_s;
    put("core.setup_s", setup_s);
    put("core.loop_s", loop_s);
    put("core.collect_s", collect_s);
    put("telemetry.overhead_frac", loop_telem / loop_s - 1.0);
    if (parallel)
        put("common.engine.scaling_x", loop_one_thread / loop_s);
    else
        na("common.engine.scaling_x", "serial engine");

    // Sums over the distinct jobs' telemetry-on stat trees.
    const auto sum = [&](std::string_view prefix, std::string_view suffix) {
        double acc = 0.0;
        for (const SplitRun &s : on)
            acc += sumStats(s.result, prefix, suffix);
        return acc;
    };
    const auto max = [&](std::string_view prefix, std::string_view suffix) {
        double acc = 0.0;
        for (const SplitRun &s : on)
            acc = std::max(acc, maxStats(s.result, prefix, suffix));
        return acc;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    double cycles = 0.0;
    for (const SplitRun &s : off)
        cycles += static_cast<double>(s.result.cycles);
    const double events = sum("sim.events", "");
    put("core.sim_cycles", cycles);
    put("core.ns_per_event", ratio(loop_s * 1e9, events));

    // 3. Speed-ups over one GPU, per preset, from 1-GPU baselines.
    {
        std::map<std::string, double> one_gpu;  // suite workload -> cycles
        for (std::size_t i = 0; i < distinct.size(); ++i) {
            if (distinct[i].preset == Preset::SingleGpu)
                one_gpu[distinct[i].workload.name] =
                    static_cast<double>(off[i].result.cycles);
        }
        for (const RunSpec &spec : distinct) {
            if (one_gpu.count(spec.workload.name))
                continue;
            RunSpec single = spec;
            single.preset = Preset::SingleGpu;
            single.base.engine = SimEngine::Serial;
            single.base.sim_threads = 1;
            SimResult r;
            std::string failure;
            try {
                ScopedErrorCapture capture;
                r = run(toJob(single));
                failure = checkSimulation(single, r, r.watchdog_tripped);
            } catch (const std::exception &e) {
                failure = single.key() + ": " + e.what();
            }
            checks.addOne(failure);
            one_gpu[spec.workload.name] = static_cast<double>(r.cycles);
        }
        std::map<Preset, std::vector<double>> logs;
        for (std::size_t i = 0; i < distinct.size(); ++i) {
            const double c = static_cast<double>(off[i].result.cycles);
            const double base = one_gpu[distinct[i].workload.name];
            if (speedupMetric(distinct[i].preset) && c > 0 && base > 0)
                logs[distinct[i].preset].push_back(std::log(base / c));
        }
        for (const Preset p :
             {Preset::NumaGpu, Preset::NumaGpuReplRO, Preset::CarveHwc,
              Preset::CarveSwc, Preset::CarveNoCoherence, Preset::Ideal}) {
            const auto it = logs.find(p);
            if (it == logs.end()) {
                na(speedupMetric(p), "preset not in this workload");
                continue;
            }
            double s = 0.0;
            for (const double l : it->second)
                s += l;
            put(speedupMetric(p),
                std::exp(s / static_cast<double>(it->second.size())));
        }
    }

    // 4. Host cost per layer call from replays of each suite
    //    workload's trace, scaled by the calls each job made.
    {
        std::map<std::string, std::map<std::string, double>> ns_by_suite;
        const std::uint32_t replay_id =
            spans.begin("bench.replay", SpanLog::no_parent);
        for (const RunSpec &spec : distinct) {
            if (!ns_by_suite.count(spec.workload.name)) {
                ScopedSpan span(&spans, "replay." + spec.workload.name,
                                replay_id);
                ns_by_suite[spec.workload.name] =
                    replayLayers(toJob(spec), 0.05);
            }
        }
        spans.end(replay_id);
        std::map<std::string, double> est_s, calls;
        for (std::size_t i = 0; i < distinct.size(); ++i) {
            const auto &ns = ns_by_suite[distinct[i].workload.name];
            for (const auto &[fn, c] : layerCalls(on[i].result)) {
                est_s[fn] += ns.at(fn) * c * 1e-9;
                calls[fn] += c;
            }
        }
        // On a parallel run the loop's work is spread over threads; the
        // one-thread loop is the time the estimates add up to.
        const double loop_work = parallel ? loop_one_thread : loop_s;
        double attributed = 0.0;
        for (const std::string &fn : layerFunctions()) {
            double per_call = ratio(est_s[fn] * 1e9, calls[fn]);
            if (calls[fn] == 0.0) {
                // Unused here: report the replay's own figure.
                for (const auto &[suite, ns] : ns_by_suite)
                    per_call += ns.at(fn) /
                        static_cast<double>(ns_by_suite.size());
            }
            put(fn + ".ns_per_call", per_call);
            put(fn + ".est_s", est_s[fn]);
            attributed += est_s[fn];
        }
        put("core.unattributed_frac", 1.0 - attributed / loop_work);
    }

    // 5. Counts from the stat trees, by layer.
    put("workloads.insts", sum("sim.insts_issued", ""));
    put("common.events", events);
    put("common.engine.windows", sum("engine.windows", ""));
    put("common.engine.exchange_msgs", sum("engine.exchange_msgs.sum", ""));
    if (parallel) {
        put("common.engine.barrier_wait_ns.p50",
            max("engine.barrier_wait_ns.p50", ""));
        put("common.engine.barrier_wait_ns.p99",
            max("engine.barrier_wait_ns.p99", ""));
    } else {
        na("common.engine.barrier_wait_ns.p50", "serial engine");
        na("common.engine.barrier_wait_ns.p99", "serial engine");
    }

    const double l2_probes = sum("gpu", ".l2.probes");
    put("cache.l2.probes", l2_probes);
    put("cache.l2.hit_rate",
        ratio(sum("gpu", ".l2.hits"),
              sum("gpu", ".l2.hits") + sum("gpu", ".l2.misses")));
    put("cache.mshr.parks", sum("gpu", ".mshrs.parks"));
    put("cache.mshr.park_duration.p99",
        std::max(max("gpu", ".l2.mshrs.park_duration.p99"),
                 max("gpu", ".l1_mshrs.park_duration.p99")));
    put("gpu.l1.misses", sum("gpu", ".l1.misses"));
    put("gpu.sm.mshr_stalls", sum("gpu", "mshr_stalls") -
                                  sum("gpu", ".l2.mshr_stalls") -
                                  sum("gpu", ".rdc.mshr_stalls"));
    put("tlb.walks", sum("gpu", ".tlb.walks"));

    const double rdc_hits = sum("gpu", ".rdc.alloy.hits");
    put("dramcache.probes", sum("gpu", ".rdc.alloy.probes"));
    put("dramcache.hit_rate",
        ratio(rdc_hits, rdc_hits + sum("gpu", ".rdc.alloy.misses") +
                            sum("gpu", ".rdc.alloy.stale_hits")));
    put("dramcache.conflict_evictions",
        sum("gpu", ".rdc.alloy.conflict_evictions"));
    put("dramcache.miss_lifetime.p99",
        max("gpu", ".rdc.mshrs.miss_lifetime.p99"));

    const double mem_reads = sum("gpu", ".mem.reads");
    const double mem_writes = sum("gpu", ".mem.writes");
    put("mem.reads", mem_reads);
    put("mem.writes", mem_writes);
    {
        // Access-weighted mean of the per-GPU row-buffer hit rates.
        double hits = 0.0;
        for (const SplitRun &s : on) {
            for (unsigned g = 0; g < 64; ++g) {
                const std::string p = "gpu" + std::to_string(g) + ".mem.";
                if (!hasStat(s.result, p + "reads"))
                    break;
                hits += statValue(s.result, p + "row_hit_rate") *
                    (statValue(s.result, p + "reads") +
                     statValue(s.result, p + "writes"));
            }
        }
        put("mem.row_hit_rate", ratio(hits, mem_reads + mem_writes));
    }

    put("interconnect.bytes", sum("link.", ".bytes"));
    put("interconnect.packets", sum("link.", ".packets"));
    put("interconnect.queue_delay.p99",
        max("link.", ".queue_delay_cycles.p99"));

    put("coherence.invalidates_sent", sum("coherence.invalidates_sent", ""));
    put("coherence.imst.shared_writes",
        sum("coherence.imst", ".shared_writes"));

    put("numa.replications", sum("numa.replications", ""));
    put("numa.migrations", sum("numa.migrations", ""));

    if (!spans_path.empty()) {
        std::ofstream f(spans_path);
        f << spans.toJson().dump(1) << "\n";
        if (!f)
            fatal("cannot write %s", spans_path.c_str());
    }

    json::Value out{json::Members{}};
    out.set("metrics", std::move(metrics));
    out.set("not_applicable", json::Value(std::move(not_applicable)));
    json::Value digests{json::Members{}};
    for (const auto &[key, d] : run_digest)
        digests.set(key, hexDigest(d));
    out.set("digests", std::move(digests));
    checks.writeTo(out);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const BenchWorkload w = makeWorkload(a.workload, a.seed);
    json::Value out;
    if (a.mode == "sim")
        out = simMode(w, a.seconds);
    else if (a.mode == "setup")
        out = setupMode(w, a.reps, a.seconds);
    else if (a.mode == "ref")
        out = refMode(w);
    else if (a.mode == "trace")
        out = traceMode(w, a.seconds, a.spans_path);
    else
        fatal("unknown mode '%s'", a.mode.c_str());
    std::printf("%s\n", out.dump(0).c_str());
    return 0;
}
