#include "measure.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include <sched.h>

#include "common/logging.hh"
#include "core/multi_gpu_system.hh"
#include "harness/sweep.hh"
#include "workloads/synthetic.hh"

namespace perfbench {

using namespace carve;
using harness::RunResult;
using harness::RunSpec;
using harness::RunStatus;

double
nowSeconds()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

namespace {

/** Probe table: entries 16 bytes apart, 1 MiB in all. */
constexpr std::size_t probe_entries = 1u << 16;
constexpr std::size_t probe_stride = 4;
constexpr unsigned probe_steps = 1'000'000;

/** Median seconds of five timed chases around @p next, each after
 * an untimed sweep that brings the table back into cache. */
double
chaseSeconds(const std::vector<std::uint32_t> &next)
{
    double t[5];
    std::uint32_t p = 0;
    for (double &ti : t) {
        for (std::size_t i = 0; i < probe_entries; ++i)
            p += next[i * probe_stride];
        p %= probe_entries;
        const double start = nowSeconds();
        for (unsigned i = 0; i < probe_steps; ++i)
            p = next[p * probe_stride];
        ti = nowSeconds() - start;
    }
    // Keep the chase observable so it is not optimised away.
    asm volatile("" : : "r"(p) : "memory");
    std::sort(std::begin(t), std::end(t));
    return t[2];
}

} // namespace

HostProbe::HostProbe(unsigned threads)
{
    // One random cycle through every entry (Sattolo's shuffle), from a
    // fixed generator so every run chases the same cycle.
    std::vector<std::uint32_t> order(probe_entries);
    for (std::size_t i = 0; i < probe_entries; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 42;
    for (std::size_t i = probe_entries - 1; i > 0; --i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::swap(order[i], order[(x >> 17) % i]);
    }
    std::vector<std::uint32_t> next(probe_entries * probe_stride);
    for (std::size_t i = 0; i < probe_entries; ++i)
        next[order[i] * probe_stride] = order[(i + 1) % probe_entries];
    tables_.assign(std::max(1u, threads), next);

    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed))
                cpus_.push_back(cpu);
        }
    }
}

double
HostProbe::seconds()
{
    std::vector<double> t(tables_.size());
    std::vector<std::thread> workers;
    for (std::size_t i = 1; i < tables_.size(); ++i)
        workers.emplace_back([&, i] { t[i] = chaseSeconds(tables_[i]); });
    t[0] = chaseSeconds(tables_[0]);
    for (std::thread &w : workers)
        w.join();
    double sum = 0.0;
    for (const double ti : t)
        sum += ti;
    return sum / static_cast<double>(t.size());
}

double
HostProbe::pinToFastestCpus()
{
    std::vector<std::pair<double, int>> speed;
    for (const int cpu : cpus_) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) == 0)
            speed.emplace_back(chaseSeconds(tables_[0]), cpu);
    }
    if (speed.empty())
        return seconds();  // affinity unavailable: run where placed
    std::sort(speed.begin(), speed.end());
    speed.resize(std::min(speed.size(), tables_.size()));
    cpu_set_t fastest;
    CPU_ZERO(&fastest);
    double sum = 0.0;
    for (const auto &[s, cpu] : speed) {
        CPU_SET(cpu, &fastest);
        sum += s;
    }
    sched_setaffinity(0, sizeof fastest, &fastest);
    return sum / static_cast<double>(speed.size());
}

std::uint32_t
SpanLog::begin(const std::string &name, std::uint32_t parent,
               const std::string &job)
{
    const double t = nowSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, job, t, t, parent});
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

void
SpanLog::end(std::uint32_t id)
{
    const double t = nowSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(id).end = t;
}

void
SpanLog::add(const std::string &name, double start, double end,
             std::uint32_t parent, const std::string &job)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, job, start, end, parent});
}

json::Value
SpanLog::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    json::Array out;
    out.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        json::Value v{json::Members{}};
        v.set("id", static_cast<std::uint64_t>(i));
        v.set("name", s.name);
        v.set("start_s", s.start);
        v.set("end_s", s.end);
        v.set("parent", s.parent == no_parent
                            ? json::Value()
                            : json::Value(s.parent));
        if (!s.job.empty())
            v.set("job", s.job);
        out.push_back(std::move(v));
    }
    return json::Value(std::move(out));
}

std::uint64_t
statDigest(const std::vector<stats::FlatStat> &tree)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    };
    for (const stats::FlatStat &s : tree) {
        mix(s.name.data(), s.name.size() + 1);  // include the NUL
        mix(&s.integral, sizeof s.integral);
        if (s.integral) {
            mix(&s.u64, sizeof s.u64);
        } else {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &s.dbl, sizeof bits);
            mix(&bits, sizeof bits);
        }
    }
    return h;
}

std::string
hexDigest(std::uint64_t d)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(d));
    return buf;
}

double
statValue(const SimResult &r, const std::string &name)
{
    for (const stats::FlatStat &s : r.stat_tree) {
        if (s.name == name)
            return s.asDouble();
    }
    return 0.0;
}

bool
hasStat(const SimResult &r, const std::string &name)
{
    for (const stats::FlatStat &s : r.stat_tree) {
        if (s.name == name)
            return true;
    }
    return false;
}

namespace {

template <class Fold>
double
foldStats(const SimResult &r, std::string_view prefix,
          std::string_view suffix, Fold fold)
{
    double acc = 0.0;
    for (const stats::FlatStat &s : r.stat_tree) {
        if (s.name.starts_with(prefix) && s.name.ends_with(suffix) &&
            s.name.size() >= prefix.size() + suffix.size())
            acc = fold(acc, s.asDouble());
    }
    return acc;
}

} // namespace

double
sumStats(const SimResult &r, std::string_view prefix,
         std::string_view suffix)
{
    return foldStats(r, prefix, suffix,
                     [](double a, double v) { return a + v; });
}

double
maxStats(const SimResult &r, std::string_view prefix,
         std::string_view suffix)
{
    return foldStats(r, prefix, suffix,
                     [](double a, double v) { return std::max(a, v); });
}

namespace {

SimOutcome
fromRunResult(const RunSpec &spec, RunResult &&r)
{
    SimOutcome o;
    o.key = spec.key();
    o.status = r.status;
    o.error = std::move(r.error);
    o.wall_s = r.wall_seconds;
    o.sim = std::move(r.sim);
    return o;
}

/** One carve::run() call with failure isolation. */
SimOutcome
runOne(const RunSpec &spec, SpanLog *spans, std::uint32_t parent)
{
    SimOutcome o;
    o.key = spec.key();
    const SimJob job = toJob(spec);
    ScopedSpan span(spans, "core.run", parent, o.key);
    const double start = nowSeconds();
    try {
        ScopedErrorCapture capture;
        o.sim = run(job);
        if (o.sim.watchdog_tripped) {
            o.status = RunStatus::Watchdog;
            o.error = "watchdog tripped";
        }
    } catch (const std::exception &e) {
        o.status = RunStatus::Failed;
        o.error = e.what();
    }
    o.wall_s = nowSeconds() - start;
    return o;
}

} // namespace

WorkloadRun
runWorkload(const BenchWorkload &w, SpanLog *spans)
{
    WorkloadRun out;
    out.sims.reserve(w.specs.size());
    const double start = nowSeconds();
    ScopedSpan top(spans, "workload." + w.name);

    if (w.sweep_threads == 0) {
        for (const RunSpec &spec : w.specs)
            out.sims.push_back(runOne(spec, spans, top.id()));
    } else {
        harness::SweepOptions opt;
        opt.threads = w.sweep_threads;
        const std::uint32_t sweep_id =
            spans ? spans->begin("harness.runSweep", top.id())
                  : SpanLog::no_parent;
        if (spans) {
            // Each job's span ends when its worker reports it; its
            // start is back-dated by the job's own wall time.
            opt.on_progress = [spans, sweep_id](std::size_t,
                                                std::size_t,
                                                const RunResult &r) {
                const double end = nowSeconds();
                spans->add("core.run", end - r.wall_seconds, end,
                           sweep_id, r.key());
            };
        }
        std::vector<RunResult> results = harness::runSweep(w.specs, opt);
        if (spans)
            spans->end(sweep_id);
        for (std::size_t i = 0; i < results.size(); ++i)
            out.sims.push_back(
                fromRunResult(w.specs[i], std::move(results[i])));
    }
    out.wall_s = nowSeconds() - start;
    for (SimOutcome &o : out.sims)
        o.digest = statDigest(o.sim.stat_tree);
    return out;
}

std::string
checkSimulation(const RunSpec &spec, const SimResult &r, bool watchdog)
{
    const std::string key = spec.key();
    if (watchdog)
        return key + ": watchdog tripped";
    const SyntheticWorkload trace(spec.workload, spec.base.line_size,
                                  spec.opts.seed);
    const auto issued =
        static_cast<std::uint64_t>(statValue(r, "sim.insts_issued"));
    if (issued != trace.totalInstructions())
        return key + ": sim.insts_issued " + std::to_string(issued) +
            " != trace instructions " +
            std::to_string(trace.totalInstructions());
    return {};
}

CheckReport
checkRun(const BenchWorkload &w, const WorkloadRun &run)
{
    CheckReport rep;
    std::map<std::string, std::uint64_t> first_digest;
    for (std::size_t i = 0; i < run.sims.size(); ++i) {
        const SimOutcome &o = run.sims[i];
        ++rep.attempted;
        std::string why;
        if (o.status != RunStatus::Ok) {
            why = o.key + ": " + harness::runStatusName(o.status) + ": " +
                o.error;
        } else {
            why = checkSimulation(w.specs[i], o.sim, false);
            const auto [d, fresh] = first_digest.emplace(o.key, o.digest);
            if (why.empty() && !fresh && d->second != o.digest)
                why = o.key + ": stat tree differs from the first run of "
                              "the same spec";
        }
        if (!why.empty()) {
            ++rep.failed;
            rep.failures.push_back(why);
        }
    }
    return rep;
}

double
setupSeconds(const BenchWorkload &w)
{
    double total = 0.0;
    for (const RunSpec &spec : distinctSpecs(w.specs)) {
        const SimJob job = toJob(spec);
        const double start = nowSeconds();
        auto trace = std::make_unique<SyntheticWorkload>(
            job.workload, job.config.line_size, job.options.seed);
        auto sys = std::make_unique<MultiGpuSystem>(
            job.config, *trace, job.options.profile_lines,
            job.options.audit, job.options.telemetry);
        total += nowSeconds() - start;
    }
    return total;
}

} // namespace perfbench
