/**
 * @file
 * Running a benchmark workload through the library's public API,
 * checking its outputs, and recording spans around the calls.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hh"
#include "harness/json.hh"
#include "harness/run_spec.hh"
#include "workloads.hh"

namespace perfbench {

/** Seconds on the steady clock since an arbitrary fixed origin. */
double nowSeconds();

/**
 * Host-speed probe: dependent loads around a random cycle through a
 * 1 MiB table (the size of a private L2), on as many threads as the
 * measured workload keeps busy, one table each. The shared host this
 * benchmark was built on slows down by up to 2.3x for minutes at a
 * time when its neighbours are busy; this chase slows with the
 * simulator (README.md gives the measurements), so every host time
 * the benchmark reports is scaled by the probe readings taken
 * between its repetitions.
 */
class HostProbe
{
  public:
    /** Chase time the reported host times are scaled to: about what
     * the chase takes on a quiet 4-vCPU Xeon (Sapphire Rapids) VM. */
    static constexpr double nominal_s = 0.008;

    explicit HostProbe(unsigned threads);
    /** Seconds of one chase now, averaged over the threads. */
    double seconds();
    /**
     * Restrict the calling thread, and the threads it starts later, to
     * the vCPUs (of those the process may use, as many as the probe
     * has threads) on which one chase is fastest now, and return the
     * mean of their chase seconds. The vCPUs of a shared host are
     * slowed by different neighbours at any moment; the workload runs
     * on the least disturbed ones, as a benchmark is pinned to idle
     * cores.
     */
    double pinToFastestCpus();
    /** Factor that turns a host time measured while the probe read
     * @p probe_s into one on a host where it reads nominal_s. */
    static double scale(double probe_s) { return nominal_s / probe_s; }

  private:
    std::vector<std::vector<std::uint32_t>> tables_;
    std::vector<int> cpus_;
};

/**
 * In-memory span log: (name, start, end, parent, job) per call into a
 * layer, written out once at exit. Thread-safe, because runSweep
 * reports finished jobs from its workers.
 */
class SpanLog
{
  public:
    static constexpr std::uint32_t no_parent = ~0u;

    /** Open a span now; close it with end(). */
    std::uint32_t begin(const std::string &name, std::uint32_t parent,
                        const std::string &job = {});
    void end(std::uint32_t id);
    /** Record an already finished span. */
    void add(const std::string &name, double start, double end,
             std::uint32_t parent, const std::string &job = {});

    carve::json::Value toJson() const;

  private:
    struct Span
    {
        std::string name;
        std::string job;
        double start = 0.0;
        double end = 0.0;
        std::uint32_t parent = no_parent;
    };
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Closes a span on scope exit; a null log records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name,
               std::uint32_t parent = SpanLog::no_parent,
               const std::string &job = {})
        : log_(log), id_(log ? log->begin(name, parent, job) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::uint32_t id_;
};

/** One finished simulation. */
struct SimOutcome
{
    std::string key;
    carve::harness::RunStatus status = carve::harness::RunStatus::Ok;
    std::string error;
    /** Host seconds of the simulation alone. */
    double wall_s = 0.0;
    carve::SimResult sim;
    /** FNV-1a over the flattened stat tree. */
    std::uint64_t digest = 0;
};

struct WorkloadRun
{
    /** Host seconds to finish every simulation of the workload. */
    double wall_s = 0.0;
    std::vector<SimOutcome> sims;
};

/**
 * Execute every spec of @p w (runSweep for the figure grid, one
 * carve::run() call after another otherwise). With @p spans set,
 * records one span for the whole workload and one per simulation.
 */
WorkloadRun runWorkload(const BenchWorkload &w, SpanLog *spans = nullptr);

/** Digest of a stat tree: equal digests <=> byte-identical trees. */
std::uint64_t
statDigest(const std::vector<carve::stats::FlatStat> &tree);
std::string hexDigest(std::uint64_t d);

/** Value of stat @p name (0 when absent). */
double statValue(const carve::SimResult &r, const std::string &name);
/** True when the stat tree of @p r holds @p name. */
bool hasStat(const carve::SimResult &r, const std::string &name);

/** Sum, or maximum, of every stat whose name starts with @p prefix
 * and ends with @p suffix ("gpu", ".l2.probes" adds up all GPUs). */
double sumStats(const carve::SimResult &r, std::string_view prefix,
                std::string_view suffix);
double maxStats(const carve::SimResult &r, std::string_view prefix,
                std::string_view suffix);

/** Output checks of one workload execution. */
struct CheckReport
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
};

/**
 * Checks of one finished simulation: no watchdog, and sim.insts_issued
 * equals the trace's instruction count. Returns the failure, or an
 * empty string.
 */
std::string checkSimulation(const carve::harness::RunSpec &spec,
                            const carve::SimResult &r, bool watchdog);

/**
 * checkSimulation() on every simulation that finished ok, plus: every
 * repeated spec produced a byte-identical stat tree.
 */
CheckReport checkRun(const BenchWorkload &w, const WorkloadRun &run);

/**
 * Host seconds spent constructing the SyntheticWorkload and the
 * MultiGpuSystem of every distinct job of @p w (the work done before
 * the first simulated event), summed.
 */
double setupSeconds(const BenchWorkload &w);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
