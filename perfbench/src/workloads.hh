/**
 * @file
 * The benchmark's workloads: each is a fixed list of simulations
 * (preset x suite workload x trace length) plus how they are
 * executed. The inputs are a pure function of (workload name, seed);
 * README.md records why each workload exists and which layers it
 * stresses.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "harness/run_spec.hh"

namespace perfbench {

struct BenchWorkload
{
    std::string name;
    /** Simulations in request order, duplicates kept. */
    std::vector<carve::harness::RunSpec> specs;
    /** harness::runSweep workers; 0 runs the specs one after another
     * through carve::run(). */
    unsigned sweep_threads = 0;

    /** Host threads the workload keeps busy. */
    unsigned threads() const;
};

/** Names accepted by makeWorkload(), in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name with trace seed @p seed (fatal if the name
 * is unknown). */
BenchWorkload makeWorkload(const std::string &name, std::uint64_t seed);

/** The same machine as @p job but run on the serial engine: the
 * reference stat tree the parallel engine must reproduce. */
carve::SimJob serialTwin(const carve::SimJob &job);

/** The SimJob carve::run() receives for @p spec. */
carve::SimJob toJob(const carve::harness::RunSpec &spec);

/** First occurrence of every distinct spec key, in request order. */
std::vector<carve::harness::RunSpec>
distinctSpecs(const std::vector<carve::harness::RunSpec> &specs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
