/** @file Figure 2: performance of NUMA-GPU and NUMA-GPU + read-only
 * page replication relative to an ideal system that replicates ALL
 * shared pages. The grid runs on the harness (CARVE_BENCH_THREADS
 * workers). */

#include "bench_util.hh"

int
main()
{
    using namespace carve;
    using namespace carve::bench;

    const BenchContext ctx = makeContext();
    banner("Figure 2: NUMA-GPU performance gap vs ideal paging",
           "8 workloads show negligible NUMA bottleneck; ~3 are fixed "
           "by read-only replication; the rest lose 20-80% and need "
           "read-write handling",
           ctx);

    std::printf("%-14s %10s %10s   %s\n", "workload", "NUMA-GPU",
                "+Repl-RO", "(perf relative to ideal, 1.0 == ideal)");

    const auto workloads = benchWorkloads(ctx);
    const auto grid = runGrid(
        ctx, {Preset::Ideal, Preset::NumaGpu, Preset::NumaGpuReplRO},
        workloads);

    std::vector<double> numa_rel, repl_rel;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const SimResult &ideal = grid[w][0];
        const SimResult &numa = grid[w][1];
        const SimResult &repl = grid[w][2];
        const double rn = speedupOver(numa, ideal) > 0
            ? static_cast<double>(ideal.cycles) /
                static_cast<double>(numa.cycles)
            : 0.0;
        const double rr = static_cast<double>(ideal.cycles) /
            static_cast<double>(repl.cycles);
        numa_rel.push_back(rn);
        repl_rel.push_back(rr);
        std::printf("%-14s %10.2f %10.2f\n", workloads[w].name.c_str(),
                    rn, rr);
    }
    std::printf("%-14s %10.2f %10.2f\n", "geomean",
                geomean(numa_rel), geomean(repl_rel));
    return 0;
}
