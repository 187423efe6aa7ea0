/** @file Figure 9: CARVE with zero-overhead coherence
 * (CARVE-No-Coherence) against NUMA-GPU, +Repl-RO and the ideal
 * system — the upper-bound case for caching remote data in video
 * memory. The grid runs on the harness (CARVE_BENCH_THREADS
 * workers). */

#include "bench_util.hh"

int
main()
{
    using namespace carve;
    using namespace carve::bench;

    const BenchContext ctx = makeContext();
    banner("Figure 9: CARVE-No-Coherence performance (upper bound)",
           "NUMA-GPU and +Repl-RO sit ~50% below ideal on average; "
           "CARVE-No-Coherence closes to within ~5%; RandAccess is "
           "the outlier that *loses* ~10% from RDC miss "
           "serialization",
           ctx);

    std::printf("%-14s %10s %10s %10s   %s\n", "workload", "NUMA-GPU",
                "+Repl-RO", "CARVE-NoC",
                "(relative to ideal, 1.0 == ideal)");

    const auto workloads = benchWorkloads(ctx);
    const auto grid = runGrid(ctx,
                              {Preset::Ideal, Preset::NumaGpu,
                               Preset::NumaGpuReplRO,
                               Preset::CarveNoCoherence},
                              workloads);

    std::vector<double> vn, vr, vc;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const SimResult &ideal = grid[w][0];
        const SimResult &numa = grid[w][1];
        const SimResult &repl = grid[w][2];
        const SimResult &noc = grid[w][3];
        const auto rel = [&](const SimResult &r) {
            return static_cast<double>(ideal.cycles) /
                static_cast<double>(r.cycles);
        };
        vn.push_back(rel(numa));
        vr.push_back(rel(repl));
        vc.push_back(rel(noc));
        std::printf("%-14s %10.2f %10.2f %10.2f\n",
                    workloads[w].name.c_str(), vn.back(), vr.back(),
                    vc.back());
    }
    std::printf("%-14s %10.2f %10.2f %10.2f\n", "geomean",
                geomean(vn), geomean(vr), geomean(vc));
    return 0;
}
