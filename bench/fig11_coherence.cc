/** @file Figure 11: CARVE under software vs hardware coherence.
 * Software coherence (epoch-flushing the RDC at every kernel
 * boundary) forfeits inter-kernel locality; GPU-VI+IMST hardware
 * coherence restores it. The grid runs on the harness
 * (CARVE_BENCH_THREADS workers). */

#include "bench_util.hh"

int
main()
{
    using namespace carve;
    using namespace carve::bench;

    const BenchContext ctx = makeContext();
    banner("Figure 11: CARVE coherence design space",
           "CARVE-SWC loses nearly all RDC benefit except on "
           "single-long-kernel workloads (XSBench); CARVE-HWC "
           "matches CARVE-No-Coherence",
           ctx);

    // Representative subset by default (full suite via
    // CARVE_BENCH_WORKLOADS): the iterative workloads that lose their
    // RDC value under SWC plus the single-long-kernel exception.
    if (!std::getenv("CARVE_BENCH_WORKLOADS")) {
        setenv("CARVE_BENCH_WORKLOADS",
               "Lulesh,Euler,HPGMG,SSSP,XSBench,MCB,bfs-road,"
               "stream-triad", 1);
    }
    std::printf("%-14s %10s %10s %10s %10s\n", "workload",
                "NUMA-GPU", "CARVE-SWC", "CARVE-HWC", "CARVE-NoC");

    const auto workloads = benchWorkloads(ctx);
    const auto grid = runGrid(ctx,
                              {Preset::Ideal, Preset::NumaGpu,
                               Preset::CarveSwc, Preset::CarveHwc,
                               Preset::CarveNoCoherence},
                              workloads);

    std::vector<double> vb, vs, vh, vc;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const SimResult &ideal = grid[w][0];
        const SimResult &numa = grid[w][1];
        const SimResult &swc = grid[w][2];
        const SimResult &hwc = grid[w][3];
        const SimResult &noc = grid[w][4];
        const auto rel = [&](const SimResult &r) {
            return static_cast<double>(ideal.cycles) /
                static_cast<double>(r.cycles);
        };
        vb.push_back(rel(numa));
        vs.push_back(rel(swc));
        vh.push_back(rel(hwc));
        vc.push_back(rel(noc));
        std::printf("%-14s %10.2f %10.2f %10.2f %10.2f\n",
                    workloads[w].name.c_str(), vb.back(), vs.back(),
                    vh.back(), vc.back());
    }
    std::printf("%-14s %10.2f %10.2f %10.2f %10.2f\n", "geomean",
                geomean(vb), geomean(vs), geomean(vh), geomean(vc));
    std::printf("\n(values relative to ideal NUMA-GPU; 1.0 == "
                "ideal)\n");
    return 0;
}
