#include "replay.hh"

#include <deque>

#include "cache/mshr.hh"
#include "cache/tag_array.hh"
#include "coherence/imst.hh"
#include "common/domain_engine.hh"
#include "common/event_queue.hh"
#include "dramcache/alloy_cache.hh"
#include "interconnect/link.hh"
#include "measure.hh"
#include "mem/memory_controller.hh"
#include "numa/page_manager.hh"
#include "workloads/synthetic.hh"

namespace perfbench {

using namespace carve;

namespace {

/** Lines replayed per function: a few MiB of addresses, enough to
 * overflow the scaled L2 and to touch many pages. */
constexpr std::size_t max_lines = std::size_t{1} << 19;

/** The job's trace in issue order: every warp's instruction i before
 * any warp's instruction i + 1, which is how a fully occupied machine
 * interleaves them. */
struct LineStream
{
    std::vector<Addr> lines;
    std::vector<bool> writes;
    std::vector<std::uint16_t> gaps;  ///< compute cycles per inst
    std::uint64_t insts = 0;
};

template <class Visit>
void
forEachInstruction(const Workload &wl, std::uint64_t limit, Visit visit)
{
    WarpInstruction inst;
    std::uint64_t n = 0;
    for (KernelId k = 0; k < wl.numKernels(); ++k) {
        for (std::uint64_t i = 0; i < wl.instsPerWarp(k); ++i) {
            for (CtaId c = 0; c < wl.numCtas(k); ++c) {
                for (WarpId w = 0; w < wl.warpsPerCta(); ++w) {
                    if (n++ == limit)
                        return;
                    wl.instruction(k, c, w, i, inst);
                    visit(inst);
                }
            }
        }
    }
}

LineStream
collect(const Workload &wl)
{
    LineStream s;
    forEachInstruction(wl, UINT64_MAX, [&](const WarpInstruction &in) {
        if (s.lines.size() >= max_lines)
            return;
        ++s.insts;
        s.gaps.push_back(in.compute_cycles);
        for (unsigned l = 0; l < in.num_lines; ++l) {
            s.lines.push_back(in.lines[l]);
            s.writes.push_back(in.type == AccessType::Write);
        }
    });
    return s;
}

/** Run @p pass (which returns the calls it made) until @p min_seconds
 * have elapsed; host ns per call. */
template <class Pass>
double
timePerCall(double min_seconds, Pass pass)
{
    std::uint64_t calls = 0;
    const double start = nowSeconds();
    double elapsed = 0.0;
    do {
        calls += pass();
        elapsed = nowSeconds() - start;
    } while (elapsed < min_seconds);
    return calls ? elapsed * 1e9 / static_cast<double>(calls) : 0.0;
}

/** Self-rescheduling event whose delays are the trace's compute gaps. */
struct GapActor
{
    EventQueue *eq = nullptr;
    const std::vector<std::uint16_t> *gaps = nullptr;
    std::size_t next = 0;

    void
    fire()
    {
        const Cycle delay = 1 + (*gaps)[next];
        next = next + 1 == gaps->size() ? 0 : next + 1;
        eq->scheduleAfter(delay, bindEvent<&GapActor::fire>(this));
    }
};

void
noop(void *, std::uint64_t, std::uint64_t)
{
}

volatile std::uint64_t replay_sink = 0;

} // namespace

const std::vector<std::string> &
layerFunctions()
{
    static const std::vector<std::string> fns = {
        "workloads.instruction", "common.event_queue",
        "cache.tag_array",       "cache.mshr",
        "dramcache.alloy",       "mem.controller",
        "interconnect.link",     "coherence.imst",
        "numa.page_manager.route"};
    return fns;
}

std::map<std::string, double>
replayLayers(const SimJob &job, double min_seconds)
{
    const SystemConfig &cfg = job.config;
    const SyntheticWorkload trace(job.workload, cfg.line_size,
                                  job.options.seed);
    const LineStream s = collect(trace);
    const std::size_t n = s.lines.size();
    std::map<std::string, double> ns;

    std::uint64_t sink = 0;
    ns["workloads.instruction"] = timePerCall(min_seconds, [&] {
        forEachInstruction(trace, s.insts, [&](const WarpInstruction &in) {
            sink += in.lines[0];
        });
        return s.insts;
    });

    // Event dispatch first: the DRAM and link replays subtract it.
    {
        EventQueue eq;
        std::vector<GapActor> actors(4096);
        for (std::size_t i = 0; i < actors.size(); ++i) {
            actors[i] = GapActor{&eq, &s.gaps, i % s.gaps.size()};
            eq.schedule(i % 64, bindEvent<&GapActor::fire>(&actors[i]));
        }
        ns["common.event_queue"] = timePerCall(min_seconds, [&] {
            return eq.run(n);
        });
    }
    const double event_ns = ns["common.event_queue"];

    {
        TagArray tags(cfg.l2.size, cfg.l2.ways, cfg.line_size);
        ns["cache.tag_array"] = timePerCall(min_seconds, [&] {
            for (const Addr a : s.lines) {
                if (tags.lookup(a) == TagArray::no_line)
                    tags.insert(a, false);
            }
            return n;
        });
    }
    {
        MshrFile mshrs(cfg.l2.mshrs);
        std::deque<Addr> inflight;
        const Completion done(&noop, nullptr);
        ns["cache.mshr"] = timePerCall(min_seconds, [&] {
            for (const Addr a : s.lines) {
                if (mshrs.full()) {
                    mshrs.complete(inflight.front());
                    inflight.pop_front();
                }
                const Addr line = a - a % cfg.line_size;
                if (mshrs.allocate(line, done) == MshrOutcome::NewEntry)
                    inflight.push_back(line);
            }
            for (; !inflight.empty(); inflight.pop_front())
                mshrs.complete(inflight.front());
            return n;
        });
    }
    {
        AlloyCache alloy(cfg.rdc.size, cfg.line_size);
        ns["dramcache.alloy"] = timePerCall(min_seconds, [&] {
            for (const Addr a : s.lines) {
                if (alloy.lookup(a, 0) != RdcLookup::Hit)
                    alloy.insert(a, 0);
            }
            return n;
        });
    }
    {
        EventQueue eq;
        MemoryController mc(eq, cfg);
        const Completion done(&noop, nullptr);
        constexpr std::size_t batch = 256;
        std::uint64_t events = 0;
        const double gross = timePerCall(min_seconds, [&] {
            for (std::size_t i = 0; i < n; i += batch) {
                for (std::size_t j = i; j < std::min(n, i + batch); ++j) {
                    mc.access(s.lines[j] % cfg.dram.capacity,
                              s.writes[j] ? AccessType::Write
                                          : AccessType::Read,
                              done);
                }
                events += eq.run();
            }
            return n;
        });
        const double calls = static_cast<double>(mc.reads() + mc.writes());
        ns["mem.controller"] =
            gross - event_ns * static_cast<double>(events) / calls;
    }
    {
        DomainEngine engine(1, DomainEngine::lookaheadWindow(cfg),
                            SimEngine::Serial, 1);
        Link link(engine, 0, "replay", cfg.link.gpu_gpu_bw,
                  cfg.link.latency);
        constexpr std::size_t batch = 256;
        const double gross = timePerCall(min_seconds, [&] {
            for (std::size_t i = 0; i < n; i += batch) {
                for (std::size_t j = i; j < std::min(n, i + batch); ++j) {
                    link.send(s.writes[j] ? cfg.line_size + 16
                                          : cfg.link.ctrl_packet_size,
                              EventFn([] {}));
                }
                engine.run(DomainEngine::Hooks{});
            }
            return n;
        });
        ns["interconnect.link"] =
            gross - event_ns * static_cast<double>(engine.eventsExecuted()) /
                static_cast<double>(link.packets());
    }
    {
        Imst imst(0);
        bool invalidate = false;
        ns["coherence.imst"] = timePerCall(min_seconds, [&] {
            for (std::size_t i = 0; i < n; ++i) {
                imst.onAccess(s.lines[i],
                              static_cast<NodeId>(i % cfg.num_gpus),
                              s.writes[i] ? AccessType::Write
                                          : AccessType::Read,
                              invalidate);
            }
            return n;
        });
        sink += invalidate;
    }
    {
        PageManager pages(cfg, true, false);
        Cycle tick = 0;
        ns["numa.page_manager.route"] = timePerCall(min_seconds, [&] {
            for (std::size_t i = 0; i < n; ++i) {
                // Blocks of consecutive accesses per GPU, one window
                // of simulated time per 4096 accesses.
                const auto node =
                    static_cast<NodeId>((i / 64) % cfg.num_gpus);
                const AccessType t =
                    s.writes[i] ? AccessType::Write : AccessType::Read;
                pages.recordAccess(s.lines[i], node, t, tick);
                sink += pages.route(s.lines[i], node, t, tick);
                if (i % 4096 == 4095) {
                    tick += DomainEngine::lookaheadWindow(cfg);
                    pages.commitWindow(tick);
                }
            }
            return n;
        });
    }
    // Keep the replays' results observable so none is optimised away.
    replay_sink = sink;
    return ns;
}

std::map<std::string, double>
layerCalls(const SimResult &r)
{
    std::map<std::string, double> c;
    c["workloads.instruction"] = statValue(r, "sim.insts_issued");
    c["common.event_queue"] = statValue(r, "sim.events");
    c["cache.tag_array"] =
        sumStats(r, "gpu", ".l2.probes") + sumStats(r, "gpu", ".l1.probes");
    c["cache.mshr"] = sumStats(r, "gpu", ".l1.misses") +
        sumStats(r, "gpu", ".l2.misses") +
        sumStats(r, "gpu", ".rdc.read_misses");
    c["dramcache.alloy"] = sumStats(r, "gpu", ".rdc.alloy.probes");
    c["mem.controller"] =
        sumStats(r, "gpu", ".mem.reads") + sumStats(r, "gpu", ".mem.writes");
    c["interconnect.link"] = sumStats(r, "link.", ".packets");
    // The IMST sees every access at a home memory when hardware
    // coherence is on: local reads/writes plus remote ones serviced.
    c["coherence.imst"] = hasStat(r, "coherence.invalidates_sent")
        ? sumStats(r, "gpu", ".traffic.local_reads") +
            sumStats(r, "gpu", ".traffic.local_writes") +
            sumStats(r, "gpu", ".remote_serviced_reads") +
            sumStats(r, "gpu", ".remote_serviced_writes")
        : 0.0;
    // Every post-LLC access is routed once.
    double routed = 0.0;
    for (const char *t : {".traffic.local_reads", ".traffic.remote_reads",
                          ".traffic.rdc_hit_reads", ".traffic.cpu_reads",
                          ".traffic.local_writes", ".traffic.remote_writes",
                          ".traffic.rdc_hit_writes", ".traffic.cpu_writes"})
        routed += sumStats(r, "gpu", t);
    c["numa.page_manager.route"] = routed;
    return c;
}

} // namespace perfbench
