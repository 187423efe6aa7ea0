#include "harness/spec_key.hh"

#include <cstdio>

namespace carve {
namespace harness {

namespace {

json::Value
regionToJson(const RegionSpec &r)
{
    json::Value o{json::Members{}};
    o.set("kind", regionKindName(r.kind));
    o.set("bytes", r.bytes);
    o.set("access_frac", r.access_frac);
    o.set("write_frac", r.write_frac);
    o.set("zipf", r.zipf);
    o.set("lanes", static_cast<unsigned>(r.lanes));
    o.set("neighbor_frac", r.neighbor_frac);
    return o;
}

} // namespace

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;  // FNV prime
    }
    return h;
}

std::string
hexKey(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

json::Value
workloadToJson(const WorkloadParams &w)
{
    json::Value o{json::Members{}};
    o.set("name", w.name);
    o.set("kernels", w.kernels);
    o.set("ctas", w.ctas);
    o.set("warps_per_cta", w.warps_per_cta);
    o.set("insts_per_warp", w.insts_per_warp);
    o.set("compute_min", static_cast<unsigned>(w.compute_min));
    o.set("compute_max", static_cast<unsigned>(w.compute_max));
    o.set("iterative", w.iterative);
    json::Value regions{json::Array{}};
    for (const RegionSpec &r : w.regions)
        regions.push(regionToJson(r));
    o.set("regions", std::move(regions));
    return o;
}

json::Value
configToJson(const SystemConfig &config)
{
    json::Value o{json::Members{}};
    for (const ConfigOverride &ov : config.canonicalOverrides())
        o.set(ov.key, ov.value);
    return o;
}

std::string
specKey(const RunSpec &spec)
{
    const RunOptions &ro = spec.opts;
    json::Value opts{json::Members{}};
    opts.set("seed", ro.seed);
    opts.set("max_cycles", ro.max_cycles);
    opts.set("max_wall_seconds", ro.max_wall_seconds);
    opts.set("tolerate_watchdog", ro.tolerate_watchdog);
    opts.set("profile_lines", ro.profile_lines);
    opts.set("audit", ro.audit);
    opts.set("host_stats", spec.host_stats);
    opts.set("engine", ro.engine ? json::Value{simEngineName(*ro.engine)}
                                 : json::Value{});
    opts.set("sim_threads", ro.sim_threads ? json::Value{*ro.sim_threads}
                                           : json::Value{});

    json::Value telemetry{json::Members{}};
    telemetry.set("enabled", ro.telemetry.enabled);
    telemetry.set("host_timing", ro.telemetry.host_timing);
    opts.set("telemetry", std::move(telemetry));

    json::Value trace{json::Members{}};
    trace.set("enabled", ro.trace.enabled);
    trace.set("categories", ro.trace.categories);
    trace.set("buffer_capacity",
              static_cast<std::uint64_t>(ro.trace.buffer_capacity));
    trace.set("sample_interval", ro.trace.sample_interval);
    trace.set("out_path", ro.trace.out_path);
    trace.set("out_dir", ro.trace.out_dir);
    opts.set("trace", std::move(trace));

    json::Value o{json::Members{}};
    o.set("preset", presetName(spec.preset));
    o.set("workload", workloadToJson(spec.workload));
    o.set("config", configToJson(spec.base));
    o.set("options", std::move(opts));
    return hexKey(fnv1a64(o.dump(0)));
}

} // namespace harness
} // namespace carve
