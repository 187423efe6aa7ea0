/** @file Tests for the experiment harness: JSON model, parallel
 * sweep determinism, per-run failure isolation, watchdog surfacing,
 * and the baseline regression gate. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>

#include "common/logging.hh"
#include "harness/json.hh"
#include "harness/results_io.hh"
#include "harness/sweep.hh"
#include "harness/thread_pool.hh"
#include "sim_test_util.hh"

namespace carve {
namespace harness {
namespace {

using test::miniConfig;
using test::miniWorkload;

class HarnessTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogQuiet(true); }
    void TearDown() override { setLogQuiet(false); }
};

RunSpec
miniSpec(Preset preset, const std::string &name,
         std::uint64_t seed = 1)
{
    RunSpec s;
    s.preset = preset;
    s.workload = miniWorkload(RegionKind::SharedStream, 0.1);
    s.workload.name = name;
    s.base = miniConfig();
    s.opts.seed = seed;
    s.opts.max_cycles = 50'000'000;
    // Byte-compare tests below need results that are a pure function
    // of the specs; host wall/RSS stats would differ per execution.
    s.host_stats = false;
    return s;
}

std::vector<RunSpec>
miniGrid()
{
    std::vector<RunSpec> specs;
    for (const Preset p :
         {Preset::SingleGpu, Preset::NumaGpu, Preset::CarveHwc}) {
        for (const std::uint64_t seed : {1ull, 7ull})
            specs.push_back(miniSpec(p, "wl", seed));
    }
    return specs;
}

// ---- json ----------------------------------------------------------

TEST_F(HarnessTest, JsonRoundTrip)
{
    json::Value o{json::Members{}};
    o.set("str", "a \"quoted\"\nline");
    o.set("int", std::int64_t{-42});
    o.set("big", std::uint64_t{1} << 53);
    o.set("dbl", 0.1);
    o.set("flag", true);
    o.set("nothing", nullptr);
    json::Value arr{json::Array{}};
    arr.push(1);
    arr.push(2.5);
    o.set("arr", std::move(arr));

    const std::string text = o.dump();
    const json::Value back = json::parse(text, "test");
    EXPECT_EQ(back.at("str").asString(), "a \"quoted\"\nline");
    EXPECT_EQ(back.at("int").asInt(), -42);
    EXPECT_EQ(back.at("big").asInt(), std::int64_t{1} << 53);
    EXPECT_DOUBLE_EQ(back.at("dbl").asDouble(), 0.1);
    EXPECT_TRUE(back.at("flag").asBool());
    EXPECT_TRUE(back.at("nothing").isNull());
    EXPECT_EQ(back.at("arr").asArray().size(), 2u);
    // Deterministic serialisation: dump(parse(dump(x))) == dump(x).
    EXPECT_EQ(back.dump(), text);
}

TEST_F(HarnessTest, JsonParseErrorsAreCatchable)
{
    ScopedErrorCapture capture;
    EXPECT_THROW(json::parse("{\"a\": }", "bad"), SimAbortError);
    EXPECT_THROW(json::parse("[1, 2", "bad"), SimAbortError);
    EXPECT_THROW(json::parse("true false", "bad"), SimAbortError);
}

TEST_F(HarnessTest, PresetNameParsing)
{
    EXPECT_EQ(parsePresetName("CARVE-HWC"), Preset::CarveHwc);
    EXPECT_EQ(parsePresetName("carvehwc"), Preset::CarveHwc);
    EXPECT_EQ(parsePresetName("carve"), Preset::CarveHwc);
    EXPECT_EQ(parsePresetName("1-GPU"), Preset::SingleGpu);
    EXPECT_EQ(parsePresetName("Ideal-NUMA-GPU"), Preset::Ideal);
    ScopedErrorCapture capture;
    EXPECT_THROW(parsePresetName("nonsense"), SimAbortError);
}

// ---- thread pool ---------------------------------------------------

TEST_F(HarnessTest, ParallelForCoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    parallelFor(hits.size(), 4,
                [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

// ---- sweep determinism (satellite a) -------------------------------

TEST_F(HarnessTest, SerialAndParallelSweepsProduceIdenticalJson)
{
    const std::vector<RunSpec> specs = miniGrid();

    SweepOptions serial;
    serial.threads = 1;
    SweepOptions parallel;
    parallel.threads = 4;

    const auto r1 = runSweep(specs, serial);
    const auto r4 = runSweep(specs, parallel);
    ASSERT_EQ(r1.size(), specs.size());
    ASSERT_EQ(r4.size(), specs.size());

    SweepMeta meta;
    meta.git_version = "test";  // pin so the docs are comparable
    const std::string j1 = sweepToJson(meta, r1).dump();
    const std::string j4 = sweepToJson(meta, r4).dump();
    EXPECT_EQ(j1, j4) << "parallel sweep must serialise "
                         "byte-identically to serial";

    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(r1[i].key(), specs[i].key())
            << "results must keep spec order";
        EXPECT_EQ(r1[i].status, RunStatus::Ok);
        EXPECT_GT(r1[i].sim.cycles, 0u);
    }
}

// ---- dedup ---------------------------------------------------------

/** What runSweep reported about one sweep besides its results. */
struct SweepRecord
{
    std::vector<RunResult> results;
    std::uint64_t jobs_run = 0;  ///< summed over workers
    std::uint64_t job_samples = 0;
    std::vector<std::pair<std::size_t, std::size_t>> progress;
};

SweepRecord
recordSweep(const std::vector<RunSpec> &specs, unsigned threads)
{
    SweepRecord rec;
    SweepTelemetry tel;
    std::mutex mu;
    SweepOptions opt;
    opt.threads = threads;
    opt.telemetry = &tel;
    opt.on_progress = [&](std::size_t done, std::size_t total,
                          const RunResult &) {
        const std::lock_guard<std::mutex> lock(mu);
        rec.progress.emplace_back(done, total);
    };
    rec.results = runSweep(specs, opt);
    for (const SweepTelemetry::Worker &w : tel.workers)
        rec.jobs_run += w.jobs_run;
    rec.job_samples = tel.job_wall_us.count();
    return rec;
}

TEST_F(HarnessTest, DuplicateSpecsAreSimulatedOnce)
{
    const RunSpec a = miniSpec(Preset::SingleGpu, "wl");
    const RunSpec b = miniSpec(Preset::NumaGpu, "wl");
    const RunSpec c = miniSpec(Preset::CarveHwc, "wl");
    const std::vector<RunSpec> specs = {a, b, a, c, b, a};

    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const SweepRecord rec = recordSweep(specs, threads);
        ASSERT_EQ(rec.results.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(resultToJson(rec.results[i]).dump(),
                      resultToJson(executeRun(specs[i])).dump())
                << "spec " << i << " must equal running it alone";
        }
        EXPECT_EQ(rec.jobs_run, 3u)
            << "one simulation per distinct spec";
        EXPECT_EQ(rec.job_samples, 3u);

        ASSERT_EQ(rec.progress.size(), specs.size());
        std::vector<std::size_t> done;
        for (const auto &[d, total] : rec.progress) {
            EXPECT_EQ(total, specs.size());
            done.push_back(d);
        }
        std::sort(done.begin(), done.end());
        for (std::size_t i = 0; i < done.size(); ++i)
            EXPECT_EQ(done[i], i + 1);
        if (threads == 1) {
            EXPECT_EQ(rec.progress.back().first, specs.size());
        }
    }
}

TEST_F(HarnessTest, DuplicateOfAFailedSpecFailsTheSameWay)
{
    RunSpec bad = miniSpec(Preset::CarveHwc, "bad");
    bad.base.line_size = 100;  // not a power of two -> validate() fatals
    const RunSpec good = miniSpec(Preset::NumaGpu, "wl");
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const SweepRecord rec = recordSweep({bad, good, bad}, threads);
        ASSERT_EQ(rec.results.size(), 3u);
        EXPECT_EQ(rec.results[0].status, RunStatus::Failed);
        EXPECT_EQ(rec.results[2].status, RunStatus::Failed);
        EXPECT_FALSE(rec.results[0].error.empty());
        EXPECT_EQ(rec.results[2].error, rec.results[0].error);
        EXPECT_EQ(rec.results[1].status, RunStatus::Ok);
        EXPECT_EQ(rec.jobs_run, 2u);
    }
}

TEST_F(HarnessTest, SpecsDifferingInOneResultFieldDoNotMerge)
{
    const RunSpec base = miniSpec(Preset::CarveHwc, "wl");
    std::vector<std::pair<std::string, RunSpec>> variants;
    {
        RunSpec v = base;
        v.base.applyOverride("link.gpu_gpu_bw", "32");
        variants.emplace_back("link.gpu_gpu_bw", v);
    }
    {
        RunSpec v = base;
        v.opts.telemetry.enabled = true;
        variants.emplace_back("telemetry.enabled", v);
    }
    {
        RunSpec v = base;
        v.opts.trace.enabled = true;  // in memory: no file written
        variants.emplace_back("trace", v);
    }
    {
        RunSpec v = base;
        v.host_stats = true;
        variants.emplace_back("host_stats", v);
    }
    for (const auto &[what, v] : variants) {
        SCOPED_TRACE(what);
        ASSERT_EQ(v.key(), base.key()) << "same display key";
        const SweepRecord rec = recordSweep({base, v}, 1);
        EXPECT_EQ(rec.jobs_run, 2u) << "must simulate both specs";
        EXPECT_EQ(rec.results[0].status, RunStatus::Ok);
        EXPECT_EQ(rec.results[1].status, RunStatus::Ok);
    }
}

// ---- failure isolation (satellite b) -------------------------------

TEST_F(HarnessTest, PanickingRunIsIsolatedAndSiblingsComplete)
{
    std::vector<RunSpec> specs = miniGrid();
    // Inject a run whose configuration fails validation deep inside
    // MultiGpuSystem construction: fatal() must become a Failed
    // result, not process death.
    RunSpec bad = miniSpec(Preset::CarveHwc, "bad");
    bad.base.line_size = 100;  // not a power of two -> validate() fatals
    specs.insert(specs.begin() + 2, bad);

    SweepOptions opt;
    opt.threads = 4;
    const auto results = runSweep(specs, opt);
    ASSERT_EQ(results.size(), specs.size());

    EXPECT_EQ(results[2].status, RunStatus::Failed);
    EXPECT_FALSE(results[2].error.empty());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 2)
            continue;
        EXPECT_EQ(results[i].status, RunStatus::Ok)
            << "sibling run " << i << " must be unaffected";
        EXPECT_GT(results[i].sim.cycles, 0u);
    }
}

TEST_F(HarnessTest, WatchdogTripIsSurfacedNotFatal)
{
    RunSpec spec = miniSpec(Preset::NumaGpu, "slow");
    spec.opts.max_cycles = 200;  // far too few to finish
    const RunResult r = executeRun(spec);
    EXPECT_EQ(r.status, RunStatus::Watchdog);
    EXPECT_TRUE(r.sim.watchdog_tripped);
    EXPECT_FALSE(r.error.empty());
}

// ---- baseline compare (satellite c) --------------------------------

std::vector<RunResult>
syntheticResults()
{
    std::vector<RunResult> out;
    for (int i = 0; i < 3; ++i) {
        RunResult r;
        r.preset = "CARVE-HWC";
        r.workload = "wl" + std::to_string(i);
        r.seed = 1;
        r.status = RunStatus::Ok;
        r.sim.cycles = 100'000 + 10'000 * i;
        r.sim.warp_insts = 1'000'000;
        out.push_back(std::move(r));
    }
    return out;
}

TEST_F(HarnessTest, BaselineCompareFlagsRegressionBeyondTolerance)
{
    const auto base = syntheticResults();
    auto cand = base;
    // 10% slowdown on one run: must gate at 5% tolerance.
    cand[1].sim.cycles =
        static_cast<Cycle>(cand[1].sim.cycles * 1.10);

    const CompareReport rep = compareResults(base, cand, 0.05);
    EXPECT_TRUE(rep.hasRegression());
    ASSERT_FALSE(rep.deltas.empty());
    EXPECT_TRUE(rep.deltas.front().regression);
    EXPECT_EQ(rep.deltas.front().key, "CARVE-HWC/wl1/s1");
    EXPECT_EQ(rep.compared_runs, 3u);
}

TEST_F(HarnessTest, BaselineComparePassesWithinTolerance)
{
    const auto base = syntheticResults();
    auto cand = base;
    // 3% movement stays under a 5% gate.
    cand[0].sim.cycles =
        static_cast<Cycle>(cand[0].sim.cycles * 1.03);

    const CompareReport rep = compareResults(base, cand, 0.05);
    EXPECT_FALSE(rep.hasRegression());
    EXPECT_EQ(rep.compared_runs, 3u);
}

TEST_F(HarnessTest, BaselineCompareFlagsImprovementWithoutGating)
{
    const auto base = syntheticResults();
    auto cand = base;
    cand[0].sim.cycles =
        static_cast<Cycle>(cand[0].sim.cycles * 0.80);

    const CompareReport rep = compareResults(base, cand, 0.05);
    EXPECT_FALSE(rep.hasRegression());
    bool saw_improvement = false;
    for (const auto &d : rep.deltas)
        saw_improvement |= !d.regression;
    EXPECT_TRUE(saw_improvement);
}

TEST_F(HarnessTest, BaselineCompareNamesRegressedStats)
{
    auto base = syntheticResults();
    // Give every run a small stat tree so the comparison has
    // something to diff.
    for (auto &r : base) {
        r.sim.stat_tree = {
            {"gpu0.l2.hits", true, 1000, 0.0},
            {"gpu0.l2.misses", true, 100, 0.0},
            {"numa.migrations", true, 50, 0.0},
        };
    }
    auto cand = base;
    // Slow one run down 10% and double its L2 misses: the report
    // must gate on cycles AND name the miss counter with baseline vs
    // observed values.
    cand[1].sim.cycles =
        static_cast<Cycle>(cand[1].sim.cycles * 1.10);
    cand[1].sim.stat_tree[1].u64 = 200;

    const CompareReport rep = compareResults(base, cand, 0.05);
    EXPECT_TRUE(rep.hasRegression());

    const MetricDelta *stat = nullptr;
    for (const auto &d : rep.deltas)
        if (d.metric == "stat:gpu0.l2.misses")
            stat = &d;
    ASSERT_NE(stat, nullptr)
        << "compare must name the regressed stat";
    EXPECT_TRUE(stat->informational);
    EXPECT_FALSE(stat->regression) << "stat deltas never gate";
    EXPECT_DOUBLE_EQ(stat->baseline, 100.0);
    EXPECT_DOUBLE_EQ(stat->candidate, 200.0);

    // Unchanged stats stay silent.
    for (const auto &d : rep.deltas)
        EXPECT_NE(d.metric, "stat:numa.migrations");

    // The text report shows the stat with both values.
    const std::string text = formatCompareReport(rep, 0.05);
    EXPECT_NE(text.find("gpu0.l2.misses"), std::string::npos);
    EXPECT_NE(text.find("100"), std::string::npos);
    EXPECT_NE(text.find("200"), std::string::npos);
}

TEST_F(HarnessTest, BaselineCompareCapsStatSpam)
{
    auto base = syntheticResults();
    base.resize(1);
    for (int i = 0; i < 20; ++i) {
        base[0].sim.stat_tree.push_back(
            {"s" + std::to_string(i / 10) +
                 ".c" + std::to_string(i % 10),
             true, 100, 0.0});
    }
    std::sort(base[0].sim.stat_tree.begin(),
              base[0].sim.stat_tree.end(),
              [](const stats::FlatStat &a, const stats::FlatStat &b) {
                  return a.name < b.name;
              });
    auto cand = base;
    for (auto &f : cand[0].sim.stat_tree)
        f.u64 = 300;  // every stat triples

    const CompareReport rep = compareResults(base, cand, 0.05);
    unsigned stat_lines = 0;
    for (const auto &d : rep.deltas)
        stat_lines += d.informational;
    EXPECT_LE(stat_lines, 8u) << "per-run stat deltas are capped";
    EXPECT_EQ(stat_lines + rep.suppressed_stats, 20u);
    const std::string text = formatCompareReport(rep, 0.05);
    EXPECT_NE(text.find("not shown"), std::string::npos);
}

TEST_F(HarnessTest, BaselineCompareFlagsMissingAndFailedRuns)
{
    const auto base = syntheticResults();

    auto missing = base;
    missing.pop_back();
    EXPECT_TRUE(compareResults(base, missing, 0.05).hasRegression());

    auto failed = base;
    failed[0].status = RunStatus::Failed;
    EXPECT_TRUE(compareResults(base, failed, 0.05).hasRegression());
}

// ---- results file round trip ---------------------------------------

TEST_F(HarnessTest, ResultsSurviveJsonRoundTrip)
{
    RunSpec spec = miniSpec(Preset::CarveHwc, "round");
    const RunResult r = executeRun(spec);
    ASSERT_EQ(r.status, RunStatus::Ok);

    SweepMeta meta;
    meta.memory_scale = 4;
    meta.duration = 0.5;
    meta.git_version = "test";
    const json::Value doc = sweepToJson(meta, {r});
    const auto back =
        resultsFromJson(json::parse(doc.dump(), "roundtrip"));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].key(), r.key());
    EXPECT_EQ(back[0].sim.cycles, r.sim.cycles);
    EXPECT_EQ(back[0].sim.rdc_hits, r.sim.rdc_hits);
    EXPECT_DOUBLE_EQ(back[0].sim.frac_remote, r.sim.frac_remote);
    EXPECT_EQ(back[0].sim.traffic.remote_reads,
              r.sim.traffic.remote_reads);

    // Round-tripped results must compare clean against themselves.
    const CompareReport rep =
        compareResults({r}, back, 0.0);
    EXPECT_FALSE(rep.hasRegression());
}

TEST_F(HarnessTest, SchemaV2StatTreeSurvivesRoundTrip)
{
    RunSpec spec = miniSpec(Preset::CarveHwc, "v2");
    const RunResult r = executeRun(spec);
    ASSERT_EQ(r.status, RunStatus::Ok);
    ASSERT_FALSE(r.sim.stat_tree.empty());

    SweepMeta meta;
    meta.git_version = "test";
    const json::Value doc = sweepToJson(meta, {r});
    EXPECT_EQ(doc.at("schema").asString(), kResultsSchema);

    const auto back =
        resultsFromJson(json::parse(doc.dump(), "v2"));
    ASSERT_EQ(back.size(), 1u);
    const auto &bt = back[0].sim.stat_tree;
    ASSERT_EQ(bt.size(), r.sim.stat_tree.size());
    for (std::size_t i = 0; i < bt.size(); ++i) {
        const auto &orig = r.sim.stat_tree[i];
        EXPECT_EQ(bt[i].name, orig.name);
        EXPECT_EQ(bt[i].integral, orig.integral);
        if (orig.integral)
            EXPECT_EQ(bt[i].u64, orig.u64) << orig.name;
        else
            EXPECT_DOUBLE_EQ(bt[i].dbl, orig.dbl) << orig.name;
    }
}

TEST_F(HarnessTest, MalformedResultsDocumentsFailGracefully)
{
    ScopedErrorCapture capture;
    // Truncated document: the parser must throw, not crash.
    EXPECT_THROW(resultsFromJson(
                     json::parse("{\"runs\": [{\"preset\"", "t")),
                 SimAbortError);
    // No runs member at all.
    EXPECT_THROW(resultsFromJson(json::parse("{}", "t")),
                 SimAbortError);
    // runs is not an array.
    EXPECT_THROW(resultsFromJson(json::parse("{\"runs\": 3}", "t")),
                 SimAbortError);
    // A run record that is not an object.
    EXPECT_THROW(resultsFromJson(
                     json::parse("{\"runs\": [42]}", "t")),
                 SimAbortError);
    // A run record missing every identity member.
    EXPECT_THROW(resultsFromJson(
                     json::parse("{\"runs\": [{}]}", "t")),
                 SimAbortError);
    // Ill-typed stat members.
    EXPECT_THROW(
        resultsFromJson(json::parse(
            "{\"runs\": [{\"preset\":\"CARVE-HWC\","
            "\"workload\":\"w\",\"seed\":1,\"status\":\"ok\","
            "\"stats\":{\"cycles\":\"nope\"}}]}",
            "t")),
        SimAbortError);
    // stats present but not an object.
    EXPECT_THROW(
        resultsFromJson(json::parse(
            "{\"runs\": [{\"preset\":\"CARVE-HWC\","
            "\"workload\":\"w\",\"seed\":1,\"status\":\"ok\","
            "\"stats\":[]}]}",
            "t")),
        SimAbortError);
}

TEST_F(HarnessTest, MissingAndTruncatedResultsFilesFailGracefully)
{
    ScopedErrorCapture capture;
    EXPECT_THROW(
        readResultsFile(::testing::TempDir() +
                        "no-such-results-file.json"),
        SimAbortError);

    // A results file cut off mid-write must error, not crash or
    // silently gate nothing.
    SweepMeta meta;
    meta.git_version = "test";
    const std::string text =
        sweepToJson(meta, syntheticResults()).dump();
    const std::string path =
        ::testing::TempDir() + "truncated-results.json";
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text.substr(0, text.size() * 2 / 3);
    }
    EXPECT_THROW(resultsFromJson(readResultsFile(path)),
                 SimAbortError);
}

TEST_F(HarnessTest, V1FilesWithoutStatTreesStillParse)
{
    RunSpec spec = miniSpec(Preset::NumaGpu, "v1");
    RunResult r = executeRun(spec);
    ASSERT_EQ(r.status, RunStatus::Ok);
    r.sim.stat_tree.clear();  // what a v1 writer would have produced

    SweepMeta meta;
    meta.git_version = "test";
    std::string text = sweepToJson(meta, {r}).dump();
    const std::size_t at = text.find(kResultsSchema);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, std::string(kResultsSchema).size(),
                 kResultsSchemaV1);

    const std::string path = ::testing::TempDir() + "v1-results.json";
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text;
    }
    const auto back = resultsFromJson(readResultsFile(path));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].sim.cycles, r.sim.cycles);
    EXPECT_TRUE(back[0].sim.stat_tree.empty());
}

} // namespace
} // namespace harness
} // namespace carve
