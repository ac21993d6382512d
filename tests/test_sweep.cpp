/**
 * @file
 * Tests for the sweep engine: JSON round-trips, digest stability,
 * spec grid expansion, the on-disk result cache, and thread-pool
 * scheduling determinism.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>

#include "sweep/digest.hh"
#include "sweep/experiments.hh"
#include "sweep/json.hh"
#include "sweep/result_cache.hh"
#include "sweep/runner.hh"
#include "sweep/serialize.hh"
#include "sweep/spec.hh"
#include "sweep/thread_pool.hh"

namespace smt::sweep
{
namespace
{

namespace fs = std::filesystem;

/** Tiny budgets so a whole grid measures in well under a second. */
MeasureOptions
tinyOptions()
{
    MeasureOptions opts;
    opts.cyclesPerRun = 1200;
    opts.warmupCycles = 300;
    opts.runs = 2;
    return opts;
}

/** A scratch directory removed when the test ends. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_((fs::temp_directory_path()
                 / ("smtsweep_test_" + tag + "_"
                    + std::to_string(std::random_device{}())))
                    .string())
    {
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// ---- JSON ------------------------------------------------------------------

TEST(Json, RoundTripsNestedValues)
{
    Json obj = Json::object();
    obj.set("uint", Json(std::uint64_t{18446744073709551615ull}));
    obj.set("int", Json(std::int64_t{-42}));
    obj.set("double", Json(3.25));
    obj.set("bool", Json(true));
    obj.set("null", Json());
    obj.set("string", Json("line\nbreak \"quoted\" \\slash\t"));
    Json arr = Json::array();
    arr.push(Json(std::uint64_t{1}));
    arr.push(Json("two"));
    Json inner = Json::object();
    inner.set("empty_array", Json::array());
    inner.set("empty_object", Json::object());
    arr.push(std::move(inner));
    obj.set("array", std::move(arr));

    for (int indent : {-1, 2}) {
        Json parsed;
        ASSERT_TRUE(Json::parse(obj.dump(indent), parsed));
        EXPECT_TRUE(parsed == obj);
    }
    EXPECT_EQ(obj.at("uint").asUInt(), 18446744073709551615ull);
    EXPECT_EQ(obj.at("int").asInt(), -42);
}

TEST(Json, RejectsMalformedInput)
{
    Json out;
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "nul", "\"unterminated",
          "{\"a\":1} trailing", "--1",
          // Out-of-range numbers must be rejected, not clamped.
          "99999999999999999999", "-99999999999999999999", "1e999"})
        EXPECT_FALSE(Json::parse(bad, out)) << bad;
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    Json obj = Json::object();
    obj.set("z", Json(std::uint64_t{1}));
    obj.set("a", Json(std::uint64_t{2}));
    EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":2}");
    obj.set("z", Json(std::uint64_t{3})); // replaces in place.
    EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
}

// ---- SimStats serialization ------------------------------------------------

TEST(Serialize, SimStatsRoundTripsBitIdentically)
{
    const DataPoint measured =
        measure(presets::baseSmt(2), tinyOptions());

    SimStats restored;
    ASSERT_TRUE(simStatsFromJson(toJson(measured.stats), restored));
    // Field-exact: the canonical dumps must be byte-identical, which
    // covers every counter and the histogram's buckets/sum/samples.
    EXPECT_EQ(toJson(restored).dump(), toJson(measured.stats).dump());
    EXPECT_EQ(restored.cycles, measured.stats.cycles);
    EXPECT_EQ(restored.committedInstructions,
              measured.stats.committedInstructions);
    EXPECT_DOUBLE_EQ(restored.avgQueuePopulation(),
                     measured.stats.avgQueuePopulation());
}

TEST(Serialize, SimStatsFromJsonRejectsMissingFields)
{
    Json j = toJson(SimStats{});
    Json incomplete = Json::object();
    incomplete.set("cycles", Json(std::uint64_t{1}));
    SimStats out;
    EXPECT_FALSE(simStatsFromJson(incomplete, out));
    EXPECT_FALSE(simStatsFromJson(Json(std::uint64_t{7}), out));
    EXPECT_TRUE(simStatsFromJson(j, out));

    // A wrong-typed or wrong-shaped value (a stale or hand-edited
    // cache entry) must read as false, never abort the process.
    Json wrong_type = toJson(SimStats{});
    wrong_type.set("cycles", Json("not a number"));
    EXPECT_FALSE(simStatsFromJson(wrong_type, out));
    Json bad_nested = toJson(SimStats{});
    Json icache = Json::object();
    icache.set("accesses", Json(std::uint64_t{1}));
    bad_nested.set("icache", std::move(icache)); // missing counters.
    EXPECT_FALSE(simStatsFromJson(bad_nested, out));
}

// ---- Digests ---------------------------------------------------------------

TEST(Digest, IdenticalKeysDigestIdentically)
{
    const MeasureOptions opts = tinyOptions();
    const SmtConfig a = presets::icount28(4);
    const SmtConfig b = presets::icount28(4);
    EXPECT_EQ(measurementDigest(a, opts), measurementDigest(b, opts));
}

TEST(Digest, PaperGridDigestsArePinned)
{
    // Cache keys of three paper points. Every local and remote store
    // entry is addressed by these, so a refactor that changes how a
    // config serializes orphans them all: a change here must come with
    // a kDigestSchema bump and a re-recording.
    MeasureOptions opts;
    opts.cyclesPerRun = 1200;
    opts.warmupCycles = 300;
    opts.runs = 2;
    struct Pin
    {
        const char *experiment;
        const char *label;
        unsigned threads;
        const char *digest;
    };
    const Pin pins[] = {
        {"fig5", "2.8.ICOUNT", 4, "2f931bfb798ca16ed347626f86606495"},
        {"table5", "OPT_LAST", 8, "ad6310538942ed6e80fcc06aa640982d"},
        {"fig3", "unmodified superscalar", 1,
         "a5376445ad2f368086aa3e24e9525dee"},
    };
    for (const Pin &pin : pins) {
        const NamedExperiment *e = findExperiment(pin.experiment);
        ASSERT_NE(e, nullptr) << pin.experiment;
        unsigned found = 0;
        for (const SweepPoint &p : e->spec.expand(opts)) {
            if (p.label != pin.label || p.threads != pin.threads)
                continue;
            ++found;
            EXPECT_EQ(measurementDigest(p.config, p.options), pin.digest)
                << pin.experiment << " " << pin.label << " @"
                << pin.threads << "T";
        }
        EXPECT_EQ(found, 1u) << pin.experiment << " " << pin.label;
    }
}

TEST(Digest, AnyKnobChangeChangesTheDigest)
{
    const MeasureOptions opts = tinyOptions();
    const SmtConfig base = presets::baseSmt(4);
    const std::string base_digest = measurementDigest(base, opts);

    std::vector<SmtConfig> variants;
    for (const char *knob :
         {"numThreads", "fetchThreads", "fetchPerThread", "intQueueEntries",
          "iqSearchWindow", "excessRegisters", "totalPhysRegisters",
          "btbEntries", "phtEntries", "seed", "disambiguationBits"}) {
        SmtConfig cfg = base;
        applyKnob(cfg, {knob, Json(std::uint64_t{7})});
        variants.push_back(cfg);
    }
    for (const char *knob :
         {"itagEarlyLookup", "perfectBranchPrediction",
          "infiniteFunctionalUnits", "infiniteCacheBandwidth"}) {
        SmtConfig cfg = base;
        applyKnob(cfg, {knob, Json(true)});
        variants.push_back(cfg);
    }
    {
        SmtConfig cfg = base;
        cfg.fetchPolicy = FetchPolicy::ICount;
        variants.push_back(cfg);
        cfg = base;
        cfg.issuePolicy = IssuePolicy::OptLast;
        variants.push_back(cfg);
        cfg = base;
        cfg.l2.sizeBytes *= 2;
        variants.push_back(cfg);
    }

    std::vector<std::string> digests = {base_digest};
    for (const SmtConfig &cfg : variants) {
        const std::string d = measurementDigest(cfg, opts);
        for (const std::string &seen : digests)
            EXPECT_NE(d, seen);
        digests.push_back(d);
    }

    // Measurement knobs are part of the key too...
    MeasureOptions more_cycles = opts;
    more_cycles.cyclesPerRun += 1;
    EXPECT_NE(measurementDigest(base, more_cycles), base_digest);
    MeasureOptions more_runs = opts;
    more_runs.runs += 1;
    EXPECT_NE(measurementDigest(base, more_runs), base_digest);
    // ...but the execution strategy is not (parallel == serial).
    MeasureOptions serial = opts;
    serial.parallel = !opts.parallel;
    EXPECT_EQ(measurementDigest(base, serial), base_digest);
}

// ---- Spec expansion --------------------------------------------------------

TEST(Spec, Fig5GridExpandsToTheFullCartesianProduct)
{
    const NamedExperiment *fig5 = findExperiment("fig5");
    ASSERT_NE(fig5, nullptr);
    const std::vector<SweepPoint> points =
        fig5->spec.expand(tinyOptions());
    // 2 partitionings x 5 policies x 4 thread counts.
    ASSERT_EQ(points.size(), 40u);

    // Thread counts innermost, axes outermost-first.
    EXPECT_EQ(points[0].label, "1.8.RR");
    EXPECT_EQ(points[0].threads, 2u);
    EXPECT_EQ(points[3].threads, 8u);
    EXPECT_EQ(points[4].label, "1.8.BRCOUNT");

    // The 2.8/ICOUNT/4T point carries exactly the expected machine.
    const SweepPoint &p = points[1 * 5 * 4 + 3 * 4 + 1];
    EXPECT_EQ(p.label, "2.8.ICOUNT");
    EXPECT_EQ(p.threads, 4u);
    EXPECT_EQ(p.config.numThreads, 4u);
    EXPECT_EQ(p.config.fetchThreads, 2u);
    EXPECT_EQ(p.config.fetchPerThread, 8u);
    EXPECT_EQ(p.config.fetchPolicy, FetchPolicy::ICount);
    EXPECT_EQ(p.config.fetchSchemeName(), "ICOUNT.2.8");
    EXPECT_EQ(p.options.cyclesPerRun, tinyOptions().cyclesPerRun);
    p.config.validate();
}

TEST(Spec, ThreadCountOverridePinsReferencePoints)
{
    const NamedExperiment *fig3 = findExperiment("fig3");
    ASSERT_NE(fig3, nullptr);
    const std::vector<SweepPoint> points =
        fig3->spec.expand(tinyOptions());
    // 5 SMT thread counts + 1 single-thread superscalar point.
    ASSERT_EQ(points.size(), 6u);
    const SweepPoint &superscalar = points.back();
    EXPECT_EQ(superscalar.threads, 1u);
    EXPECT_FALSE(superscalar.config.longRegisterPipeline);
}

TEST(Spec, EveryNamedExperimentExpandsToValidConfigs)
{
    for (const NamedExperiment &e : allExperiments()) {
        const std::vector<SweepPoint> points =
            e.spec.expand(tinyOptions());
        EXPECT_FALSE(points.empty()) << e.spec.name;
        EXPECT_EQ(points.size(), e.spec.gridSize()) << e.spec.name;
        for (const SweepPoint &p : points)
            p.config.validate();
        EXPECT_FALSE(e.spec.describe().dump().empty());
    }
}

TEST(Spec, UnknownKnobsAreFatal)
{
    // Re-exec instead of forking: other tests may have started the
    // global thread pool, and forked children must not inherit it.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    SmtConfig cfg;
    EXPECT_DEATH(applyKnob(cfg, {"no_such_knob", Json(std::uint64_t{1})}),
                 "unknown config knob");
    // A policy name no policy answers to dies at expansion, before a
    // digest is computed or a store marker written; the message lists
    // the accepted names.
    EXPECT_DEATH(applyKnob(cfg, {"fetchPolicy", Json("NOPE")}),
                 "unknown fetch policy \"NOPE\" \\(RR, BRCOUNT, MISSCOUNT, "
                 "ICOUNT, IQPOSN, ICOUNT\\+MISSCOUNT\\)");
    EXPECT_DEATH(applyKnob(cfg, {"issuePolicy", Json("icount")}),
                 "unknown issue policy \"icount\" \\(OLDEST_FIRST, "
                 "OPT_LAST, SPEC_LAST, BRANCH_FIRST\\)");
}

// ---- Thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(3);
    std::atomic<int> sum{0};
    std::vector<std::future<int>> futures;
    for (int i = 1; i <= 100; ++i)
        futures.push_back(pool.submit([i, &sum] {
            sum += i;
            return i * 2;
        }));
    long long doubled = 0;
    for (auto &f : futures)
        doubled += pool.wait(std::move(f));
    EXPECT_EQ(sum.load(), 5050);
    EXPECT_EQ(doubled, 2 * 5050);
}

TEST(ThreadPool, WaitersHelpSoNestedSubmissionCannotDeadlock)
{
    // One worker; the outer task submits and awaits inner tasks. With
    // a non-helping wait this deadlocks (worker blocked on children
    // that can never be scheduled).
    ThreadPool pool(1);
    auto outer = pool.submit([&pool] {
        std::vector<std::future<int>> inner;
        for (int i = 0; i < 4; ++i)
            inner.push_back(pool.submit([i] { return i; }));
        int total = 0;
        for (auto &f : inner)
            total += pool.wait(std::move(f));
        return total;
    });
    EXPECT_EQ(pool.wait(std::move(outer)), 6);
}

TEST(ThreadPool, ParallelMeasurementMatchesSerialBitForBit)
{
    MeasureOptions parallel_opts = tinyOptions();
    parallel_opts.runs = 4;
    parallel_opts.parallel = true;
    MeasureOptions serial_opts = parallel_opts;
    serial_opts.parallel = false;

    const SmtConfig cfg = presets::icount28(2);
    const DataPoint p = measure(cfg, parallel_opts);
    const DataPoint s = measure(cfg, serial_opts);
    EXPECT_EQ(toJson(p.stats).dump(), toJson(s.stats).dump());
}

// ---- Result cache ----------------------------------------------------------

TEST(ResultCache, HitReplaysStoredStatsBitIdentically)
{
    TempDir dir("cache");
    ResultCache cache(dir.path());

    const SmtConfig cfg = presets::baseSmt(2);
    const MeasureOptions opts = tinyOptions();
    const std::string digest = measurementDigest(cfg, opts);
    EXPECT_FALSE(cache.lookup(digest).has_value());

    const DataPoint measured = measure(cfg, opts);
    cache.store(digest, cfg, opts, measured.stats);
    EXPECT_EQ(cache.entryCount(), 1u);

    const std::optional<SimStats> hit = cache.lookup(digest);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(toJson(*hit).dump(), toJson(measured.stats).dump());
}

TEST(ResultCache, CorruptEntriesAreMisses)
{
    TempDir dir("corrupt");
    ResultCache cache(dir.path());
    const std::string digest(32, 'a');
    {
        std::FILE *f = std::fopen(
            (dir.path() + "/" + digest + ".json").c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"digest\": \"truncated", f);
        std::fclose(f);
    }
    EXPECT_FALSE(cache.lookup(digest).has_value());
}

// ---- Runner ----------------------------------------------------------------

TEST(Runner, SecondSweepIsAllCacheHitsAndBitIdentical)
{
    TempDir dir("runner");
    const NamedExperiment *smoke = findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);

    RunnerOptions ropts;
    ropts.measure = tinyOptions();
    ropts.cacheDir = dir.path();

    const SweepOutcome cold = runSweep(smoke->spec, ropts);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, cold.points.size());

    ropts.requireCached = true; // would abort on any miss.
    const SweepOutcome warm = runSweep(smoke->spec, ropts);
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(warm.cacheHits, warm.points.size());

    ASSERT_EQ(cold.points.size(), warm.points.size());
    for (std::size_t i = 0; i < cold.points.size(); ++i) {
        EXPECT_EQ(cold.points[i].digest, warm.points[i].digest);
        EXPECT_EQ(toJson(cold.points[i].data.stats).dump(),
                  toJson(warm.points[i].data.stats).dump());
    }
}

TEST(Runner, ParallelAndSerialSweepsAgreeBitForBit)
{
    const NamedExperiment *smoke = findExperiment("smoke");
    ASSERT_NE(smoke, nullptr);

    RunnerOptions parallel_opts;
    parallel_opts.measure = tinyOptions();
    RunnerOptions serial_opts = parallel_opts;
    serial_opts.measure.parallel = false;

    const SweepOutcome p = runSweep(smoke->spec, parallel_opts);
    const SweepOutcome s = runSweep(smoke->spec, serial_opts);
    ASSERT_EQ(p.points.size(), s.points.size());
    for (std::size_t i = 0; i < p.points.size(); ++i)
        EXPECT_EQ(toJson(p.points[i].data.stats).dump(),
                  toJson(s.points[i].data.stats).dump());
}

TEST(Runner, DuplicatePointsAreMeasuredOnce)
{
    // Two identical points (no cache): the runner schedules one
    // simulation and shares the result.
    SweepPoint point;
    point.label = "dup";
    point.threads = 1;
    point.config = presets::baseSmt(1);
    point.options = tinyOptions();

    RunnerOptions ropts;
    ropts.measure = tinyOptions();
    const std::vector<PointResult> results =
        runPoints({point, point}, ropts);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].digest, results[1].digest);
    EXPECT_EQ(toJson(results[0].data.stats).dump(),
              toJson(results[1].data.stats).dump());
}

/** A tiny point at `threads` threads with `cycles` measured cycles. */
SweepPoint
tinyPoint(const std::string &label, unsigned threads, std::uint64_t cycles)
{
    SweepPoint point;
    point.label = label;
    point.threads = threads;
    point.config = presets::baseSmt(threads);
    point.options = tinyOptions();
    point.options.cyclesPerRun = cycles;
    return point;
}

TEST(Runner, LongestRunsAreQueuedFirst)
{
    // Cost = (warmup + measured cycles) x threads: 1500, 6000, 3000 and
    // 6000 (a tie with point 1, which keeps grid order).
    const std::vector<SweepPoint> points = {
        tinyPoint("a", 1, 1200), tinyPoint("b", 4, 1200),
        tinyPoint("c", 2, 1200), tinyPoint("d", 1, 5700)};
    EXPECT_EQ(runCost(points[0]), 1500.0);
    EXPECT_EQ(runCost(points[1]), 6000.0);
    const std::vector<RunRef> order = longestFirst(points, {0, 1, 2, 3});
    const std::vector<RunRef> expected = {{1, 0}, {1, 1}, {3, 0}, {3, 1},
                                          {2, 0}, {2, 1}, {0, 0}, {0, 1}};
    EXPECT_EQ(order, expected);
    // Only the listed points are scheduled.
    const std::vector<RunRef> some = longestFirst(points, {0, 2});
    const std::vector<RunRef> some_expected = {{2, 0}, {2, 1}, {0, 0},
                                               {0, 1}};
    EXPECT_EQ(some, some_expected);
}

TEST(Runner, StatsDoNotDependOnTheRunSchedule)
{
    // Longest-first queues these runs far from grid order; every
    // point's aggregate must still equal a serial, in-order run.
    const std::vector<SweepPoint> points = {
        tinyPoint("t1", 1, 1200), tinyPoint("t4", 4, 1200),
        tinyPoint("t2", 2, 1200), tinyPoint("t1-long", 1, 2400)};
    RunnerOptions parallel_opts;
    parallel_opts.measure = tinyOptions();
    RunnerOptions serial_opts = parallel_opts;
    serial_opts.measure.parallel = false;
    const std::vector<PointResult> p = runPoints(points, parallel_opts);
    const std::vector<PointResult> s = runPoints(points, serial_opts);
    ASSERT_EQ(p.size(), points.size());
    ASSERT_EQ(s.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(p[i].point.label, points[i].label);
        EXPECT_EQ(toJson(p[i].data.stats).dump(),
                  toJson(s[i].data.stats).dump())
            << points[i].label;
    }
}

TEST(Runner, SweepForAndAtIndexTheGrid)
{
    const NamedExperiment *smoke = findExperiment("smoke");
    RunnerOptions ropts;
    ropts.measure = tinyOptions();
    const SweepOutcome outcome = runSweep(smoke->spec, ropts);

    const ThreadSweep rr = outcome.sweepFor({0}, "RR");
    EXPECT_EQ(rr.threads, smoke->spec.threadCounts);
    EXPECT_EQ(rr.ipcAt(2), outcome.at({0}, 2).data.ipc());
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH((void)rr.ipcAt(7), "no 7-thread data point");
}

} // namespace
} // namespace smt::sweep
