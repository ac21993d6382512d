/**
 * @file
 * Pipeline-microscope tests: attaching a pipetrace must never disturb
 * the simulation (cycle identity across every (fetch, issue) policy
 * pair), every traced instruction must close (commit or
 * squash — the `smtpipe --check` gate, green on a real file and red on
 * a truncated one), the admission window and sample period must bound
 * what is emitted, the Chrome export's lanes must never overlap, and
 * the sweep outcome artifact must carry the sampled occupancy
 * histogram.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/pipe_analysis.hh"
#include "obs/pipe_trace.hh"
#include "obs/trace_analysis.hh"
#include "sim/simulator.hh"
#include "sweep/runner.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

/** The stat fields a single divergent cycle anywhere would disturb. */
struct StatKey
{
    std::uint64_t cycles, committed, fetched, fetchedWrongPath, issued,
        issuedWrongPath, optimisticSquashes, mispredicts, dcacheMisses;

    static StatKey
    of(const SimStats &s)
    {
        return {s.cycles,
                s.committedInstructions,
                s.fetchedInstructions,
                s.fetchedWrongPath,
                s.issuedInstructions,
                s.issuedWrongPath,
                s.optimisticSquashes,
                s.condBranchMispredicts,
                s.dcache.misses};
    }

    bool
    operator==(const StatKey &o) const
    {
        return cycles == o.cycles && committed == o.committed &&
               fetched == o.fetched &&
               fetchedWrongPath == o.fetchedWrongPath &&
               issued == o.issued &&
               issuedWrongPath == o.issuedWrongPath &&
               optimisticSquashes == o.optimisticSquashes &&
               mispredicts == o.mispredicts &&
               dcacheMisses == o.dcacheMisses;
    }
};

std::string
tempPath(const char *name)
{
    return std::string("test_pipe_") + name + ".jsonl";
}

/** Run one traced simulation into `path` and return its stats. */
SimStats
tracedRun(const SmtConfig &cfg, const std::string &path,
          const obs::PipeTraceOptions &opts, std::uint64_t cycles = 4000)
{
    obs::PipeTraceSink sink(path);
    obs::PipeTrace pipe(sink, opts);
    Simulator sim(cfg, mixForRun(cfg.numThreads, 0));
    sim.attachPipeTrace(&pipe);
    sim.run(cycles);
    pipe.finish();
    return sim.stats();
}

obs::PipeAnalysis
analyzeFile(const std::string &path)
{
    obs::TraceSet set;
    std::string error;
    EXPECT_TRUE(set.addFile(path, &error)) << error;
    return obs::analyzePipe(set);
}

// ---- Cycle identity: tracing must be a pure observer ----------------------

TEST(PipeIdentity, TracedRunIsCycleIdenticalForAllPolicyPairs)
{
    const std::string path = tempPath("identity");
    obs::PipeTraceOptions topts;
    topts.windowFirst = 100;
    topts.windowLast = 600;
    topts.samplePeriod = 50;

    for (FetchPolicy fp : kFetchPolicies) {
        for (IssuePolicy ip : kIssuePolicies) {
            SmtConfig cfg = presets::baseSmt(4);
            cfg.fetchPolicy = fp;
            cfg.issuePolicy = ip;

            Simulator plain(cfg, mixForRun(4, 0));
            plain.run(4000);

            const SimStats traced = tracedRun(cfg, path, topts);
            EXPECT_TRUE(StatKey::of(plain.stats()) == StatKey::of(traced))
                << "pipetrace disturbed " << toString(fp) << "."
                << toString(ip);
        }
    }
    std::remove(path.c_str());
}

// ---- Lifecycle closure: the --check gate ----------------------------------

TEST(PipeClosure, EveryTracedInstructionReachesCommitOrSquash)
{
    const std::string path = tempPath("closure");
    obs::PipeTraceOptions topts;
    topts.windowFirst = 200;
    topts.windowLast = 1200;
    topts.samplePeriod = 100;
    tracedRun(presets::icount28(4), path, topts);

    const obs::PipeAnalysis analysis = analyzeFile(path);
    ASSERT_EQ(analysis.streams.size(), 1u);
    EXPECT_GT(analysis.instructions, 0u);
    EXPECT_EQ(analysis.open, 0u);
    EXPECT_EQ(analysis.missingStart, 0u);
    EXPECT_EQ(analysis.missingDone, 0u);
    EXPECT_TRUE(obs::checkPipe(analysis).empty());

    // Instructions in flight when the run budget expired were closed
    // as "drain" squashes and counted by pipe_done.
    const obs::PipeStream &s = analysis.streams[0];
    std::size_t drained = 0;
    for (const obs::PipeInst &inst : s.insts)
        if (inst.squashCause == "drain")
            ++drained;
    EXPECT_EQ(drained, s.drained);
    std::remove(path.c_str());
}

TEST(PipeClosure, CheckFailsOnTruncatedFile)
{
    const std::string path = tempPath("full");
    const std::string cut = tempPath("cut");
    obs::PipeTraceOptions topts;
    topts.windowFirst = 200;
    topts.windowLast = 1200;
    tracedRun(presets::icount28(2), path, topts);

    // Keep the head of the file: pipe_start survives, pipe_done and
    // the tail of the lifecycles do not — the torn-file signature.
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_GT(lines.size(), 10u);
    std::ofstream out(cut, std::ios::trunc);
    for (std::size_t i = 0; i < lines.size() / 2; ++i)
        out << lines[i] << "\n";
    out.close();

    const obs::PipeAnalysis analysis = analyzeFile(cut);
    ASSERT_EQ(analysis.streams.size(), 1u);
    EXPECT_EQ(analysis.missingDone, 1u);
    EXPECT_FALSE(obs::checkPipe(analysis).empty());

    // An empty corpus is also a failure, not a silent pass.
    EXPECT_FALSE(obs::checkPipe(obs::PipeAnalysis{}).empty());

    std::remove(path.c_str());
    std::remove(cut.c_str());
}

// ---- Window and sample bounding -------------------------------------------

TEST(PipeWindow, OnlyInWindowFetchesAreTracedAndSamplesHitThePeriod)
{
    const std::string path = tempPath("window");
    obs::PipeTraceOptions topts;
    topts.windowFirst = 300;
    topts.windowLast = 700;
    topts.samplePeriod = 50;
    tracedRun(presets::icount28(4), path, topts);

    const obs::PipeAnalysis analysis = analyzeFile(path);
    ASSERT_EQ(analysis.streams.size(), 1u);
    const obs::PipeStream &s = analysis.streams[0];
    EXPECT_EQ(s.windowFirst, 300u);
    EXPECT_EQ(s.windowLast, 700u);
    EXPECT_GT(s.insts.size(), 0u);
    for (const obs::PipeInst &inst : s.insts) {
        ASSERT_NE(inst.fetch, kCycleNever);
        EXPECT_GE(inst.fetch, 300u);
        EXPECT_LE(inst.fetch, 700u);
    }
    ASSERT_GT(s.samples.size(), 0u);
    for (const obs::PipeSample &sample : s.samples) {
        EXPECT_EQ(sample.cyc % 50, 0u);
        EXPECT_GE(sample.cyc, 300u);
        EXPECT_LE(sample.cyc, 700u);
        EXPECT_EQ(sample.iq.size(), 4u);
        EXPECT_EQ(sample.fetched.size(), 4u);
        EXPECT_TRUE(sample.stalls.has("issueOperandWait"));
    }
    std::remove(path.c_str());
}

TEST(PipeWindow, SamplePeriodZeroEmitsNoSamples)
{
    const std::string path = tempPath("nosample");
    obs::PipeTraceOptions topts;
    topts.windowFirst = 0;
    topts.windowLast = 500;
    tracedRun(presets::baseSmt(2), path, topts, 1500);
    const obs::PipeAnalysis analysis = analyzeFile(path);
    ASSERT_EQ(analysis.streams.size(), 1u);
    EXPECT_TRUE(analysis.streams[0].samples.empty());
    std::remove(path.c_str());
}

// ---- Chrome export ----------------------------------------------------------

TEST(ChromeLanes, BuilderReusesALaneOnlyAfterItEnds)
{
    obs::ChromeTraceBuilder chrome;
    EXPECT_EQ(chrome.lane("g", 0.0, 10.0), 0u);
    EXPECT_EQ(chrome.lane("g", 5.0, 8.0), 1u);  // overlaps lane 0.
    EXPECT_EQ(chrome.lane("g", 10.0, 12.0), 0u); // lane 0 ended at 10.
    EXPECT_EQ(chrome.lane("g", 11.0, 13.0), 1u); // lane 1 ended at 8.
    EXPECT_EQ(chrome.lane("h", 11.5, 14.0), 0u); // fresh group.
    EXPECT_EQ(chrome.laneCount("g"), 2u);
    EXPECT_EQ(chrome.laneCount("h"), 1u);
}

TEST(ChromeExport, SpansNeverOverlapWithinALaneAndAllClose)
{
    const std::string path = tempPath("chrome");
    obs::PipeTraceOptions topts;
    topts.windowFirst = 200;
    topts.windowLast = 900;
    tracedRun(presets::icount28(4), path, topts);

    const obs::PipeAnalysis analysis = analyzeFile(path);
    const sweep::Json doc = obs::pipeChromeTrace(analysis);
    ASSERT_TRUE(doc.has("traceEvents"));
    const sweep::Json &events = doc.at("traceEvents");
    ASSERT_GT(events.size(), 0u);

    // Group X spans by (pid, tid); within one lane, sorted spans must
    // tile without overlap — that is what the lane fan-out is for.
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::vector<std::pair<double, double>>>
        lanes;
    std::size_t completes = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const sweep::Json &ev = events[i];
        if (ev.at("ph").asString() != "X")
            continue;
        ++completes;
        EXPECT_TRUE(ev.at("args").has("seq"));
        lanes[{ev.at("pid").asUInt(), ev.at("tid").asUInt()}]
            .emplace_back(ev.at("ts").asDouble(),
                          ev.at("ts").asDouble()
                              + ev.at("dur").asDouble());
    }
    EXPECT_GT(completes, 0u);
    for (auto &[key, spans] : lanes) {
        std::sort(spans.begin(), spans.end());
        for (std::size_t i = 1; i < spans.size(); ++i)
            EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-9)
                << "overlapping spans in pid " << key.first << " tid "
                << key.second;
    }
    std::remove(path.c_str());
}

// ---- Sweep artifact carries the occupancy histogram ------------------------

TEST(OutcomeArtifact, PointsCarrySampledOccupancy)
{
    // A real short run so combinedQueuePopulation has samples.
    Simulator sim(presets::icount28(2), mixForRun(2, 0));
    sim.run(2000);

    sweep::SweepOutcome outcome;
    outcome.spec.name = "unit";
    outcome.spec.title = "unit";
    sweep::PointResult r;
    r.point.label = "unit";
    r.point.threads = 2;
    r.digest = "0000";
    r.data.stats = sim.stats();
    outcome.points.push_back(std::move(r));

    const sweep::Json doc = sweep::outcomeArtifact({outcome});
    const sweep::Json &point =
        doc.at("experiments")[0].at("points")[0];
    ASSERT_TRUE(point.has("occupancy"));
    const sweep::Json &occ = point.at("occupancy");
    EXPECT_GT(occ.at("samples").asUInt(), 0u);
    EXPECT_GT(occ.at("buckets").size(), 0u);
    EXPECT_GE(occ.at("mean").asDouble(), 0.0);
}

} // namespace
} // namespace smt
