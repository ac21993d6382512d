/**
 * @file
 * Tests for the sweep-trace analysis library (obs/trace_analysis):
 * the tolerant JSONL reader (torn/malformed/foreign lines skipped and
 * counted, byte-identical duplicates collapsed), digest lifecycle
 * reconstruction, the closed per-worker busy/idle ledger, store
 * latency percentiles joined by trace id, and the Chrome trace-event
 * export.
 *
 * All inputs are synthetic JSONL built in-memory: the contract under
 * test is the line format the TraceWriter and the store's access log
 * actually emit, so field names here mirror those writers exactly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "obs/trace_analysis.hh"
#include "sweep/json.hh"

namespace smt
{
namespace
{

/** Build one trace-span line the way obs::TraceWriter lays it out. */
std::string
span(const std::string &event, const std::string &trace,
     const std::string &digest, double ts, double mono,
     double dur_us = -1.0, const std::string &host = "h1",
     std::uint64_t pid = 100, double seconds = -1.0)
{
    sweep::Json j = sweep::Json::object();
    j.set("ts", sweep::Json(ts));
    j.set("mono", sweep::Json(mono));
    j.set("event", sweep::Json(event));
    j.set("trace", sweep::Json(trace));
    if (!digest.empty())
        j.set("digest", sweep::Json(digest));
    j.set("pid", sweep::Json(pid));
    if (!host.empty())
        j.set("host", sweep::Json(host));
    if (seconds >= 0.0)
        j.set("seconds", sweep::Json(seconds));
    if (dur_us >= 0.0)
        j.set("dur_us", sweep::Json(dur_us));
    return j.dump() + "\n";
}

/** Build one access-log line the way StoreService::logAccess does. */
std::string
accessLine(const std::string &route, const std::string &trace,
           int status, double latency_us, double ts = 100.0)
{
    sweep::Json j = sweep::Json::object();
    j.set("ts", sweep::Json(ts));
    j.set("mono", sweep::Json(1.0));
    j.set("route", sweep::Json(route));
    j.set("method", sweep::Json(status == 409 ? "PUT" : "GET"));
    j.set("target", sweep::Json("/v1/" + route + "/x"));
    j.set("status", sweep::Json(static_cast<std::int64_t>(status)));
    j.set("bytes_in", sweep::Json(std::uint64_t(0)));
    j.set("bytes_out", sweep::Json(std::uint64_t(10)));
    j.set("latency_us", sweep::Json(latency_us));
    if (!trace.empty())
        j.set("trace", sweep::Json(trace));
    return j.dump() + "\n";
}

const std::string kTrace = "feedface00112233";
const std::string kD1 = std::string(32, '1');
const std::string kD2 = std::string(32, '2');
const std::string kD3 = std::string(32, '3');
const std::string kD4 = std::string(32, '4');

// ---- Tolerant reader -------------------------------------------------------

TEST(TraceSet, SkipsTornMalformedAndForeignLinesWithoutAborting)
{
    obs::TraceSet set;
    std::string text;
    text += span("run", kTrace, kD1, 100.0, 5.0, 2e6);
    text += "{\"ts\": 100.5, \"event\": \"run\", \"tra"; // torn mid-write.
    text += "\n";
    text += "not json at all\n";
    text += "{\"foreign\": \"object\", \"ts\": 1}\n"; // neither shape.
    text += "\r\n";                                  // blank: not a line.
    text += accessLine("entries", kTrace, 200, 150.0);
    set.addText(text);

    EXPECT_EQ(set.events.size(), 1u);
    EXPECT_EQ(set.access.size(), 1u);
    EXPECT_EQ(set.lines, 5u);
    EXPECT_EQ(set.skipped, 3u);
    EXPECT_EQ(set.duplicates, 0u);

    // Windows line endings don't leak into parsed fields.
    obs::TraceSet crlf;
    std::string line = span("stored", kTrace, kD1, 100.0, 5.0);
    line.insert(line.size() - 1, "\r");
    crlf.addText(line);
    ASSERT_EQ(crlf.events.size(), 1u);
    EXPECT_EQ(crlf.events[0].event, "stored");
}

TEST(TraceSet, ByteIdenticalDuplicatesCollapseAcrossFiles)
{
    // The same span legitimately lands in the worker's local file and
    // the store's server-side /v1/trace capture; analysis must count
    // it once.
    const std::string line = span("run", kTrace, kD1, 100.0, 5.0, 2e6);
    obs::TraceSet set;
    set.addText(line + span("stored", kTrace, kD1, 100.1, 5.1, 80.0));
    set.addText(line); // second "file": the server capture.

    EXPECT_EQ(set.events.size(), 2u);
    EXPECT_EQ(set.duplicates, 1u);
    EXPECT_EQ(set.lines, 3u);
}

TEST(TraceSet, MissingFileIsAnErrorNotACrash)
{
    obs::TraceSet set;
    std::string error;
    EXPECT_FALSE(set.addFile("/nonexistent/trace.jsonl", &error));
    EXPECT_FALSE(error.empty());
}

// ---- Lifecycle reconstruction ----------------------------------------------

TEST(TraceAnalysis, ReconstructsTerminalAndNonTerminalLifecycles)
{
    obs::TraceSet set;
    std::string text;
    // d1: the full cold path.
    text += span("queued", kTrace, kD1, 100.0, 1.0);
    text += span("claimed", kTrace, kD1, 100.1, 1.1, 50.0);
    text += span("run", kTrace, kD1, 102.0, 3.0, 1.9e6, "h1", 100, 1.9);
    text += span("stored", kTrace, kD1, 102.1, 3.1, 70.0);
    // d2: a cache hit.
    text += span("hit", kTrace, kD2, 100.2, 1.2, 40.0);
    // d3: claimed and run but never stored — a lost worker.
    text += span("claimed", kTrace, kD3, 100.3, 1.3, 50.0);
    text += span("run", kTrace, kD3, 103.0, 4.0, 2.7e6, "h1", 100, 2.7);
    set.addText(text);

    const obs::TraceAnalysis a = obs::analyzeTrace(set);
    EXPECT_EQ(a.traceId, kTrace);
    ASSERT_EQ(a.digests.size(), 3u);
    EXPECT_EQ(a.terminalStored, 1u);
    EXPECT_EQ(a.terminalHit, 1u);
    EXPECT_EQ(a.nonTerminal, 1u);

    for (const obs::DigestTimeline &d : a.digests) {
        if (d.digest == kD1) {
            EXPECT_TRUE(d.queued);
            EXPECT_TRUE(d.claimed);
            EXPECT_TRUE(d.run);
            EXPECT_TRUE(d.stored);
            EXPECT_EQ(d.terminal(), "stored");
        } else if (d.digest == kD2) {
            EXPECT_TRUE(d.hit);
            EXPECT_EQ(d.terminal(), "hit");
        } else {
            EXPECT_EQ(d.digest, kD3);
            EXPECT_TRUE(d.run);
            EXPECT_EQ(d.terminal(), "");
        }
    }
}

TEST(TraceAnalysis, StorelessSweepSettlesEachDigestAtItsRun)
{
    // `smtsweep --no-cache --trace-out`: every digest is queued and
    // run, nothing is claimed, hit or stored. --check must pass.
    obs::TraceSet set;
    std::string text;
    for (const std::string &digest : {kD1, kD2}) {
        text += span("queued", kTrace, digest, 100.0, 1.0);
        text += span("run", kTrace, digest, 101.0, 2.0, 1e6, "h1", 100,
                     1.0);
    }
    set.addText(text);

    const obs::TraceAnalysis a = obs::analyzeTrace(set);
    ASSERT_EQ(a.digests.size(), 2u);
    EXPECT_EQ(a.terminalRun, 2u);
    EXPECT_EQ(a.nonTerminal, 0u);
    for (const obs::DigestTimeline &d : a.digests)
        EXPECT_EQ(d.terminal(), "run") << d.digest;
    const sweep::Json doc = obs::analysisSummary(a, set);
    EXPECT_EQ(doc.at("digests").at("run").asUInt(), 2u);
    EXPECT_EQ(doc.at("digests").at("nonTerminal").asUInt(), 0u);
}

TEST(TraceAnalysis, CachedSweepStillFlagsARunThatWasNeverStored)
{
    // With a store in play (here only a hit shows it), a run that
    // never reached `stored` is a lost worker, claimed or not.
    obs::TraceSet set;
    std::string text;
    text += span("hit", kTrace, kD1, 100.0, 1.0, 40.0);
    text += span("queued", kTrace, kD2, 100.1, 1.1);
    text += span("run", kTrace, kD2, 101.0, 2.0, 1e6, "h1", 100, 1.0);
    text += span("claimed", kTrace, kD3, 100.2, 1.2, 50.0);
    text += span("run", kTrace, kD3, 102.0, 3.0, 1e6, "h1", 100, 1.0);
    set.addText(text);

    const obs::TraceAnalysis a = obs::analyzeTrace(set);
    ASSERT_EQ(a.digests.size(), 3u);
    EXPECT_EQ(a.terminalHit, 1u);
    EXPECT_EQ(a.terminalRun, 0u);
    EXPECT_EQ(a.nonTerminal, 2u);
}

TEST(TraceAnalysis, EmptyTraceIdPicksTheIdWithTheMostSpans)
{
    obs::TraceSet set;
    std::string text;
    text += span("run", "aaaa", kD1, 100.0, 1.0, 1e6);
    text += span("stored", "aaaa", kD1, 100.1, 1.1, 60.0);
    text += span("hit", "aaaa", kD2, 100.2, 1.2, 40.0);
    text += span("hit", "bbbb", kD3, 200.0, 1.0, 40.0);
    set.addText(text);

    const obs::TraceAnalysis a = obs::analyzeTrace(set);
    EXPECT_EQ(a.traceId, "aaaa");
    EXPECT_EQ(a.digests.size(), 2u);

    // An explicit id restricts the view to that sweep.
    const obs::TraceAnalysis b = obs::analyzeTrace(set, "bbbb");
    EXPECT_EQ(b.traceId, "bbbb");
    ASSERT_EQ(b.digests.size(), 1u);
    EXPECT_EQ(b.digests[0].digest, kD3);
}

// ---- The worker ledger closes ----------------------------------------------

TEST(TraceAnalysis, BusyPlusIdleEqualsTheWindowEvenWithOverlappingRuns)
{
    // Pool-parallel runs overlap in the worker's mono timeline:
    //   d1 runs [1.0, 3.0], d2 runs [2.0, 4.0].
    // Summing durations gives 4.0s of "busy" inside a 3.2s window;
    // the ledger must take the interval union (3.0s) instead.
    obs::TraceSet set;
    std::string text;
    text += span("claimed", kTrace, kD1, 100.0, 1.0, 50.0);
    text += span("run", kTrace, kD1, 102.0, 3.0, 2e6, "h1", 100, 2.0);
    text += span("run", kTrace, kD2, 103.0, 4.0, 2e6, "h1", 100, 2.0);
    text += span("stored", kTrace, kD1, 103.1, 4.1, 70.0);
    text += span("stored", kTrace, kD2, 103.2, 4.2, 70.0);
    set.addText(text);

    const obs::TraceAnalysis a = obs::analyzeTrace(set);
    ASSERT_EQ(a.workers.size(), 1u);
    const obs::WorkerLedger &w = a.workers[0];
    EXPECT_EQ(w.worker, "h1/100");
    EXPECT_EQ(w.runs, 2u);
    EXPECT_NEAR(w.windowSeconds, 3.2, 1e-9);
    EXPECT_NEAR(w.busySeconds, 3.0, 1e-9);
    EXPECT_NEAR(w.idleSeconds, 0.2, 1e-9);
    // The closure identity the report relies on.
    EXPECT_NEAR(w.busySeconds + w.idleSeconds, w.windowSeconds, 1e-9);
    EXPECT_GE(w.utilization(), 0.0);
    EXPECT_LE(w.utilization(), 1.0);
    EXPECT_NEAR(w.utilization(), 3.0 / 3.2, 1e-9);
}

TEST(TraceAnalysis, RunsLongerThanTheWindowAreClampedIntoIt)
{
    // A single-event worker window, or a dur_us reaching before the
    // first observed mono, must not drive idle time negative.
    obs::TraceSet set;
    std::string text;
    text += span("run", kTrace, kD1, 100.0, 2.0, 9e6, "h1", 100, 9.0);
    text += span("stored", kTrace, kD1, 100.1, 2.1, 70.0);
    set.addText(text);

    const obs::TraceAnalysis a = obs::analyzeTrace(set);
    ASSERT_EQ(a.workers.size(), 1u);
    const obs::WorkerLedger &w = a.workers[0];
    EXPECT_GE(w.idleSeconds, 0.0);
    EXPECT_LE(w.busySeconds, w.windowSeconds + 1e-9);
    EXPECT_NEAR(w.busySeconds + w.idleSeconds, w.windowSeconds, 1e-9);
}

// ---- Store latency and claim contention ------------------------------------

TEST(TraceAnalysis, RouteLatencyPercentilesJoinOnTheTraceId)
{
    obs::TraceSet set;
    std::string text;
    text += span("hit", kTrace, kD1, 100.0, 1.0, 40.0);
    for (int i = 1; i <= 10; ++i)
        text += accessLine("entries", kTrace, 200, i * 100.0);
    // A foreign sweep's traffic on the same store must not pollute
    // this sweep's percentiles.
    text += accessLine("entries", "othertrace", 200, 1e9);
    // Claim CAS: three requests, one lost race. Latencies differ so
    // the lines aren't byte-identical (which would dedupe them).
    text += accessLine("claims", kTrace, 200, 50.0);
    text += accessLine("claims", kTrace, 200, 51.0);
    text += accessLine("claims", kTrace, 409, 52.0);
    set.addText(text);

    const obs::TraceAnalysis a = obs::analyzeTrace(set);
    EXPECT_EQ(a.claimRequests, 3u);
    EXPECT_EQ(a.claimConflicts, 1u);

    const obs::RouteLatency *entries = nullptr;
    for (const obs::RouteLatency &r : a.routes)
        if (r.route == "entries")
            entries = &r;
    ASSERT_NE(entries, nullptr);
    EXPECT_EQ(entries->count, 10u);
    EXPECT_NEAR(entries->p50Us, 500.0, 1e-9);
    EXPECT_NEAR(entries->p90Us, 900.0, 1e-9);
    EXPECT_NEAR(entries->p99Us, 1000.0, 1e-9);
    EXPECT_NEAR(entries->maxUs, 1000.0, 1e-9);
}

// ---- Summary and report ----------------------------------------------------

TEST(TraceAnalysis, SummaryCarriesTheSchemaAndTheStallLedger)
{
    obs::TraceSet set;
    std::string text;
    text += span("sweep_start", kTrace, "", 99.0, 0.5);
    text += span("run", kTrace, kD1, 100.0, 1.0, 1e6, "h1", 100, 1.0);
    text += span("stored", kTrace, kD1, 100.1, 1.1, 60.0);
    text += span("sweep_done", kTrace, "", 101.0, 2.0);
    set.addText(text);

    const obs::TraceAnalysis a = obs::analyzeTrace(set);
    sweep::Json stalls = sweep::Json::object();
    stalls.set("totalStalledSlots", sweep::Json(std::uint64_t(42)));
    const sweep::Json doc = obs::analysisSummary(a, set, &stalls);

    EXPECT_EQ(doc.at("schema").asString(), "smt-trace-v1");
    EXPECT_EQ(doc.at("trace").asString(), kTrace);
    EXPECT_EQ(doc.at("digests").at("total").asUInt(), 1u);
    EXPECT_EQ(doc.at("digests").at("stored").asUInt(), 1u);
    EXPECT_EQ(doc.at("digests").at("nonTerminal").asUInt(), 0u);
    ASSERT_EQ(doc.at("workers").size(), 1u);
    EXPECT_EQ(doc.at("workers")[0].at("worker").asString(), "h1/100");
    ASSERT_TRUE(doc.has("stalls"));
    EXPECT_EQ(doc.at("stalls").at("totalStalledSlots").asUInt(), 42u);

    // The whole summary survives a serialization round trip.
    sweep::Json parsed;
    ASSERT_TRUE(sweep::Json::parse(doc.dump(2), parsed));
    EXPECT_EQ(parsed.at("schema").asString(), "smt-trace-v1");

    // The human report mentions the worker and the terminal tally.
    const std::string report = obs::analysisReport(a, set);
    EXPECT_NE(report.find("h1/100"), std::string::npos);
    EXPECT_NE(report.find("stored"), std::string::npos);
}

// ---- Chrome export ---------------------------------------------------------

TEST(ChromeTrace, OverlappingRunsFanOutIntoLanesUnderOneProcess)
{
    obs::TraceSet set;
    std::string text;
    text += span("sweep_start", kTrace, "", 99.0, 0.5, -1.0, "", 1);
    text += span("run", kTrace, kD1, 102.0, 3.0, 2e6, "h1", 100, 2.0);
    text += span("run", kTrace, kD2, 103.0, 4.0, 2e6, "h1", 100, 2.0);
    text += span("run", kTrace, kD3, 105.5, 6.5, 1e6, "h1", 100, 1.0);
    text += span("stored", kTrace, kD1, 103.1, 4.1, 70.0);
    set.addText(text);

    const sweep::Json doc = obs::chromeTrace(set);
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
    const sweep::Json &events = doc.at("traceEvents");
    ASSERT_GT(events.size(), 0u);

    std::size_t metadata = 0, completes = 0, instants = 0;
    std::set<std::uint64_t> run_tids;
    double min_ts = 1e18;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const sweep::Json &ev = events[i];
        const std::string ph = ev.at("ph").asString();
        if (ph == "M") {
            ++metadata;
            EXPECT_EQ(ev.at("name").asString(), "process_name");
            continue;
        }
        min_ts = std::min(min_ts, ev.at("ts").asDouble());
        if (ph == "X") {
            ++completes;
            run_tids.insert(ev.at("tid").asUInt());
            EXPECT_GE(ev.at("ts").asDouble(), 0.0);
            EXPECT_GT(ev.at("dur").asDouble(), 0.0);
        } else if (ph == "i") {
            ++instants;
        }
    }
    // One process-name record per track (coordinator + worker).
    EXPECT_EQ(metadata, 2u);
    EXPECT_EQ(completes, 3u);
    EXPECT_GE(instants, 2u); // sweep_start + stored at least.
    // d1/d2 overlap so they need two lanes; d3 starts after d1 ends
    // and reuses a freed lane — never a third.
    EXPECT_EQ(run_tids.size(), 2u);
    // Timestamps are relative µs: the earliest event sits at zero.
    EXPECT_NEAR(min_ts, 0.0, 1.0);
}

} // namespace
} // namespace smt
