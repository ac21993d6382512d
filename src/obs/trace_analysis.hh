/**
 * @file
 * Sweep-trace analysis: ingest JSONL trace spans (`--trace-out`,
 * server-side `/v1/trace` captures) and smtstore access logs
 * (`--access-log`), join them by trace id, and reconstruct what a
 * distributed sweep actually did — per-digest lifecycle state
 * machines, per-worker busy/idle ledgers, store latency percentiles,
 * and a Chrome trace-event export loadable in Perfetto.
 *
 * Readers are deliberately tolerant: trace files are appended to by
 * several processes and may be copied mid-write, so a malformed,
 * torn, or foreign line is counted and skipped, never an error, and
 * byte-identical duplicate lines (a worker's span appearing in both
 * its local file and the store's server-side capture) collapse to
 * one event.
 *
 * Timing uses both clocks every span carries: wall-clock `ts` places
 * events across hosts, while per-host monotonic `mono` + `dur_us`
 * yield durations immune to NTP steps and cross-host skew. A
 * worker's busy time is the *union* of its run intervals in its own
 * mono timeline (pool-parallel runs overlap; summing would exceed
 * wall time), so busy + idle always equals the worker's window — the
 * ledger closes by construction, and the test suite pins it.
 */

#ifndef SMT_OBS_TRACE_ANALYSIS_HH
#define SMT_OBS_TRACE_ANALYSIS_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sweep/json.hh"

namespace smt::obs
{

/** One parsed trace span (a `--trace-out` line). */
struct TraceEvent
{
    double ts = 0.0;     ///< wall-clock seconds (Unix epoch).
    double mono = -1.0;  ///< per-host monotonic seconds; -1 unknown.
    double durUs = -1.0; ///< span duration in µs; -1 unknown.
    std::string event;   ///< hit/queued/claimed/run/stored/sweep_*...
    std::string trace;   ///< the 16-hex sweep trace id.
    std::string digest;  ///< measurement digest ("" for sweep spans).
    std::string label;
    std::string host;
    std::uint64_t pid = 0;
    double seconds = -1.0; ///< run span: summed per-run wall seconds.
    sweep::Json fields;    ///< the full object (extra keys, export).
};

/** One smtstore access-log record (`--access-log` line). */
struct AccessRecord
{
    double ts = 0.0;
    std::string route; ///< /v1 resource kind (entries, claims, ...).
    std::string method;
    std::string target;
    std::string trace; ///< client's X-Smt-Trace id ("" when absent).
    int status = 0;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    double latencyUs = 0.0;
};

/**
 * The ingested corpus: every event and access record from every file
 * fed in, plus the reader's tally of what it had to skip. Files may
 * be fed in any order and either slot — each line is classified by
 * shape (an "event" key makes a span, a "route" + "status" pair an
 * access record), so handing a trace file to addAccessLog still
 * ingests it correctly.
 */
struct TraceSet
{
    std::vector<TraceEvent> events;
    std::vector<AccessRecord> access;

    std::size_t lines = 0;      ///< non-empty lines seen.
    std::size_t skipped = 0;    ///< malformed / torn / foreign lines.
    std::size_t duplicates = 0; ///< byte-identical repeats dropped.

    /** Ingest one JSONL file (trace spans and/or access records).
     *  False only when the file cannot be read (`error` says why);
     *  bad *lines* are tolerated and tallied. */
    bool addFile(const std::string &path, std::string *error = nullptr);

    /** Ingest already-loaded JSONL text (tests, server buffers). */
    void addText(const std::string &text);

  private:
    std::set<std::string> seen_; ///< raw lines, for deduplication.
};

/** One digest's reconstructed lifecycle. */
struct DigestTimeline
{
    std::string digest;
    std::string label;
    std::string worker; ///< "host/pid" that settled it ("" unknown).
    bool queued = false;
    bool claimed = false;
    bool run = false;
    bool stored = false;
    bool hit = false;
    double runSeconds = -1.0; ///< summed per-run seconds (run span).
    double runDurUs = -1.0;   ///< run span dur_us.
    double firstTs = 0.0;     ///< wall clock of its first event.
    double lastTs = 0.0;      ///< wall clock of its last event.
    /** Its sweep ran without a store (no hit, claimed or stored span
     *  anywhere in the trace), so nothing follows `run`. */
    bool storeless = false;

    /** "stored", "hit", "run" (storeless sweeps only), or "" when the
     *  digest never finished. */
    std::string terminal() const;
};

/** One worker's closed busy/idle ledger, in its own mono timeline. */
struct WorkerLedger
{
    std::string worker; ///< "host/pid".
    std::string host;
    std::uint64_t pid = 0;
    std::size_t runs = 0;
    std::size_t hits = 0;
    double windowSeconds = 0.0; ///< first to last event, mono.
    double busySeconds = 0.0;   ///< union of run intervals, mono.
    double idleSeconds = 0.0;   ///< window - busy.
    double firstTs = 0.0;       ///< wall clock (cross-host ordering).
    double lastTs = 0.0;

    double utilization() const
    {
        return windowSeconds > 0.0 ? busySeconds / windowSeconds : 0.0;
    }
};

/** Store latency percentiles for one /v1 route (access records). */
struct RouteLatency
{
    std::string route;
    std::size_t count = 0;
    double p50Us = 0.0;
    double p90Us = 0.0;
    double p99Us = 0.0;
    double maxUs = 0.0;
};

/** Everything the report, summary, and --check verdict derive from. */
struct TraceAnalysis
{
    std::string traceId; ///< the analyzed trace.
    std::size_t events = 0;
    std::size_t accessRecords = 0;
    double wallSeconds = 0.0; ///< first to last event, wall clock.

    std::string experiment; ///< from sweep_start, when present.
    bool hasSweepStart = false;
    bool hasSweepDone = false;
    double sweepSeconds = -1.0; ///< sweep_done's own wall figure.

    std::vector<DigestTimeline> digests;
    std::size_t terminalStored = 0;
    std::size_t terminalHit = 0;
    std::size_t terminalRun = 0; ///< settled by `run`: no store.
    std::size_t nonTerminal = 0; ///< started but never finished.

    std::vector<WorkerLedger> workers;

    std::vector<RouteLatency> routes;
    std::size_t claimRequests = 0;
    std::size_t claimConflicts = 0; ///< 409s: lost CAS races.

    /** The straggler's digest chain: the run sequence of the worker
     *  whose last terminal event lands latest — the path that bounds
     *  the sweep's wall time. */
    std::vector<std::string> criticalPath;
    std::string criticalWorker;
};

/**
 * Analyze one trace id's events out of `set`. An empty `trace_id`
 * picks the id with the most events (the common case: one sweep per
 * file set).
 */
TraceAnalysis analyzeTrace(const TraceSet &set,
                           const std::string &trace_id = "");

/** The machine-readable summary ("smt-trace-v1"). A non-null
 *  `stalls` document (from `smtsweep --stall-report --json`) is
 *  embedded under "stalls". */
sweep::Json analysisSummary(const TraceAnalysis &analysis,
                            const TraceSet &set,
                            const sweep::Json *stalls = nullptr);

/** The human report: worker utilization timeline, straggler/skew
 *  table, store latency percentiles, claim contention, critical
 *  path, and any digests that never reached a terminal state. */
std::string analysisReport(const TraceAnalysis &analysis,
                           const TraceSet &set);

/**
 * Chrome trace-event-format export (load in Perfetto or
 * chrome://tracing): one process track per worker with its run spans
 * as complete ("X") events — overlapping pool-parallel runs fan out
 * into lanes — lifecycle instants, and a coordinator track for the
 * sweep-level spans. Timestamps are µs relative to the trace start.
 */
sweep::Json chromeTrace(const TraceSet &set,
                        const std::string &trace_id = "");

} // namespace smt::obs

#endif // SMT_OBS_TRACE_ANALYSIS_HH
