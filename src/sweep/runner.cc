#include "sweep/runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>

#include <unistd.h>

#include "common/logging.hh"
#include "sweep/digest.hh"
#include "sweep/remote_store.hh"
#include "sweep/result_store.hh"
#include "sweep/thread_pool.hh"

namespace smt::sweep
{

RunnerOptions
defaultRunnerOptions()
{
    RunnerOptions ropts;
    ropts.measure = defaultMeasureOptions();
    if (const char *env = std::getenv("SMTSWEEP_CACHE"); env != nullptr)
        ropts.cacheDir = env;
    return ropts;
}

const PointResult &
SweepOutcome::at(const std::vector<std::size_t> &axis_choice,
                 unsigned threads) const
{
    for (const PointResult &r : points) {
        if (r.point.axisChoice == axis_choice
            && r.point.threads == threads)
            return r;
    }
    smt_fatal("experiment \"%s\" has no point at the requested grid "
              "coordinate (%u threads)", spec.name.c_str(), threads);
}

ThreadSweep
SweepOutcome::sweepFor(const std::vector<std::size_t> &axis_choice,
                       const std::string &label) const
{
    ThreadSweep sweep;
    sweep.label = label;
    for (const PointResult &r : points) {
        if (r.point.axisChoice != axis_choice)
            continue;
        sweep.threads.push_back(r.point.threads);
        sweep.points.push_back(r.data);
    }
    smt_assert(!sweep.points.empty(),
               "no points for sweep \"%s\" of experiment \"%s\"",
               label.c_str(), spec.name.c_str());
    return sweep;
}

namespace
{

/** One pipetrace stream for one rotation run, when `--pipe-out` is
 *  active (null otherwise). The meta rides the stream's `pipe_start`
 *  line so smtpipe can label what it reconstructs. */
std::unique_ptr<obs::PipeTrace>
makePipeTrace(const RunnerOptions &ropts, const std::string &digest,
              const SweepPoint &point, unsigned run)
{
    if (ropts.pipeSink == nullptr)
        return nullptr;
    Json meta = Json::object();
    meta.set("digest", Json(digest));
    meta.set("label", Json(point.label));
    meta.set("run", Json(static_cast<std::uint64_t>(run)));
    meta.set("threads",
             Json(static_cast<std::uint64_t>(point.threads)));
    return std::make_unique<obs::PipeTrace>(
        *ropts.pipeSink, ropts.pipeOptions, std::move(meta));
}

} // namespace

double
runCost(const SweepPoint &point)
{
    const MeasureOptions &opts = point.options;
    const double cycles =
        static_cast<double>(opts.warmupCycles + opts.cyclesPerRun);
    return cycles * (point.threads >= 1 ? point.threads : 1);
}

std::vector<RunRef>
longestFirst(const std::vector<SweepPoint> &points,
             const std::vector<std::size_t> &indices)
{
    std::vector<RunRef> order;
    for (const std::size_t i : indices)
        for (unsigned r = 0; r < points[i].options.runs; ++r)
            order.push_back({i, r});
    std::stable_sort(order.begin(), order.end(),
                     [&](const RunRef &a, const RunRef &b) {
                         return runCost(points[a.point]) >
                                runCost(points[b.point]);
                     });
    return order;
}

std::vector<PointResult>
runPoints(const std::vector<SweepPoint> &points, const RunnerOptions &ropts)
{
    if (ropts.jobs > 0)
        ThreadPool::requestGlobalWorkers(ropts.jobs);

    std::unique_ptr<ResultStore> store;
    std::unique_ptr<MarkerHeartbeat> heartbeat;
    if (!ropts.cacheDir.empty()) {
        store = openStore(ropts.cacheDir, ropts.storeToken);
        // Keep every in-progress marker's lease fresh for as long as
        // this process lives — so a marker that *does* expire means
        // the worker really died, on whatever host is watching.
        heartbeat = std::make_unique<MarkerHeartbeat>(
            *store, ropts.markerTtlSeconds);
        // Stamp the trace id on every store request: from the writer
        // when tracing locally, else straight from the environment —
        // a coordinator's workers join its trace in the store access
        // log even when they write no trace file of their own.
        if (ropts.trace != nullptr)
            store->setTraceContext(ropts.trace->traceId());
        else if (const char *env = std::getenv(obs::kTraceEnvVar);
                 env != nullptr && env[0] != '\0')
            store->setTraceContext(env);
    }

    // One span per digest transition, tagged with this worker's
    // identity so a merged fleet trace attributes every measurement.
    // Against a *remote* store the emitted lines are also buffered
    // byte-identically and flushed to the server (`POST /v1/trace`)
    // when the sweep settles — a remote worker's spans would otherwise
    // die with its host. Both span-emitting passes run on this thread,
    // so the buffer needs no lock.
    char hostbuf[256] = {};
    if (::gethostname(hostbuf, sizeof hostbuf - 1) != 0)
        hostbuf[0] = '\0';
    const std::string host = hostbuf[0] != '\0' ? hostbuf : "unknown";
    auto *remote = dynamic_cast<RemoteResultStore *>(store.get());
    std::string span_buffer;
    const auto span = [&](const char *event, const PointResult &result,
                          double seconds = -1.0, double dur_us = -1.0) {
        if (ropts.trace == nullptr)
            return;
        Json fields = Json::object();
        fields.set("digest", Json(result.digest));
        fields.set("label", Json(result.point.label));
        fields.set("pid",
                   Json(static_cast<std::uint64_t>(::getpid())));
        fields.set("host", Json(host));
        if (seconds >= 0.0)
            fields.set("seconds", Json(seconds));
        if (dur_us >= 0.0)
            fields.set("dur_us", Json(dur_us));
        const std::string line =
            ropts.trace->emit(event, std::move(fields));
        if (remote != nullptr) {
            span_buffer += line;
            span_buffer += '\n';
        }
    };
    // Microseconds of steady clock spent in `fn` — the dur_us stamped
    // on hit/claimed/stored spans (store round trips).
    const auto timed_us = [](const auto &fn) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    std::vector<PointResult> results(points.size());
    std::size_t done = 0, hits = 0;
    const auto report_progress = [&] {
        if (ropts.onProgress)
            ropts.onProgress(RunProgress{done, points.size(), hits});
    };

    // Pass 1: resolve cache hits and queue every rotation run of every
    // miss. Identical points (same digest) are scheduled once and
    // share the first occurrence's result.
    struct Pending
    {
        std::size_t index;                          ///< into results.
        std::vector<std::future<SimStats>> runs;    ///< empty if serial
                                                    ///< or duplicate.
        std::size_t duplicateOf = SIZE_MAX;

        /** Per-run wall seconds (parallel path): each pool task fills
         *  its own slot; future.get() publishes it. The sum is the
         *  observed point cost fed back to the shard planner. */
        std::shared_ptr<std::vector<double>> runSeconds;
    };
    std::vector<Pending> pending;
    ThreadPool &pool = ThreadPool::global();

    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &point = points[i];
        smt_assert(point.options.runs >= 1);
        PointResult &result = results[i];
        result.point = point;
        result.digest = measurementDigest(point.config, point.options);

        if (store) {
            std::optional<SimStats> hit;
            const double lookup_us =
                timed_us([&] { hit = store->lookup(result.digest); });
            if (hit.has_value()) {
                result.data.stats = std::move(*hit);
                result.cached = true;
                ++done;
                ++hits;
                span("hit", result, -1.0, lookup_us);
                report_progress();
                if (ropts.verbose)
                    smt_inform("sweep: [hit]  %s (%s)",
                               point.label.c_str(), result.digest.c_str());
                continue;
            }
        }
        if (ropts.requireCached)
            smt_fatal("sweep: point \"%s\" (%s) is not cached and "
                      "--require-cached is set",
                      point.label.c_str(), result.digest.c_str());

        Pending p;
        p.index = i;
        for (std::size_t j = 0; j < i; ++j) {
            if (results[j].digest == result.digest && !results[j].cached) {
                p.duplicateOf = j;
                break;
            }
        }
        if (p.duplicateOf == SIZE_MAX)
            span("queued", result);
        // Advisory claim so any peer can tell in-progress (or, after
        // a crash, orphaned) work from pending work; the heartbeat
        // keeps its lease fresh until the entry is stored.
        if (store && p.duplicateOf == SIZE_MAX) {
            const double claim_us = timed_us([&] {
                store->markInProgress(result.digest,
                                      ropts.markerTtlSeconds);
            });
            heartbeat->add(result.digest);
            span("claimed", result, -1.0, claim_us);
        }
        if (p.duplicateOf == SIZE_MAX && ropts.measure.parallel) {
            p.runs.resize(point.options.runs);
            p.runSeconds = std::make_shared<std::vector<double>>(
                point.options.runs, 0.0);
        }
        if (ropts.verbose)
            smt_inform("sweep: [miss] %s (%s)%s", point.label.c_str(),
                       result.digest.c_str(),
                       p.duplicateOf != SIZE_MAX ? " [duplicate]" : "");
        pending.push_back(std::move(p));
    }

    // Queue every parallel run, longest first. The SweepPoint lives in
    // the caller's vector for the whole sweep; capture by reference.
    // `result` (for the digest) and `ropts` outlive the pool work the
    // same way.
    std::vector<std::size_t> parallel;
    std::vector<Pending *> pending_of(points.size(), nullptr);
    for (Pending &p : pending) {
        if (!p.runs.empty()) {
            parallel.push_back(p.index);
            pending_of[p.index] = &p;
        }
    }
    for (const RunRef &ref : longestFirst(points, parallel)) {
        Pending &p = *pending_of[ref.point];
        const SweepPoint &point = points[ref.point];
        const PointResult &result = results[ref.point];
        const unsigned r = ref.run;
        auto seconds = p.runSeconds;
        p.runs[r] = pool.submit([&point, r, seconds, &ropts, &result] {
            const auto t0 = std::chrono::steady_clock::now();
            std::unique_ptr<obs::PipeTrace> pipe =
                makePipeTrace(ropts, result.digest, point, r);
            SimStats stats =
                measureRun(point.config, r, point.options, pipe.get());
            if (pipe != nullptr)
                pipe->finish();
            (*seconds)[r] = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
            return stats;
        });
    }

    // Pass 2: aggregate in point order, runs in run order — the same
    // order a serial sweep uses, so results are schedule-independent.
    for (Pending &p : pending) {
        PointResult &result = results[p.index];
        if (p.duplicateOf != SIZE_MAX) {
            result.data = results[p.duplicateOf].data;
            ++done;
            report_progress();
            continue;
        }
        const SweepPoint &point = result.point;
        double measure_seconds = 0.0;
        if (p.runs.empty()) {
            for (unsigned r = 0; r < point.options.runs; ++r) {
                const auto t0 = std::chrono::steady_clock::now();
                std::unique_ptr<obs::PipeTrace> pipe =
                    makePipeTrace(ropts, result.digest, point, r);
                result.data.stats.add(measureRun(point.config, r,
                                                 point.options,
                                                 pipe.get()));
                if (pipe != nullptr)
                    pipe->finish();
                measure_seconds +=
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
            }
        } else {
            for (auto &f : p.runs)
                result.data.stats.add(pool.wait(std::move(f)));
            for (double s : *p.runSeconds)
                measure_seconds += s;
        }
        span("run", result, measure_seconds, measure_seconds * 1e6);
        if (store) {
            heartbeat->remove(result.digest);
            const double store_us = timed_us([&] {
                store->store(result.digest, point.config, point.options,
                             result.data.stats, measure_seconds);
            });
            span("stored", result, -1.0, store_us);
        }
        ++done;
        report_progress();
    }

    // Merge this worker's spans into the server-side capture. Best
    // effort: an old server 404s and the local trace file still has
    // everything.
    if (remote != nullptr)
        remote->postTrace(span_buffer);
    return results;
}

SweepOutcome
runSweep(const ExperimentSpec &spec, const RunnerOptions &ropts)
{
    const auto start = std::chrono::steady_clock::now();

    SweepOutcome outcome;
    outcome.spec = spec;
    outcome.points = runPoints(spec.expand(ropts.measure), ropts);
    for (const PointResult &r : outcome.points) {
        if (r.cached)
            ++outcome.cacheHits;
        else
            ++outcome.cacheMisses;
    }
    outcome.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - start)
            .count();
    return outcome;
}

namespace
{

/** The machine-readable stall ledger for one measured point: the
 *  per-thread per-cause counters of `stats.stalls` plus the ledger
 *  totals — the JSON twin of `SimStats::stallReport`. */
Json
stallLedgerJson(const SimStats &stats, unsigned num_threads)
{
    const StallStats &s = stats.stalls;
    Json doc = Json::object();
    Json threads = Json::array();
    for (unsigned t = 0; t < num_threads && t < kMaxThreads; ++t) {
        Json row = Json::object();
        row.set("fetchActive", Json(s.fetchActive[t]));
        row.set("fetchIcacheMiss", Json(s.fetchIcacheMiss[t]));
        row.set("fetchFrontEndFull", Json(s.fetchFrontEndFull[t]));
        row.set("fetchNoTarget", Json(s.fetchNoTarget[t]));
        row.set("fetchLostSelection", Json(s.fetchLostSelection[t]));
        row.set("renameIQFull", Json(s.renameIQFull[t]));
        row.set("renameNoRegisters", Json(s.renameNoRegisters[t]));
        row.set("issueOperandWait", Json(s.issueOperandWait[t]));
        row.set("issueFuBusy", Json(s.issueFuBusy[t]));
        row.set("stalled", Json(s.fetchStalled(t)));
        threads.push(std::move(row));
    }
    doc.set("threads", std::move(threads));
    doc.set("issueNoCandidatesCycles", Json(s.issueNoCandidatesCycles));
    doc.set("totalStalledSlots", Json(s.totalStalledSlots()));
    return doc;
}

/** The sampled combined-IQ occupancy histogram of a point
 *  (`PipelineState::sampleOccupancy()`, one sample per cycle):
 *  sample count, mean population, and the non-zero buckets as
 *  [population, cycles] pairs (the last bucket is the histogram's
 *  overflow bin). */
Json
occupancyJson(const SimStats &stats)
{
    const Histogram &h = stats.combinedQueuePopulation;
    Json doc = Json::object();
    doc.set("samples", Json(h.samples()));
    doc.set("mean", Json(h.mean()));
    Json buckets = Json::array();
    for (std::size_t b = 0; b < h.buckets(); ++b) {
        if (h.bucket(b) == 0)
            continue;
        Json pair = Json::array();
        pair.push(Json(static_cast<std::uint64_t>(b)));
        pair.push(Json(h.bucket(b)));
        buckets.push(std::move(pair));
    }
    doc.set("buckets", std::move(buckets));
    return doc;
}

} // namespace

Json
outcomeArtifact(const std::vector<SweepOutcome> &outcomes,
                bool with_stalls)
{
    Json doc = Json::object();
    doc.set("schema", Json(kDigestSchema));
    Json experiments = Json::array();
    for (const SweepOutcome &outcome : outcomes) {
        Json e = Json::object();
        e.set("experiment", Json(outcome.spec.name));
        e.set("title", Json(outcome.spec.title));
        e.set("wallSeconds", Json(outcome.wallSeconds));
        e.set("cacheHits", Json(static_cast<std::uint64_t>(
                               outcome.cacheHits)));
        e.set("cacheMisses", Json(static_cast<std::uint64_t>(
                                 outcome.cacheMisses)));
        Json points = Json::array();
        for (const PointResult &r : outcome.points) {
            Json p = Json::object();
            p.set("label", Json(r.point.label));
            p.set("threads", Json(r.point.threads));
            p.set("digest", Json(r.digest));
            p.set("cached", Json(r.cached));
            p.set("ipc", Json(r.data.ipc()));
            p.set("cycles", Json(r.data.stats.cycles));
            p.set("committedInstructions",
                  Json(r.data.stats.committedInstructions));
            p.set("occupancy", occupancyJson(r.data.stats));
            if (with_stalls)
                p.set("stalls", stallLedgerJson(r.data.stats,
                                                r.point.threads));
            points.push(std::move(p));
        }
        e.set("points", std::move(points));
        experiments.push(std::move(e));
    }
    doc.set("experiments", std::move(experiments));
    return doc;
}

void
writeJsonFile(const std::string &path, const Json &j)
{
    if (!j.writeFileAtomic(path))
        smt_fatal("cannot write %s", path.c_str());
}

} // namespace smt::sweep
