/**
 * @file
 * The simulation workloads, fig5-cold and table3-warm: one paper grid
 * measured cold into an empty local store, repeated until the run's
 * time is spent. The untraced repetitions go through sweep::runPoints
 * exactly as smtsweep does; the traced repetition replays the same
 * schedule from here, timing the public calls each layer exposes
 * (measurementDigest, ResultStore::lookup/markInProgress/store, the
 * Simulator constructor, Simulator::warmup and SmtCore::tickTimed).
 */

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/simulator.hh"
#include "sweep/digest.hh"
#include "sweep/experiments.hh"
#include "sweep/result_store.hh"
#include "sweep/runner.hh"
#include "sweep/thread_pool.hh"
#include "workload/mix.hh"

namespace smtbench
{

namespace
{

using smt::sweep::SweepPoint;

/** A grid and the cycle budget it is measured at. */
struct SimWorkloadSpec
{
    const char *name;
    const char *experiment;
    std::uint64_t warmupCycles;
    std::uint64_t cyclesPerRun;
};

// fig5-cold: the headline figure at the default budget; ticking
// dominates, so every core/stage/policy change shows here.
// table3-warm: three unequal points with a long warmup (~88% of the
// simulated cycles), so warmup cost and the pool's scheduling tail show.
constexpr SimWorkloadSpec kSimWorkloads[] = {
    {"fig5-cold", "fig5", 30000, 40000},
    {"table3-warm", "table3", 300000, 40000},
};
constexpr unsigned kRuns = 8;

/** setup_s is the median of at least this many set-ups per run. */
constexpr unsigned kMinSetups = 101;

/**
 * Host seconds of timed read-backs after each untraced repetition
 * (lookup_p99_us). They run while the pool is idle: read alongside a
 * sweep, about 1% of reads wait over 1 ms for a vCPU the host has
 * descheduled, and p99 jumps between 0.25 and 2 ms from run to run.
 */
constexpr double kReadbackSeconds = 1.5;

/** The read-back sampler's burst (one lookup_p50_us window) and the
 *  period between bursts. */
constexpr std::size_t kBurstLookups = kLatencyWindow;
constexpr auto kBurstPeriod = std::chrono::milliseconds(100);

const SimWorkloadSpec &
findSpec(const std::string &name)
{
    for (const SimWorkloadSpec &s : kSimWorkloads)
        if (name == s.name)
            return s;
    smt_fatal("smtbench: unknown simulation workload %s", name.c_str());
}

smt::MeasureOptions
budget(const SimWorkloadSpec &spec)
{
    smt::MeasureOptions m;
    m.warmupCycles = spec.warmupCycles;
    m.cyclesPerRun = spec.cyclesPerRun;
    m.runs = kRuns;
    m.parallel = true;
    return m;
}

/** One set-up: an empty store directory and the seeded grid. */
struct Prepared
{
    std::string dir;
    std::vector<SweepPoint> points;
    double setupSeconds = 0.0;
    double expandMs = 0.0;
    bool empty = true; ///< every digest missed in the fresh store.
};

Prepared
setUp(const SimWorkloadSpec &spec, const Options &opts, unsigned index)
{
    const auto t0 = Clock::now();
    Prepared p;
    p.dir = opts.outDir + "/" + spec.name + "-store-" +
            std::to_string(index);
    removeTree(p.dir);
    const smt::sweep::NamedExperiment *exp =
        smt::sweep::findExperiment(spec.experiment);
    smt_assert(exp != nullptr);
    const auto e0 = Clock::now();
    p.points = exp->spec.expand(budget(spec));
    shufflePoints(p.points, opts.seed);
    p.expandMs = 1e3 * seconds(e0, Clock::now());
    const auto store = smt::sweep::openLocalStore(p.dir);
    for (const SweepPoint &point : p.points) {
        const std::string digest =
            smt::sweep::measurementDigest(point.config, point.options);
        p.empty = p.empty && !store->lookup(digest).has_value();
    }
    p.setupSeconds = seconds(t0, Clock::now());
    return p;
}

/** The set-ups of one run: at least kMinSetups, more on demand. */
class SetupPool
{
  public:
    SetupPool(const SimWorkloadSpec &spec, const Options &opts)
        : spec_(spec), opts_(opts)
    {
        for (unsigned i = 0; i < kMinSetups; ++i)
            made_.push_back(setUp(spec_, opts_, i));
    }

    ~SetupPool()
    {
        for (const Prepared &p : made_)
            removeTree(p.dir);
    }

    SetupPool(const SetupPool &) = delete;
    SetupPool &operator=(const SetupPool &) = delete;

    const Prepared &
    next()
    {
        if (used_ == made_.size())
            made_.push_back(setUp(spec_, opts_,
                                  static_cast<unsigned>(made_.size())));
        return made_[used_++];
    }

    std::vector<double>
    setupSeconds() const
    {
        std::vector<double> s;
        for (const Prepared &p : made_)
            s.push_back(p.setupSeconds);
        return s;
    }

  private:
    const SimWorkloadSpec &spec_;
    const Options &opts_;
    std::deque<Prepared> made_; ///< deque: next() references stay valid.
    std::size_t used_ = 0;
};

/** One repetition's results, per point in grid order. */
struct Repetition
{
    double wallSeconds = 0.0;
    std::vector<std::string> digests;
    std::vector<smt::SimStats> stats;
};

std::uint64_t
committed(const Repetition &rep)
{
    std::uint64_t n = 0;
    for (const smt::SimStats &s : rep.stats)
        n += s.committedInstructions;
    return n;
}

/** The untraced repetition: the sweep engine as smtsweep drives it. */
Repetition
runUntraced(const Prepared &prep, const smt::MeasureOptions &measure,
            unsigned jobs)
{
    smt::sweep::RunnerOptions ropts;
    ropts.measure = measure;
    ropts.cacheDir = prep.dir;
    ropts.jobs = jobs;
    const auto t0 = Clock::now();
    std::vector<smt::sweep::PointResult> results =
        smt::sweep::runPoints(prep.points, ropts);
    Repetition rep;
    rep.wallSeconds = seconds(t0, Clock::now());
    for (smt::sweep::PointResult &r : results) {
        rep.digests.push_back(r.digest);
        rep.stats.push_back(std::move(r.data.stats));
    }
    return rep;
}

/** Timestamps of one rotation run in the traced repetition. */
struct RunTiming
{
    Clock::time_point start, built, warmed, measured, end;
    smt::StageTimes stages;
    std::thread::id thread; ///< the pool worker (or helping waiter).
};

/** Timestamps of one grid point's sweep-layer calls. */
struct PointTiming
{
    Clock::time_point start, digested, looked, claimed, storeStart, end;
    std::vector<RunTiming> runs;
};

struct TracedRepetition
{
    Repetition rep;
    Clock::time_point start, end;
    std::vector<PointTiming> points;
};

/**
 * The traced repetition: runPoints' schedule (lookup, claim, every
 * rotation run of every point queued on the shared pool at once,
 * aggregation and store in point order) rebuilt from public calls, so
 * each call can be timed from outside. Each run does what measureRun()
 * does, with the measured window ticked through tickTimed().
 */
TracedRepetition
runTraced(const Prepared &prep)
{
    TracedRepetition tr;
    tr.points.resize(prep.points.size());
    for (std::size_t i = 0; i < prep.points.size(); ++i)
        tr.points[i].runs.resize(prep.points[i].options.runs);
    smt::sweep::ThreadPool &pool = smt::sweep::ThreadPool::global();

    tr.start = Clock::now();
    const auto store = smt::sweep::openStore(prep.dir);
    std::vector<std::vector<std::future<smt::SimStats>>> futures(
        prep.points.size());
    for (std::size_t i = 0; i < prep.points.size(); ++i) {
        const SweepPoint &point = prep.points[i];
        PointTiming &pt = tr.points[i];
        pt.start = Clock::now();
        tr.rep.digests.push_back(
            smt::sweep::measurementDigest(point.config, point.options));
        pt.digested = Clock::now();
        (void)store->lookup(tr.rep.digests.back());
        pt.looked = Clock::now();
        store->markInProgress(tr.rep.digests.back());
        pt.claimed = Clock::now();
        for (unsigned r = 0; r < point.options.runs; ++r) {
            RunTiming *t = &pt.runs[r];
            futures[i].push_back(pool.submit([&point, r, t] {
                t->thread = std::this_thread::get_id();
                smt::SimStats stats;
                {
                    t->start = Clock::now();
                    smt::Simulator sim(
                        point.config,
                        smt::mixForRun(point.config.numThreads, r),
                        /*seed_salt=*/smt::mix64(r + 1));
                    t->built = Clock::now();
                    if (point.options.warmupCycles > 0)
                        sim.warmup(point.options.warmupCycles);
                    t->warmed = Clock::now();
                    for (std::uint64_t c = 0; c < point.options.cyclesPerRun;
                         ++c)
                        sim.core().tickTimed(t->stages);
                    t->measured = Clock::now();
                    stats = sim.stats();
                }
                t->end = Clock::now();
                return stats;
            }));
        }
    }
    for (std::size_t i = 0; i < prep.points.size(); ++i) {
        const SweepPoint &point = prep.points[i];
        PointTiming &pt = tr.points[i];
        smt::SimStats total;
        double measure_seconds = 0.0;
        for (unsigned r = 0; r < point.options.runs; ++r) {
            total.add(pool.wait(std::move(futures[i][r])));
            measure_seconds += seconds(pt.runs[r].start, pt.runs[r].end);
        }
        pt.storeStart = Clock::now();
        store->store(tr.rep.digests[i], point.config, point.options, total,
                     measure_seconds);
        pt.end = Clock::now();
        tr.rep.stats.push_back(std::move(total));
    }
    tr.end = Clock::now();
    tr.rep.wallSeconds = seconds(tr.start, tr.end);
    return tr;
}

/**
 * Output checks for one repetition: every point has the full cycle
 * budget and committed work, its hash equals the reference repetition's
 * (when given), and the store returns exactly what was computed. The
 * read-backs go on for `readback_seconds` (at least one pass) and are
 * timed into `lookup_us`. Returns the number of failed rotation runs.
 */
std::uint64_t
checkRepetition(const Prepared &prep, const Repetition &rep,
                const std::vector<std::string> *reference,
                std::vector<std::string> &hashes_out,
                double readback_seconds, std::vector<double> &lookup_us)
{
    std::uint64_t failed = 0;
    hashes_out.clear();
    std::vector<bool> bad(prep.points.size(), false);
    for (std::size_t i = 0; i < prep.points.size(); ++i) {
        const SweepPoint &point = prep.points[i];
        const smt::SimStats &s = rep.stats[i];
        hashes_out.push_back(statsHash(s));
        bad[i] = s.cycles != point.options.cyclesPerRun * point.options.runs
                 || s.committedInstructions == 0
                 || (reference != nullptr
                     && (*reference)[i] != hashes_out[i]);
    }
    const auto store = smt::sweep::openLocalStore(prep.dir);
    const PinnedToOneCpu pin;
    const auto start = Clock::now();
    do {
        for (std::size_t i = 0; i < prep.points.size(); ++i) {
            const auto t0 = Clock::now();
            const std::optional<smt::SimStats> hit =
                store->lookup(rep.digests[i]);
            lookup_us.push_back(usSince(t0));
            if (!hit.has_value() || statsHash(*hit) != hashes_out[i])
                bad[i] = true;
        }
    } while (seconds(start, Clock::now()) < readback_seconds);
    for (std::size_t i = 0; i < prep.points.size(); ++i) {
        if (bad[i] || !prep.empty) {
            failed += prep.points[i].options.runs;
            std::printf("CHECK FAILED: %s @%uT (digest %s)\n",
                        prep.points[i].label.c_str(),
                        prep.points[i].threads, rep.digests[i].c_str());
        }
    }
    return failed;
}

/**
 * Times ResultStore::lookup on the local store for lookup_p50_us: a
 * background thread reads back the entries of the latest checked
 * repetition in bursts of kBurstLookups, one burst every kBurstPeriod,
 * while the next repetitions sweep. Spreading the bursts over the whole
 * run lets the quietest burst come from the quietest moment of the run;
 * the blocks of reads after each sweep cover a few seconds of it, and
 * land wherever the host happens to be busy then. Each read must hash
 * to the value the sweep computed.
 */
class ReadbackSampler
{
  public:
    ReadbackSampler() : thread_([this] { loop(); }) {}

    ~ReadbackSampler() { stop(); }

    ReadbackSampler(const ReadbackSampler &) = delete;
    ReadbackSampler &operator=(const ReadbackSampler &) = delete;

    /** Sample the store of `prep` from now on: `digests[i]` must read
     *  back as `hashes[i]`. */
    void
    target(const Prepared &prep, const std::vector<std::string> &digests,
           const std::vector<std::string> &hashes)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        next_ = Target{prep.dir, digests, hashes};
    }

    /** Stop sampling until the next target(): the reads after a sweep
     *  are timed on their own. */
    void
    pause()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        next_ = Target{};
    }

    /** Stop and join the thread; idempotent. */
    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

    /** Timed reads in burst order, microseconds (after stop()). */
    const std::vector<double> &samples() const { return samples_; }
    /** Digests whose read-back differed from the sweep (after stop()). */
    const std::set<std::string> &mismatched() const { return bad_; }

  private:
    struct Target
    {
        std::string dir;
        std::vector<std::string> digests, hashes;
    };

    void
    loop()
    {
        std::optional<Target> current;
        std::unique_ptr<smt::sweep::ResultStore> store;
        std::size_t at = 0;
        std::unique_lock<std::mutex> lock(mutex_);
        while (!wake_.wait_for(lock, kBurstPeriod,
                               [this] { return stopping_; })) {
            if (next_.has_value()) {
                current = std::move(next_);
                next_.reset();
                if (current->digests.empty())
                    current.reset();
                else
                    store = smt::sweep::openLocalStore(current->dir);
                at = 0;
            }
            if (!current.has_value())
                continue;
            lock.unlock();
            for (std::size_t n = 0; n < kBurstLookups; ++n) {
                const std::size_t i = at++ % current->digests.size();
                const auto t0 = Clock::now();
                const std::optional<smt::SimStats> hit =
                    store->lookup(current->digests[i]);
                samples_.push_back(usSince(t0));
                if (!hit.has_value()
                    || statsHash(*hit) != current->hashes[i])
                    bad_.insert(current->digests[i]);
            }
            lock.lock();
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::optional<Target> next_;
    std::vector<double> samples_;
    std::set<std::string> bad_;
    std::thread thread_; ///< last: starts once the members above exist.
};

std::vector<MeasuredPoint>
measuredPoints(const std::vector<SweepPoint> &points, const Repetition &rep)
{
    std::vector<MeasuredPoint> out;
    for (std::size_t i = 0; i < points.size(); ++i)
        out.push_back({points[i].label, points[i].threads,
                       rep.stats[i].ipc()});
    return out;
}

/** Per-layer metrics of the traced repetition, plus its span file. */
void
traceMetrics(const TracedRepetition &tr, const Prepared &prep,
             const char *workload, double untraced_wall,
             unsigned pool_width, MetricTable &m, SpanLog &spans)
{
    std::vector<double> run_s, build_ms, digest_us, lookup_us, claim_us,
        store_us;
    double sum_run = 0, sum_parts = 0, sum_warm = 0, sum_meas = 0;
    std::uint64_t warm_cycles = 0, meas_cycles = 0;
    smt::StageTimes stages;
    std::map<unsigned, std::pair<double, std::uint64_t>> by_threads;
    std::map<std::thread::id, std::pair<Clock::time_point,
                                        Clock::time_point>> windows;
    Clock::time_point latest_start = tr.start, last_end = tr.start;

    const std::uint64_t sweep_span =
        spans.add("sweep", workload, tr.start, tr.end);
    for (std::size_t i = 0; i < tr.points.size(); ++i) {
        const PointTiming &pt = tr.points[i];
        const std::string label = prep.points[i].label + "@" +
                                   std::to_string(prep.points[i].threads);
        const std::uint64_t point_span =
            spans.add("point", label, pt.start, pt.end, sweep_span);
        spans.add("digest", label, pt.start, pt.digested, point_span);
        spans.add("lookup", label, pt.digested, pt.looked, point_span);
        spans.add("claim", label, pt.looked, pt.claimed, point_span);
        spans.add("store", label, pt.storeStart, pt.end, point_span);
        digest_us.push_back(1e6 * seconds(pt.start, pt.digested));
        lookup_us.push_back(1e6 * seconds(pt.digested, pt.looked));
        claim_us.push_back(1e6 * seconds(pt.looked, pt.claimed));
        store_us.push_back(1e6 * seconds(pt.storeStart, pt.end));
        const smt::MeasureOptions &budget = prep.points[i].options;
        const unsigned threads = prep.points[i].threads;
        for (std::size_t r = 0; r < pt.runs.size(); ++r) {
            const RunTiming &t = pt.runs[r];
            const std::string run_label = label + "/r" + std::to_string(r);
            const std::uint64_t run_span =
                spans.add("run", run_label, t.start, t.end, point_span);
            spans.add("build", run_label, t.start, t.built, run_span);
            spans.add("warmup", run_label, t.built, t.warmed, run_span);
            spans.add("measure", run_label, t.warmed, t.measured, run_span);

            const double run = seconds(t.start, t.end);
            const double warm = seconds(t.built, t.warmed);
            const double meas = seconds(t.warmed, t.measured);
            run_s.push_back(run);
            build_ms.push_back(1e3 * seconds(t.start, t.built));
            sum_run += run;
            sum_parts += seconds(t.start, t.measured);
            sum_warm += warm;
            sum_meas += meas;
            warm_cycles += budget.warmupCycles;
            meas_cycles += budget.cyclesPerRun;
            for (unsigned s = 0; s < smt::StageTimes::kNumStages; ++s)
                stages.ns[s] += t.stages.ns[s];
            by_threads[threads].first += meas;
            by_threads[threads].second += budget.cyclesPerRun;
            // A pool thread is busy from its first run's start to its
            // last run's end; the gaps between its runs are dispatch.
            auto [it, fresh] = windows.try_emplace(t.thread, t.start, t.end);
            if (!fresh) {
                it->second.first = std::min(it->second.first, t.start);
                it->second.second = std::max(it->second.second, t.end);
            }
            latest_start = std::max(latest_start, t.start);
            last_end = std::max(last_end, t.end);
        }
    }
    double pool_busy = 0.0;
    for (const auto &[thread, window] : windows)
        pool_busy += seconds(window.first, window.second);

    const double wall = tr.rep.wallSeconds;
    m.set("sweep.pool_util", sum_run / (pool_width * wall), "ratio");
    m.set("sweep.tail_s", seconds(latest_start, last_end), "s");
    m.set("sweep.run_s.p50", percentile(run_s, 0.5), "s");
    m.set("sweep.run_s.p95", percentile(run_s, 0.95), "s");
    m.set("sweep.lookup_us.p50", percentile(lookup_us, 0.5), "us");
    m.set("sweep.lookup_us.p99", percentile(lookup_us, 0.99), "us");
    m.set("sweep.digest_us.p50", percentile(digest_us, 0.5), "us");
    m.set("sweep.store_us.p50", percentile(store_us, 0.5), "us");
    m.set("sweep.claim_us.p50", percentile(claim_us, 0.5), "us");
    m.set("sweep.expand_ms", prep.expandMs, "ms");

    const double meas_ns = 1e9 * sum_meas;
    m.set("run.build_ms.p50", percentile(build_ms, 0.5), "ms");
    m.set("run.warmup_share", sum_warm / (sum_warm + sum_meas), "ratio");
    m.set("run.warmup_ns_per_cycle",
          warm_cycles > 0 ? 1e9 * sum_warm / warm_cycles : 0.0,
          "ns/cycle");
    m.set("run.measure_ns_per_cycle", meas_ns / meas_cycles, "ns/cycle");
    for (const auto &[threads, acc] : by_threads)
        m.set("run.ns_per_cycle.t" + std::to_string(threads),
              1e9 * acc.first / acc.second, "ns/cycle");

    const double tick_ns = static_cast<double>(stages.totalNs());
    m.set("tick.ns_per_cycle", tick_ns / meas_cycles, "ns/cycle");
    for (unsigned s = 0; s < smt::StageTimes::kNumStages; ++s)
        m.set(std::string("stage.") + smt::StageTimes::stageName(s) +
                  ".ns_per_cycle",
              static_cast<double>(stages.ns[s]) / meas_cycles, "ns/cycle");
    m.set("stage.issue.share",
          static_cast<double>(stages.ns[smt::StageTimes::Issue]) / tick_ns,
          "ratio");

    m.set("obs.trace_overhead", wall / untraced_wall, "ratio");
    m.set("obs.unattributed.stage", 1.0 - tick_ns / meas_ns, "ratio");
    m.set("obs.unattributed.run", 1.0 - sum_parts / sum_run, "ratio");
    m.set("obs.unattributed.pool", 1.0 - sum_run / pool_busy, "ratio");

    std::printf("attribution closure (unattributed share at each "
                "boundary):\n"
                "  stage ns vs measured-phase span       %6.2f%%\n"
                "  build+warmup+measure vs run span      %6.2f%%\n"
                "  run spans vs pool busy time           %6.2f%%  "
                "(%zu threads ran tasks)\n"
                "  client lookup vs server handler       n/a (local "
                "store)\n"
                "  obs.trace_overhead                    %.3fx\n",
                100.0 * (1.0 - tick_ns / meas_ns),
                100.0 * (1.0 - sum_parts / sum_run),
                100.0 * (1.0 - sum_run / pool_busy), windows.size(),
                wall / untraced_wall);
}

} // namespace

WorkloadResult
runSimWorkload(const Options &opts)
{
    const SimWorkloadSpec &spec = findSpec(opts.workload);
    const smt::MeasureOptions measure = budget(spec);
    smt::sweep::ThreadPool::requestGlobalWorkers(opts.jobs);
    const unsigned pool_width =
        smt::sweep::ThreadPool::global().workerCount();
    WorkloadResult out;
    char budget_text[160];
    std::snprintf(budget_text, sizeof budget_text,
                  "%llu warmup + %llu measured cycles x %u runs; pool %u "
                  "workers; empty local store",
                  static_cast<unsigned long long>(spec.warmupCycles),
                  static_cast<unsigned long long>(spec.cyclesPerRun), kRuns,
                  pool_width);
    out.budget = budget_text;
    SetupPool setups(spec, opts);
    std::vector<std::string> reference, hashes;
    std::vector<double> walls, kips, pps, lookup_us;
    std::vector<SweepPoint> grid;
    Repetition first;
    std::optional<ReadbackSampler> sampler;
    if (!opts.trace)
        sampler.emplace();

    const auto run_start = Clock::now();
    const unsigned min_reps = opts.trace ? 1 : 2;
    for (unsigned k = 0;
         k < min_reps || (!opts.trace && seconds(run_start, Clock::now())
                                             < opts.seconds);
         ++k) {
        const Prepared &prep = setups.next();
        Repetition rep = runUntraced(prep, measure, opts.jobs);
        out.attempted += prep.points.size() * kRuns;
        if (sampler.has_value())
            sampler->pause();
        const std::uint64_t rep_failed =
            checkRepetition(prep, rep, k == 0 ? nullptr : &reference,
                            hashes, kReadbackSeconds, lookup_us);
        out.failed += rep_failed;
        if (sampler.has_value() && rep_failed == 0)
            sampler->target(prep, rep.digests, hashes);
        if (k == 0) {
            reference = hashes;
            grid = prep.points;
            first = rep;
            std::printf("grid order:");
            for (const SweepPoint &p : grid)
                std::printf(" %s@%u", p.label.c_str(), p.threads);
            std::printf("\n");
        }
        walls.push_back(rep.wallSeconds);
        kips.push_back(committed(rep) / rep.wallSeconds / 1e3);
        pps.push_back(prep.points.size() / rep.wallSeconds);
        std::printf("rep %u: %.3f s wall, %.0f kinst/s\n", k,
                    rep.wallSeconds, kips.back());
    }
    if (!opts.trace) {
        sampler->stop();
        for (const std::string &digest : sampler->mismatched()) {
            out.failed += kRuns;
            std::printf("CHECK FAILED: read-back of digest %s\n",
                        digest.c_str());
        }
        const double err = reportPaperError(
            loadPaperReferences(opts.referencePath, spec.name),
            measuredPoints(grid, first));
        out.metrics.set("wall_s", percentile(walls, 0.0), "s");
        out.metrics.set("sim_kips", percentile(kips, 1.0), "kinst/s");
        out.metrics.set("setup_s", median(setups.setupSeconds()), "s");
        out.metrics.set("peak_rss_mb", peakRssMb(), "MB");
        out.metrics.set("paper_ipc_err_pct", err, "%");
        out.metrics.set("points_per_s", percentile(pps, 1.0), "1/s");
        out.metrics.set(
            "lookup_p50_us",
            quietestMedian(sampler->samples(), kBurstLookups), "us");
        out.metrics.set("lookup_p99_us", percentile(lookup_us, 0.99), "us");
        std::printf("read-back lookups: %zu after sweeps, %zu in %zu "
                    "bursts during them\n",
                    lookup_us.size(), sampler->samples().size(),
                    sampler->samples().size() / kBurstLookups);
        return out;
    }

    // Traced repetition: same grid, fresh store, instrumented loop. Its
    // stats must hash identically to the untraced repetition's.
    const Prepared &prep = setups.next();
    TracedRepetition tr = runTraced(prep);
    out.attempted += prep.points.size() * kRuns;
    std::vector<double> traced_lookups;
    out.failed +=
        checkRepetition(prep, tr.rep, &reference, hashes, 0.0,
                        traced_lookups);
    std::printf("traced rep: %.3f s wall (untraced %.3f s)\n",
                tr.rep.wallSeconds, walls.front());

    SpanLog spans(tr.start);
    traceMetrics(tr, prep, spec.name, walls.front(), pool_width,
                 out.metrics, spans);
    smt::SimStats total;
    for (const smt::SimStats &s : tr.rep.stats)
        total.add(s);
    setModelMetrics(out.metrics, total);
    const std::string span_path = opts.outDir + "/spans-" + spec.name +
                                  "-seed" + std::to_string(opts.seed) +
                                  ".jsonl";
    if (!spans.write(span_path))
        smt_fatal("smtbench: cannot write %s", span_path.c_str());
    std::printf("spans: %zu written to %s\n", spans.size(),
                span_path.c_str());
    return out;
}

} // namespace smtbench
