/**
 * @file
 * smtbench: the repository benchmark. One process runs one workload
 * (fig5-cold, table3-warm or replay-remote), checks every result it
 * produced, and prints its metrics; the last stdout line is the JSON
 * summary {"correct", "attempted", "failed", "metrics"}.
 *
 * Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
 * (--trace 1) re-run the workload through the benchmark's own
 * instrumented loop, which times calls into each module's public
 * functions from outside, and report the per-layer metrics. See
 * smtbench/README.md for the workload rationale and the layer map.
 */

#ifndef SMTBENCH_BENCH_HH
#define SMTBENCH_BENCH_HH

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats/stats.hh"
#include "sweep/json.hh"
#include "sweep/spec.hh"

namespace smtbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock instants. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Microseconds since `from`. */
inline double
usSince(Clock::time_point from)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - from)
        .count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    unsigned jobs = 1;          ///< pool width: half of nproc.
    std::string outDir;         ///< scratch + span files (inside checkout).
    std::string referencePath;  ///< paper_reference.json.
    std::string smtstorePath;   ///< the store server binary.
};

/**
 * Pins the calling thread to one CPU (the last one it may use) for its
 * lifetime, then restores the previous mask. Single-threaded timed loops
 * (the replay's client and its store server, the sim workloads'
 * read-backs) run there: a request/response ping-pong then costs
 * context switches, not cross-CPU wakeups, whose latency on a shared
 * virtual machine varies from run to run far more than the software
 * path does.
 */
class PinnedToOneCpu
{
  public:
    PinnedToOneCpu();
    ~PinnedToOneCpu();

    PinnedToOneCpu(const PinnedToOneCpu &) = delete;
    PinnedToOneCpu &operator=(const PinnedToOneCpu &) = delete;

  private:
    cpu_set_t saved_;
};

/** Exact-order-statistic percentile (linear interpolation), q in [0,1];
 *  0 for an empty sample. */
double percentile(std::vector<double> values, double q);
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/**
 * The median of the quietest window: `samples` (in time order) are cut
 * into windows of `window` samples (a shorter tail is dropped unless it
 * is the only window) and the lowest window median is returned. On a
 * shared host, interference only ever slows a sample and comes in
 * phases of seconds, so the quietest window is the steadiest estimate
 * of the program's own typical latency. (Tails are not estimated this
 * way: a p99 is set by events every window shares, and one window
 * samples them too thinly, so p99 is taken over the whole run.)
 */
constexpr std::size_t kLatencyWindow = 100;
double quietestMedian(const std::vector<double> &samples,
                      std::size_t window);

/** A 128-bit hash of every field of `stats` as the store serialises
 *  it — the output-correctness fingerprint of one point. */
std::string statsHash(const smt::SimStats &stats);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Ordered name -> (value, unit) metric table. */
class MetricTable
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    const std::vector<std::pair<std::string, std::pair<double, std::string>>> &
    items() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items_;
};

/** One timed interval of the traced run, kept in memory until the end. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    std::string label;
    double startUs = 0.0; ///< since the trace epoch.
    double endUs = 0.0;
};

/** The traced run's span buffer: appended from one thread, written as
 *  JSONL once the workload has finished. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    std::uint64_t add(const std::string &name, const std::string &label,
                      Clock::time_point start, Clock::time_point end,
                      std::uint64_t parent = 0);
    /** Set the end of a span added before its children finished. */
    void close(std::uint64_t id, Clock::time_point end);
    std::size_t size() const { return spans_.size(); }
    bool write(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** What one workload hands back to main(). */
struct WorkloadResult
{
    std::string budget; ///< cycle budget and pool, for the run record.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    MetricTable metrics;
};

/** One point of the paper reference table (paper_reference.json). */
struct PaperReference
{
    std::string label; ///< sweep point label, e.g. "2.8.ICOUNT".
    unsigned threads = 0;
    double ipc = 0.0;
    std::string source; ///< table and row the value is printed in.
};

/** The reference points for `workload` (fatal on a malformed file). */
std::vector<PaperReference> loadPaperReferences(const std::string &path,
                                                const std::string &workload);

/** One measured point as the paper-error report sees it. */
struct MeasuredPoint
{
    std::string label;
    unsigned threads = 0;
    double ipc = 0.0;
};

/** Print the signed error of every reference point and return the mean
 *  absolute relative error in percent. */
double reportPaperError(const std::vector<PaperReference> &refs,
                        const std::vector<MeasuredPoint> &measured);

/** Set every modelled-statistic metric (sim.*, mem.*, branch.*, core.*,
 *  stall.*) from the aggregate of a workload's points. */
void setModelMetrics(MetricTable &m, const smt::SimStats &total);

/** Order `m` as layerMetricNames(), filling metrics the workload does
 *  not exercise with 0: every traced run reports the full set. */
void completeLayerMetrics(MetricTable &m);

/** The ordered list of per-layer metric names with their units. */
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();

/**
 * The benchmark's seed: a deterministic permutation of the grid, so the
 * seed changes the order points reach the pool (its packing and tail)
 * and the store, never the simulated machine. The model inputs stay at
 * the repository default SmtConfig::seed; see README.md for why.
 */
void shufflePoints(std::vector<smt::sweep::SweepPoint> &points,
                   std::uint64_t seed);

/** Remove a directory tree (ignores absence). */
void removeTree(const std::string &path);

/** Workload entry points. */
WorkloadResult runSimWorkload(const Options &opts);
WorkloadResult runReplayWorkload(const Options &opts);

} // namespace smtbench

#endif // SMTBENCH_BENCH_HH
