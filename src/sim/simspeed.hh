/**
 * @file
 * Simspeed: how fast does the *simulator* run, in simulated cycles per
 * wall-clock second?
 *
 * This is a meta-benchmark of the implementation, not a result of the
 * paper: it exists so hot-path changes (the SoA pipeline scans, the
 * event-driven issue walk) are measured, and so CI can refuse a silent
 * slowdown. One library feeds both front ends — `smtsweep
 * --bench-simspeed` (no external dependencies) and the google-benchmark
 * harness in bench/ — and both emit the same BENCH_simspeed.json
 * ("smt-simspeed-v1"):
 *
 *   {
 *     "schema": "smt-simspeed-v1",
 *     "host": { "cpu": ..., "hardware_threads": ... },
 *     "options": { warmup/measure cycle counts, repeats },
 *     "shapes": [ { "name", "threads", policies, "cycles_per_sec",
 *                   "ipc", "stage_ns": {...} }, ... ]
 *   }
 *
 * scripts/simspeed-ab.sh compares `cycles_per_sec` per shape between
 * two builds run interleaved on one host (wall-clock numbers do not
 * transfer between machines).
 */

#ifndef SMT_SIM_SIMSPEED_HH
#define SMT_SIM_SIMSPEED_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "config/config.hh"
#include "core/core.hh"
#include "sweep/json.hh"
#include "workload/profile.hh"

namespace smt::simspeed
{

/** One machine shape the benchmark sweeps. */
struct ShapeSpec
{
    std::string name; ///< stable key, e.g. "icount28_t4".
    SmtConfig cfg;
    std::vector<Benchmark> mix;
};

/** Measurement knobs. */
struct Options
{
    std::uint64_t warmupCycles = 2000;
    std::uint64_t measureCycles = 20000;
    unsigned repeats = 3; ///< best-of-N wall-clock (noise rejection).
    bool stageBreakdown = true;

    /** A/B the pipeline microscope (`--pipe-ab`): also measure each
     *  shape with a full-window `obs::PipeTrace` streaming to
     *  /dev/null, so the cost of tracing *on* is a printed ratio —
     *  and the gated `cycles_per_sec` (hook compiled in but off)
     *  stays the headline number. */
    bool pipeAb = false;
};

/** One shape's measurement. */
struct ShapeResult
{
    std::string name;
    unsigned threads = 0;
    std::string fetchPolicy;
    std::string issuePolicy;

    std::uint64_t cycles = 0;       ///< simulated cycles measured.
    std::uint64_t instructions = 0; ///< committed in the window.
    double ipc = 0.0;
    double seconds = 0.0;      ///< best repeat's wall-clock.
    double cyclesPerSec = 0.0; ///< cycles / seconds (the gated metric).

    /** Throughput with a full-window pipetrace attached (to
     *  /dev/null); 0 when the A/B pass was not requested. Never
     *  gated — tracing is allowed to cost what it costs. */
    double cyclesPerSecPipeOn = 0.0;

    /** Wall-clock per stage over one tickTimed() pass (not part of the
     *  throughput number above, which times plain tick()). */
    std::array<std::uint64_t, StageTimes::kNumStages> stageNs{};
};

/** The default shape set: the ICOUNT.2.8 machine of Section 5 at 1, 4,
 *  and 8 threads, the RR.1.8 base machine at 4 and 8, and the
 *  large-queue configuration at 8. */
std::vector<ShapeSpec> defaultShapes();

/** Measure one shape. */
ShapeResult measureShape(const ShapeSpec &shape, const Options &opts);

/** Measure every shape (in order). */
std::vector<ShapeResult> measureAll(const std::vector<ShapeSpec> &shapes,
                                    const Options &opts);

/** "cpu model / hardware threads" — guards baseline comparisons. */
std::string hostFingerprint();

/** Render results as the "smt-simspeed-v1" document. */
sweep::Json toJson(const std::vector<ShapeResult> &results,
                   const Options &opts);

/** One aligned human-readable table line per shape. */
std::string formatTable(const std::vector<ShapeResult> &results);

} // namespace smt::simspeed

#endif // SMT_SIM_SIMSPEED_HH
