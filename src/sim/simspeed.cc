#include "sim/simspeed.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "obs/pipe_trace.hh"
#include "sim/simulator.hh"
#include "workload/mix.hh"

namespace smt::simspeed
{
namespace
{

ShapeSpec
shape(std::string name, SmtConfig cfg)
{
    ShapeSpec s;
    s.name = std::move(name);
    s.mix = mixForRun(cfg.numThreads, 0);
    s.cfg = std::move(cfg);
    return s;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

std::vector<ShapeSpec>
defaultShapes()
{
    std::vector<ShapeSpec> shapes;
    shapes.push_back(shape("icount28_t1", presets::icount28(1)));
    shapes.push_back(shape("icount28_t4", presets::icount28(4)));
    shapes.push_back(shape("icount28_t8", presets::icount28(8)));
    shapes.push_back(shape("rr18_t4", presets::baseSmt(4)));
    shapes.push_back(shape("rr18_t8", presets::baseSmt(8)));
    SmtConfig bigq = presets::icount28(8);
    bigq.intQueueEntries = 64;
    bigq.fpQueueEntries = 64;
    shapes.push_back(shape("bigq_icount28_t8", std::move(bigq)));
    return shapes;
}

ShapeResult
measureShape(const ShapeSpec &spec, const Options &opts)
{
    ShapeResult r;
    r.name = spec.name;
    r.threads = spec.cfg.numThreads;
    r.fetchPolicy = toString(spec.cfg.fetchPolicy);
    r.issuePolicy = toString(spec.cfg.issuePolicy);

    // Best-of-N on fresh machines: each repeat re-runs the identical
    // deterministic simulation, so the fastest wall-clock is the least
    // noise-disturbed measurement of the same work.
    for (unsigned rep = 0; rep < std::max(1u, opts.repeats); ++rep) {
        Simulator sim(spec.cfg, spec.mix);
        sim.warmup(opts.warmupCycles);
        const auto t0 = std::chrono::steady_clock::now();
        sim.run(opts.measureCycles);
        const double secs = secondsSince(t0);
        if (rep == 0 || secs < r.seconds) {
            r.seconds = secs;
            r.cycles = sim.stats().cycles;
            r.instructions = sim.stats().committedInstructions;
            r.ipc = sim.stats().ipc();
        }
    }
    r.cyclesPerSec =
        r.seconds > 0.0 ? static_cast<double>(r.cycles) / r.seconds : 0.0;

    if (opts.pipeAb) {
        // The "tracing on" arm: identical simulation, full admission
        // window, lines formatted and flushed — but to /dev/null, so
        // the ratio isolates the tracer's own cost from disk speed.
        obs::PipeTraceSink sink("/dev/null");
        double best = 0.0;
        std::uint64_t cycles = 0;
        for (unsigned rep = 0; rep < std::max(1u, opts.repeats); ++rep) {
            Simulator sim(spec.cfg, spec.mix);
            obs::PipeTrace pipe(sink, obs::PipeTraceOptions{});
            sim.attachPipeTrace(&pipe);
            sim.warmup(opts.warmupCycles);
            const auto t0 = std::chrono::steady_clock::now();
            sim.run(opts.measureCycles);
            const double secs = secondsSince(t0);
            pipe.finish();
            if (rep == 0 || secs < best) {
                best = secs;
                cycles = sim.stats().cycles;
            }
        }
        r.cyclesPerSecPipeOn =
            best > 0.0 ? static_cast<double>(cycles) / best : 0.0;
    }

    if (opts.stageBreakdown) {
        // A separate instrumented pass: the two clock reads per stage
        // would distort the throughput number above.
        Simulator sim(spec.cfg, spec.mix);
        sim.warmup(opts.warmupCycles);
        StageTimes times;
        for (std::uint64_t c = 0; c < opts.measureCycles; ++c)
            sim.core().tickTimed(times);
        r.stageNs = times.ns;
    }
    return r;
}

std::vector<ShapeResult>
measureAll(const std::vector<ShapeSpec> &shapes, const Options &opts)
{
    std::vector<ShapeResult> results;
    results.reserve(shapes.size());
    for (const ShapeSpec &s : shapes)
        results.push_back(measureShape(s, opts));
    return results;
}

std::string
hostFingerprint()
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const auto pos = line.find("model name");
        if (pos != std::string::npos) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                cpu = line.substr(colon + 1);
                while (!cpu.empty() && cpu.front() == ' ')
                    cpu.erase(cpu.begin());
            }
            break;
        }
    }
    return cpu + " / " +
           std::to_string(std::thread::hardware_concurrency()) + "hw";
}

sweep::Json
toJson(const std::vector<ShapeResult> &results, const Options &opts)
{
    sweep::Json doc = sweep::Json::object();
    doc.set("schema", sweep::Json("smt-simspeed-v1"));

    sweep::Json host = sweep::Json::object();
    host.set("fingerprint", sweep::Json(hostFingerprint()));
    host.set("hardware_threads",
             sweep::Json(static_cast<std::uint64_t>(
                 std::thread::hardware_concurrency())));
    doc.set("host", std::move(host));

    sweep::Json o = sweep::Json::object();
    o.set("warmup_cycles", sweep::Json(opts.warmupCycles));
    o.set("measure_cycles", sweep::Json(opts.measureCycles));
    o.set("repeats",
          sweep::Json(static_cast<std::uint64_t>(opts.repeats)));
    doc.set("options", std::move(o));

    sweep::Json shapes = sweep::Json::array();
    for (const ShapeResult &r : results) {
        sweep::Json s = sweep::Json::object();
        s.set("name", sweep::Json(r.name));
        s.set("threads",
              sweep::Json(static_cast<std::uint64_t>(r.threads)));
        s.set("fetch_policy", sweep::Json(r.fetchPolicy));
        s.set("issue_policy", sweep::Json(r.issuePolicy));
        s.set("cycles", sweep::Json(r.cycles));
        s.set("instructions", sweep::Json(r.instructions));
        s.set("ipc", sweep::Json(r.ipc));
        s.set("seconds", sweep::Json(r.seconds));
        s.set("cycles_per_sec", sweep::Json(r.cyclesPerSec));
        if (r.cyclesPerSecPipeOn > 0.0) {
            s.set("cycles_per_sec_pipe_on",
                  sweep::Json(r.cyclesPerSecPipeOn));
            s.set("pipe_on_ratio",
                  sweep::Json(r.cyclesPerSec > 0.0
                                  ? r.cyclesPerSecPipeOn / r.cyclesPerSec
                                  : 0.0));
        }
        sweep::Json stages = sweep::Json::object();
        for (unsigned i = 0; i < StageTimes::kNumStages; ++i)
            stages.set(StageTimes::stageName(i),
                       sweep::Json(r.stageNs[i]));
        s.set("stage_ns", std::move(stages));
        shapes.push(std::move(s));
    }
    doc.set("shapes", std::move(shapes));
    return doc;
}

std::string
formatTable(const std::vector<ShapeResult> &results)
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "%-20s %7s %11s %7s %s\n",
                  "shape", "threads", "cyc/sec", "IPC", "hottest stage");
    out += line;
    for (const ShapeResult &r : results) {
        unsigned hot = 0;
        for (unsigned i = 1; i < StageTimes::kNumStages; ++i)
            if (r.stageNs[i] > r.stageNs[hot])
                hot = i;
        const std::uint64_t total =
            StageTimes{r.stageNs}.totalNs();
        std::snprintf(line, sizeof(line),
                      "%-20s %7u %11.0f %7.3f %s (%.0f%%)\n",
                      r.name.c_str(), r.threads, r.cyclesPerSec, r.ipc,
                      StageTimes::stageName(hot),
                      total > 0 ? 100.0 * static_cast<double>(
                                              r.stageNs[hot]) /
                                      static_cast<double>(total)
                                : 0.0);
        out += line;
    }

    bool any_ab = false;
    for (const ShapeResult &r : results)
        any_ab = any_ab || r.cyclesPerSecPipeOn > 0.0;
    if (any_ab) {
        out += "\npipetrace A/B (off = gated number; on = full-window "
               "trace to /dev/null):\n";
        std::snprintf(line, sizeof(line), "%-20s %11s %11s %7s\n",
                      "shape", "off cyc/s", "on cyc/s", "on/off");
        out += line;
        for (const ShapeResult &r : results) {
            if (r.cyclesPerSecPipeOn <= 0.0)
                continue;
            std::snprintf(line, sizeof(line),
                          "%-20s %11.0f %11.0f %6.2fx\n",
                          r.name.c_str(), r.cyclesPerSec,
                          r.cyclesPerSecPipeOn,
                          r.cyclesPerSec > 0.0
                              ? r.cyclesPerSecPipeOn / r.cyclesPerSec
                              : 0.0);
            out += line;
        }
    }
    return out;
}

} // namespace smt::simspeed
