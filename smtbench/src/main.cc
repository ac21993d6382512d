/**
 * @file
 * smtbench entry point:
 *
 *   smtbench --workload NAME --seed N --seconds S --trace 0|1
 *            --out-dir DIR --reference FILE --smtstore BIN
 *
 * Prints a provenance record (seed, host, nproc, pool width, budget),
 * the paper-error table, every metric with its unit, and as the last
 * line the JSON summary. Exits 1 when any output check failed.
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hh"
#include "sim/simspeed.hh"

namespace
{

using smt::sweep::Json;

int
usage()
{
    std::fprintf(stderr,
                 "usage: smtbench --workload fig5-cold|table3-warm|"
                 "replay-remote --seed N --seconds S --trace 0|1\n"
                 "                --out-dir DIR --reference FILE "
                 "--smtstore BIN\n");
    return 2;
}

unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return 1;
}

/** A number with all its digits, as JSON. */
std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    smtbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed")
            opts.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::strtod(value.c_str(), nullptr);
        else if (arg == "--trace")
            opts.trace = value == "1";
        else if (arg == "--out-dir")
            opts.outDir = value;
        else if (arg == "--reference")
            opts.referencePath = value;
        else if (arg == "--smtstore")
            opts.smtstorePath = value;
        else
            return usage();
    }
    if (opts.workload.empty() || opts.outDir.empty()
        || opts.referencePath.empty() || opts.smtstorePath.empty()
        || !(opts.seconds > 0))
        return usage();
    // Half the CPUs: on the 4-vCPU recording host, a Figure 5 sweep on
    // all four swung 11.3-17.0 s between runs (the vCPUs do not all get
    // a full core), on two it stayed within 15.5-17.1 s.
    opts.jobs = std::max(1u, nproc() / 2);
    std::filesystem::create_directories(opts.outDir);

    smtbench::WorkloadResult result;
    if (opts.workload == "fig5-cold" || opts.workload == "table3-warm")
        result = smtbench::runSimWorkload(opts);
    else if (opts.workload == "replay-remote")
        result = smtbench::runReplayWorkload(opts);
    else
        return usage();

    if (opts.trace)
        smtbench::completeLayerMetrics(result.metrics);
    for (const auto &[name, vu] : result.metrics.items()) {
        if (!std::isfinite(vu.first)) {
            std::printf("CHECK FAILED: metric %s is not finite\n",
                        name.c_str());
            ++result.failed;
        }
    }

    // Provenance: enough to re-check any later claim on a held-out seed.
    Json record = Json::object();
    record.set("workload", Json(opts.workload));
    record.set("seed", Json(opts.seed));
    record.set("seconds", Json(opts.seconds));
    record.set("trace", Json(opts.trace));
    record.set("host", Json(smt::simspeed::hostFingerprint()));
    record.set("nproc", Json(nproc()));
    record.set("pool_width", Json(opts.jobs));
    record.set("budget", Json(result.budget));
    record.set("fail_frac",
               Json(result.attempted > 0
                        ? static_cast<double>(result.failed) /
                              static_cast<double>(result.attempted)
                        : 1.0));
    std::printf("run: %s\n", record.dump().c_str());

    std::string metrics = "{";
    for (const auto &[name, vu] : result.metrics.items()) {
        std::printf("  %-34s %16.6f %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
        if (metrics.size() > 1)
            metrics += ", ";
        metrics += Json(name).dump() + ": {\"value\": " +
                   number(std::isfinite(vu.first) ? vu.first : 0.0) +
                   ", \"unit\": " + Json(vu.second).dump() + "}";
    }
    metrics += "}";
    const bool correct = result.failed == 0 && result.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
