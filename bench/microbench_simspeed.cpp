/**
 * @file
 * Raw simulator performance (google-benchmark): simulated cycles per
 * wall-clock second for representative machine shapes. Useful when
 * changing hot pipeline code paths.
 *
 * Beyond the BM_* microbenchmarks, `--simspeed_out=PATH` also writes
 * the same "smt-simspeed-v1" BENCH_simspeed.json artifact as
 * `smtsweep --bench-simspeed` (both front ends share
 * src/sim/simspeed.*). scripts/simspeed-ab.sh is the regression gate:
 * it A/Bs two builds' `smtsweep --bench-simspeed` on one host.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "sim/simspeed.hh"
#include "sim/simulator.hh"
#include "sweep/runner.hh"
#include "workload/mix.hh"

namespace
{

void
BM_TickThroughput(benchmark::State &state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    smt::SmtConfig cfg = smt::presets::icount28(threads);
    smt::Simulator sim(cfg, smt::mixForRun(threads, 0));
    sim.run(2000); // warm the machine.
    for (auto _ : state) {
        sim.run(1000);
        benchmark::DoNotOptimize(sim.stats().committedInstructions);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
    state.counters["IPC"] = sim.stats().ipc();
}

/** RR.1.8 base machine (round-robin fetch, Section 4). */
void
BM_TickThroughputRr(benchmark::State &state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    smt::SmtConfig cfg = smt::presets::baseSmt(threads);
    smt::Simulator sim(cfg, smt::mixForRun(threads, 0));
    sim.run(2000);
    for (auto _ : state) {
        sim.run(1000);
        benchmark::DoNotOptimize(sim.stats().committedInstructions);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
    state.counters["IPC"] = sim.stats().ipc();
}

void
BM_ProgramGeneration(benchmark::State &state)
{
    const auto bench = smt::allBenchmarks()[static_cast<std::size_t>(
        state.range(0))];
    std::uint64_t seed = 1;
    for (auto _ : state) {
        auto image = smt::generateProgram(
            smt::benchmarkProfile(bench), seed++,
            smt::AddressLayout::codeBase(0), smt::AddressLayout::dataBase(0),
            smt::AddressLayout::stackBase(0));
        benchmark::DoNotOptimize(image->numInsts());
    }
}

} // namespace

BENCHMARK(BM_TickThroughput)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TickThroughputRr)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProgramGeneration)->Arg(0)->Arg(3)->Arg(6);

int
main(int argc, char **argv)
{
    // Strip our flag before google-benchmark sees (and rejects) it.
    std::string simspeed_out;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        constexpr const char *kFlag = "--simspeed_out=";
        if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0)
            simspeed_out = argv[i] + std::strlen(kFlag);
        else
            args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (!simspeed_out.empty()) {
        const smt::simspeed::Options opts;
        const auto results = smt::simspeed::measureAll(
            smt::simspeed::defaultShapes(), opts);
        std::fputs(smt::simspeed::formatTable(results).c_str(), stdout);
        smt::sweep::writeJsonFile(simspeed_out,
                                  smt::simspeed::toJson(results, opts));
        std::printf("wrote %s\n", simspeed_out.c_str());
    }
    return 0;
}
