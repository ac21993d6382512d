#include "sim/simulator.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace smt
{

Simulator::Simulator(const SmtConfig &cfg,
                     const std::vector<Benchmark> &mix,
                     std::uint64_t seed_salt)
    : cfg_(cfg)
{
    cfg_.validate();
    smt_assert(mix.size() == cfg_.numThreads,
               "mix size %zu != numThreads %u", mix.size(),
               cfg_.numThreads);

    mem_ = std::make_unique<MemoryHierarchy>(cfg_, stats_);
    bp_ = std::make_unique<BranchPredictor>(cfg_);

    std::vector<ThreadProgram *> raw;
    for (unsigned t = 0; t < cfg_.numThreads; ++t) {
        const ThreadID tid = static_cast<ThreadID>(t);
        const BenchmarkProfile &prof = benchmarkProfile(mix[t]);
        const std::uint64_t image_seed =
            cfg_.seed ^ mix64(static_cast<std::uint64_t>(mix[t]) + 101);
        images_.push_back(generateProgram(prof, image_seed,
                                          AddressLayout::codeBase(tid),
                                          AddressLayout::dataBase(tid),
                                          AddressLayout::stackBase(tid)));
        const std::uint64_t oracle_seed =
            cfg_.seed ^ seed_salt ^ mix64((t + 1) * 7919);
        programs_.push_back(std::make_unique<ThreadProgram>(*images_.back(),
                                                            oracle_seed));
        raw.push_back(programs_.back().get());
    }

    core_ = std::make_unique<SmtCore>(cfg_, *mem_, *bp_, std::move(raw),
                                      stats_);
}

const SimStats &
Simulator::run(std::uint64_t max_cycles, std::uint64_t max_instructions)
{
    smt_assert(max_cycles > 0 || max_instructions > 0,
               "at least one run limit must be set");
    const Cycle stop_cycle =
        max_cycles > 0 ? core_->cycle() + max_cycles : kCycleNever;
    const std::uint64_t stop_insts =
        max_instructions > 0
            ? stats_.committedInstructions + max_instructions
            : std::numeric_limits<std::uint64_t>::max();
    while (core_->cycle() < stop_cycle &&
           stats_.committedInstructions < stop_insts) {
        core_->tick();
    }
    return stats_;
}

void
Simulator::warmup(std::uint64_t cycles)
{
    run(cycles);
    stats_ = SimStats{};
}

} // namespace smt
