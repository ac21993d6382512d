/**
 * @file
 * Stall-accounting invariants: the per-cause counters added for the
 * observability work must form a closed ledger, not an approximation.
 * For every (fetch, issue) policy pair:
 *
 *  - fetch dispositions partition time: per thread, the five fetch
 *    outcome counters sum exactly to the run's cycle count (exactly
 *    one disposition is recorded per thread per cycle);
 *  - the human stall report's grand total equals totalStalledSlots().
 *
 * An ideal machine (single thread, no misses, infinite FUs/registers/
 * bandwidth, perfect prediction) zeroes every *machine-loss* cause;
 * what remains is intrinsic to the workload's data dependences.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "sim/simulator.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

void
checkLedger(const SimStats &stats, unsigned threads,
            const std::string &what)
{
    const StallStats &sl = stats.stalls;

    // Fetch dispositions partition the cycles, thread by thread.
    for (unsigned t = 0; t < threads; ++t) {
        const std::uint64_t partition =
            sl.fetchActive[t] + sl.fetchIcacheMiss[t]
            + sl.fetchFrontEndFull[t] + sl.fetchNoTarget[t]
            + sl.fetchLostSelection[t];
        EXPECT_EQ(partition, stats.cycles)
            << what << ": fetch outcomes of thread " << t
            << " do not partition the cycles";
    }
    // Unused contexts must stay untouched.
    for (unsigned t = threads; t < kMaxThreads; ++t) {
        EXPECT_EQ(sl.fetchActive[t] + sl.fetchStalled(t)
                      + sl.renameIQFull[t] + sl.renameNoRegisters[t]
                      + sl.issueOperandWait[t] + sl.issueFuBusy[t],
                  0u)
            << what << ": unused thread slot " << t << " has counts";
    }

    // The per-cause sum *is* the total — nothing uncounted, nothing
    // double-counted.
    std::uint64_t sum = sl.issueNoCandidatesCycles;
    for (unsigned t = 0; t < kMaxThreads; ++t)
        sum += sl.fetchStalled(t) + sl.renameIQFull[t]
               + sl.renameNoRegisters[t] + sl.issueOperandWait[t]
               + sl.issueFuBusy[t];
    EXPECT_EQ(sum, sl.totalStalledSlots()) << what;

    // The human report must account for exactly the same grand total.
    const std::string report = stats.stallReport(threads);
    const std::string total_line = "total stalled slots";
    const std::size_t pos = report.find(total_line);
    ASSERT_NE(pos, std::string::npos) << what;
    EXPECT_NE(report.find(std::to_string(sl.totalStalledSlots()), pos),
              std::string::npos)
        << what << ": report total differs from totalStalledSlots()\n"
        << report;
}

TEST(StallAccounting, LedgerClosesForEveryPolicyPair)
{
    for (FetchPolicy fp : kFetchPolicies) {
        for (IssuePolicy ip : kIssuePolicies) {
            SmtConfig cfg = presets::baseSmt(4);
            cfg.fetchPolicy = fp;
            cfg.issuePolicy = ip;
            Simulator sim(cfg, mixForRun(4, 0));
            sim.run(6000);
            checkLedger(sim.stats(), 4,
                        std::string(toString(fp)) + "." + toString(ip));
        }
    }
}

TEST(StallAccounting, WarmupResetsTheLedgerInLockstepWithCycles)
{
    SmtConfig cfg = presets::icount28(2);
    Simulator sim(cfg, mixForRun(2, 0), 0);
    sim.warmup(3000);
    sim.run(4000);
    // The partition invariant can only hold post-warmup if the stall
    // counters were cleared together with the cycle counter.
    checkLedger(sim.stats(), 2, "after warmup");
}

TEST(StallAccounting, IdealMachineZeroesEveryMachineLossCause)
{
    // Single thread, caches far larger than the footprint, perfect
    // branch prediction, infinite functional units and bandwidth,
    // effectively unbounded registers and queues: every stall cause
    // attributable to the *machine* must read zero. What remains
    // (operand waits, queue backpressure) is the workload's own
    // dependence structure, which no machine resource removes.
    SmtConfig cfg = presets::baseSmt(1);
    cfg.perfectBranchPrediction = true;
    cfg.infiniteFunctionalUnits = true;
    cfg.infiniteCacheBandwidth = true;
    cfg.icache.sizeBytes = 8 * 1024 * 1024;
    cfg.icache.assoc = 8;
    cfg.dcache.sizeBytes = 8 * 1024 * 1024;
    cfg.dcache.assoc = 8;
    cfg.l2.sizeBytes = 32 * 1024 * 1024;
    cfg.excessRegisters = 4000;
    cfg.intQueueEntries = 256;
    cfg.fpQueueEntries = 256;
    cfg.iqSearchWindow = 256;
    cfg.itlbEntries = 4096;
    cfg.dtlbEntries = 4096;

    Simulator sim(cfg, mixForRun(1, 0), 0);
    sim.warmup(30000); // long enough to touch every code page.
    sim.run(6000);

    const StallStats &sl = sim.stats().stalls;
    EXPECT_EQ(sl.fetchIcacheMiss[0], 0u);
    EXPECT_EQ(sl.fetchNoTarget[0], 0u);       // perfect prediction.
    EXPECT_EQ(sl.fetchLostSelection[0], 0u);  // nobody to lose to.
    EXPECT_EQ(sl.renameNoRegisters[0], 0u);
    EXPECT_EQ(sl.issueFuBusy[0], 0u);
    EXPECT_EQ(sl.issueNoCandidatesCycles, 0u);
    // The machine still made progress, and the ledger still closes.
    EXPECT_GT(sl.fetchActive[0], 0u);
    checkLedger(sim.stats(), 1, "ideal machine");
}

} // namespace
} // namespace smt
