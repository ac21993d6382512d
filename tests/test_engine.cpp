/**
 * @file
 * Core tests: every (fetch, issue) policy pair runs and keeps the
 * structural invariants, the fetch candidate insertion sort matches
 * std::sort's strict-total-order result, and the steady-state hot path
 * does not allocate (instruction pool audits).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "core/stages/fetch.hh"
#include "sim/simulator.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

// ---- Every policy pair ------------------------------------------------------

TEST(PolicyPairs, EveryFetchIssuePairRunsAndKeepsInvariants)
{
    for (FetchPolicy fp : kFetchPolicies) {
        for (IssuePolicy ip : kIssuePolicies) {
            SmtConfig cfg = presets::baseSmt(4);
            cfg.fetchPolicy = fp;
            cfg.issuePolicy = ip;
            Simulator sim(cfg, mixForRun(4, 0));
            for (unsigned chunk = 0; chunk < 4; ++chunk) {
                sim.run(750);
                sim.core().validateInvariants();
            }
            EXPECT_GT(sim.stats().committedInstructions, 500u)
                << toString(fp) << "." << toString(ip);
        }
    }
}

// ---- Fetch candidate ordering ----------------------------------------------

TEST(FetchSort, MatchesStdSortOnEveryPermutation)
{
    // (key, rr) is a strict total order (rr ranks are unique), so the
    // insertion sort must agree with std::sort from any input
    // permutation — including key ties broken by rr.
    const std::array<FetchCandidate, 5> base = {{
        {2.0, 1, 0},
        {2.0, 0, 1},
        {1.0, 3, 2},
        {7.0, 2, 3},
        {1.0, 4, 4},
    }};
    std::array<unsigned, 5> idx = {0, 1, 2, 3, 4};
    do {
        std::array<FetchCandidate, 5> mine;
        for (unsigned i = 0; i < 5; ++i)
            mine[i] = base[idx[i]];
        std::array<FetchCandidate, 5> ref = mine;

        sortFetchCandidates(mine.data(), 5);
        std::sort(ref.begin(), ref.end(),
                  [](const FetchCandidate &a, const FetchCandidate &b) {
                      if (a.key != b.key)
                          return a.key < b.key;
                      return a.rr < b.rr;
                  });
        for (unsigned i = 0; i < 5; ++i)
            ASSERT_EQ(mine[i].tid, ref[i].tid);
    } while (std::next_permutation(idx.begin(), idx.end()));
}

TEST(FetchSort, KeyTiesBreakTowardLowerRoundRobinRank)
{
    std::array<FetchCandidate, 3> cands = {{
        {5.0, 2, 7},
        {5.0, 0, 3},
        {5.0, 1, 5},
    }};
    sortFetchCandidates(cands.data(), 3);
    EXPECT_EQ(cands[0].tid, 3);
    EXPECT_EQ(cands[1].tid, 5);
    EXPECT_EQ(cands[2].tid, 7);
}

// ---- Steady-state allocation audit ------------------------------------------

TEST(AllocationAudit, InstPoolStopsGrowingAfterWarmup)
{
    SmtConfig cfg = presets::icount28(4);
    Simulator sim(cfg, mixForRun(4, 0));
    sim.run(30000); // reach the in-flight high-water mark.

    const std::size_t highWater = sim.core().poolAllocated();
    sim.run(20000);
    EXPECT_EQ(sim.core().poolAllocated(), highWater)
        << "DynInst allocations on the steady-state path";
}

TEST(AllocationAudit, EightThreadMachineAlsoStabilizes)
{
    SmtConfig cfg = presets::icount28(8);
    Simulator sim(cfg, mixForRun(8, 0));
    // The 8-thread machine hits rare deep wrong-path bursts that nudge
    // the in-flight record up past cycle 40k; it plateaus by 50k.
    sim.run(60000);
    const std::size_t highWater = sim.core().poolAllocated();
    sim.run(20000);
    EXPECT_EQ(sim.core().poolAllocated(), highWater)
        << "DynInst allocations on the steady-state path";
}

} // namespace
} // namespace smt
