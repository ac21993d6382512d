/**
 * @file
 * Core-engine dispatch tests: the specialized (devirtualized-policy)
 * engines must be cycle-identical to the generic virtual-dispatch
 * engine for every specialized policy pair, a pair without a
 * specialization must run the generic engine, the fetch candidate
 * insertion sort must match std::sort's strict-total-order result, and
 * the steady-state hot path must not allocate (instruction pool and
 * oracle ring audits).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "core/stages/fetch.hh"
#include "policy_pairs.hh"
#include "sim/simulator.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

// ---- Specialized vs generic: cycle identity --------------------------------

/** The stat fields a single divergent cycle anywhere would disturb. */
struct StatKey
{
    std::uint64_t cycles, committed, fetched, fetchedWrongPath, issued,
        issuedWrongPath, optimisticSquashes, mispredicts, dcacheMisses;

    static StatKey
    of(const SimStats &s)
    {
        return {s.cycles,
                s.committedInstructions,
                s.fetchedInstructions,
                s.fetchedWrongPath,
                s.issuedInstructions,
                s.issuedWrongPath,
                s.optimisticSquashes,
                s.condBranchMispredicts,
                s.dcache.misses};
    }

    bool
    operator==(const StatKey &o) const
    {
        return cycles == o.cycles && committed == o.committed &&
               fetched == o.fetched &&
               fetchedWrongPath == o.fetchedWrongPath &&
               issued == o.issued &&
               issuedWrongPath == o.issuedWrongPath &&
               optimisticSquashes == o.optimisticSquashes &&
               mispredicts == o.mispredicts &&
               dcacheMisses == o.dcacheMisses;
    }
};

TEST(EngineMatrix, SpecializedIsCycleIdenticalToGenericForAllPairs)
{
    for (const PolicyPair &pair : kSpecializedPairs) {
        SmtConfig cfg = presets::baseSmt(4);
        cfg.fetchPolicy = pair.fetch;
        cfg.issuePolicy = pair.issue;

        Simulator spec(cfg, mixForRun(4, 0), 0, CoreDispatch::Auto);
        Simulator gen(cfg, mixForRun(4, 0), 0,
                      CoreDispatch::ForceGeneric);

        EXPECT_STREQ(spec.core().engineKind(), "specialized")
            << pair.name();
        EXPECT_STREQ(gen.core().engineKind(), "generic") << pair.name();
        EXPECT_STREQ(spec.core().fetchPolicy().name(), toString(pair.fetch));
        EXPECT_STREQ(spec.core().issuePolicy().name(), toString(pair.issue));

        spec.run(6000);
        gen.run(6000);
        EXPECT_TRUE(StatKey::of(spec.stats()) == StatKey::of(gen.stats()))
            << "stats diverged for " << pair.name();
        spec.core().validateInvariants();
        gen.core().validateInvariants();
    }
}

// ---- Dispatch: pairs without a specialization ----------------------------

TEST(EngineDispatch, UnlistedPairRunsGeneric)
{
    // No paper sweep pairs BRCOUNT fetch with OPT_LAST issue, so no
    // specialized engine exists for it: the generic engine runs it.
    SmtConfig cfg = presets::baseSmt(2);
    cfg.fetchPolicy = FetchPolicy::BrCount;
    cfg.issuePolicy = IssuePolicy::OptLast;
    Simulator sim(cfg, mixForRun(2, 0));
    EXPECT_STREQ(sim.core().engineKind(), "generic");
    EXPECT_STREQ(sim.core().fetchPolicy().name(), "BRCOUNT");
    EXPECT_STREQ(sim.core().issuePolicy().name(), "OPT_LAST");
    sim.run(3000);
    EXPECT_GT(sim.stats().committedInstructions, 500u);
    sim.core().validateInvariants();
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
