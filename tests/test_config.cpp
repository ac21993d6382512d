/**
 * @file
 * Tests for SmtConfig: the defaults must match the paper's Section 2
 * machine, the presets must match the evaluated configurations, and
 * validate() must reject inconsistent machines.
 */

#include <gtest/gtest.h>

#include "config/config.hh"

namespace smt
{
namespace
{

TEST(Config, DefaultsMatchPaperBaseMachine)
{
    SmtConfig cfg;
    // Section 2.1 hardware.
    EXPECT_EQ(cfg.fetchWidth, 8u);
    EXPECT_EQ(cfg.decodeWidth, 8u);
    EXPECT_EQ(cfg.intUnits, 6u);
    EXPECT_EQ(cfg.loadStoreUnits, 4u);
    EXPECT_EQ(cfg.fpUnits, 3u);
    EXPECT_EQ(cfg.intQueueEntries, 32u);
    EXPECT_EQ(cfg.fpQueueEntries, 32u);
    EXPECT_EQ(cfg.excessRegisters, 100u);
    EXPECT_TRUE(cfg.longRegisterPipeline);
    // Branch prediction (Section 2.1).
    EXPECT_EQ(cfg.btbEntries, 256u);
    EXPECT_EQ(cfg.btbAssoc, 4u);
    EXPECT_EQ(cfg.phtEntries, 2048u);
    EXPECT_EQ(cfg.rasEntries, 12u);
    EXPECT_TRUE(cfg.btbThreadIds);
    // Table 2 caches.
    EXPECT_EQ(cfg.icache.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.icache.assoc, 1u);
    EXPECT_EQ(cfg.icache.banks, 8u);
    EXPECT_EQ(cfg.dcache.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(cfg.l2.assoc, 4u);
    EXPECT_EQ(cfg.l3.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.l3.assoc, 1u);
    EXPECT_EQ(cfg.icache.latencyToNext, 6u);
    EXPECT_EQ(cfg.l2.latencyToNext, 12u);
    EXPECT_EQ(cfg.l3.latencyToNext, 62u);
    EXPECT_EQ(cfg.disambiguationBits, 10u);
}

TEST(Config, PhysRegsScaleWithThreads)
{
    SmtConfig cfg;
    cfg.numThreads = 1;
    EXPECT_EQ(cfg.physRegsPerFile(), 132u); // paper: 132 for 1 thread.
    cfg.numThreads = 8;
    EXPECT_EQ(cfg.physRegsPerFile(), 356u); // paper: 356 for 8 threads.
}

TEST(Config, TotalPhysRegistersOverrides)
{
    SmtConfig cfg;
    cfg.numThreads = 4;
    cfg.totalPhysRegisters = 200;
    EXPECT_EQ(cfg.physRegsPerFile(), 200u); // Figure 7 analysis.
}

TEST(Config, FetchSchemeName)
{
    SmtConfig cfg;
    EXPECT_EQ(cfg.fetchSchemeName(), "RR.1.8");
    cfg.fetchPolicy = FetchPolicy::ICount;
    presets::setFetchPartition(cfg, 2, 8);
    EXPECT_EQ(cfg.fetchSchemeName(), "ICOUNT.2.8");
}

TEST(Config, PresetBaseSmt)
{
    const SmtConfig cfg = presets::baseSmt(8);
    EXPECT_EQ(cfg.numThreads, 8u);
    EXPECT_EQ(cfg.fetchPolicy, FetchPolicy::RoundRobin);
    EXPECT_EQ(cfg.fetchThreads, 1u);
    EXPECT_EQ(cfg.fetchPerThread, 8u);
    EXPECT_TRUE(cfg.longRegisterPipeline);
    cfg.validate();
}

TEST(Config, PresetUnmodifiedSuperscalar)
{
    const SmtConfig cfg = presets::unmodifiedSuperscalar();
    EXPECT_EQ(cfg.numThreads, 1u);
    EXPECT_FALSE(cfg.longRegisterPipeline);
    cfg.validate();
}

TEST(Config, PresetICount28)
{
    const SmtConfig cfg = presets::icount28(4);
    EXPECT_EQ(cfg.fetchPolicy, FetchPolicy::ICount);
    EXPECT_EQ(cfg.fetchThreads, 2u);
    EXPECT_EQ(cfg.fetchPerThread, 8u);
    cfg.validate();
}

TEST(ConfigDeath, RejectsZeroThreads)
{
    SmtConfig cfg;
    cfg.numThreads = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "numThreads");
}

TEST(ConfigDeath, RejectsTooManyThreads)
{
    SmtConfig cfg;
    cfg.numThreads = 9;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "numThreads");
}

TEST(ConfigDeath, RejectsTinyRegisterFile)
{
    SmtConfig cfg;
    cfg.numThreads = 8;
    cfg.totalPhysRegisters = 256; // exactly the architectural registers.
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "physical registers");
}

TEST(ConfigDeath, RejectsSearchWindowBeyondQueue)
{
    SmtConfig cfg;
    cfg.iqSearchWindow = 64; // queues are 32.
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "iqSearchWindow");
}

TEST(ConfigDeath, RejectsMoreLoadStoreThanIntUnits)
{
    SmtConfig cfg;
    cfg.loadStoreUnits = 7;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "loadStoreUnits");
}

TEST(Config, PolicyNames)
{
    EXPECT_STREQ(toString(FetchPolicy::RoundRobin), "RR");
    EXPECT_STREQ(toString(FetchPolicy::BrCount), "BRCOUNT");
    EXPECT_STREQ(toString(FetchPolicy::MissCount), "MISSCOUNT");
    EXPECT_STREQ(toString(FetchPolicy::ICount), "ICOUNT");
    EXPECT_STREQ(toString(FetchPolicy::IQPosn), "IQPOSN");
    EXPECT_STREQ(toString(FetchPolicy::ICountMissCount),
                 "ICOUNT+MISSCOUNT");
    EXPECT_STREQ(toString(IssuePolicy::OldestFirst), "OLDEST_FIRST");
    EXPECT_STREQ(toString(IssuePolicy::OptLast), "OPT_LAST");
    EXPECT_STREQ(toString(IssuePolicy::SpecLast), "SPEC_LAST");
    EXPECT_STREQ(toString(IssuePolicy::BranchFirst), "BRANCH_FIRST");

    // The lists hold every enum value once, in enum order, and each
    // name parses back to its value.
    unsigned i = 0;
    for (FetchPolicy p : kFetchPolicies) {
        EXPECT_EQ(static_cast<unsigned>(p), i++);
        FetchPolicy back = FetchPolicy::RoundRobin;
        EXPECT_TRUE(parseFetchPolicy(toString(p), back)) << toString(p);
        EXPECT_EQ(back, p);
    }
    EXPECT_EQ(i, static_cast<unsigned>(FetchPolicy::ICountMissCount) + 1);
    i = 0;
    for (IssuePolicy p : kIssuePolicies) {
        EXPECT_EQ(static_cast<unsigned>(p), i++);
        IssuePolicy back = IssuePolicy::OldestFirst;
        EXPECT_TRUE(parseIssuePolicy(toString(p), back)) << toString(p);
        EXPECT_EQ(back, p);
    }
    EXPECT_EQ(i, static_cast<unsigned>(IssuePolicy::BranchFirst) + 1);

    FetchPolicy fetch = FetchPolicy::IQPosn;
    EXPECT_FALSE(parseFetchPolicy("icount", fetch)); // names are exact
    EXPECT_FALSE(parseFetchPolicy("OLDEST_FIRST", fetch));
    EXPECT_EQ(fetch, FetchPolicy::IQPosn); // untouched on failure
    IssuePolicy issue = IssuePolicy::SpecLast;
    EXPECT_FALSE(parseIssuePolicy("NOPE", issue));
    EXPECT_EQ(issue, IssuePolicy::SpecLast);
}

} // namespace
} // namespace smt
