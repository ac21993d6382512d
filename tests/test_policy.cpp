/**
 * @file
 * Unit tests for the policy layer: the priority ordering each fetch
 * policy's key produces on a hand-built PipelineState, the candidate
 * ordering of each issue policy's key, and a golden-stats
 * regression pinning the refactored core to the pre-refactor cycle
 * behaviour on the RR and ICOUNT.2.8 machines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "core/pipeline_state.hh"
#include "core/stages/issue.hh"
#include "policy/policy.hh"
#include "sim/simulator.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

// ---- Harness ---------------------------------------------------------------

/** Queue `inst` with both source operands ready. */
void
enqueueReady(InstructionQueue &q, DynInst *inst)
{
    q.insert(inst, &kAlwaysReady, &kAlwaysReady);
}

/** A bare machine-state fixture the policies can be queried against. */
class PolicyStateTest : public ::testing::Test
{
  protected:
    PolicyStateTest()
        : cfg_(presets::baseSmt(4)), mem_(cfg_, stats_), bp_(cfg_),
          state_(cfg_, mem_, bp_, stats_)
    {
    }

    static FetchPolicy
    fetchPolicy(const std::string &name)
    {
        FetchPolicy p{};
        EXPECT_TRUE(parseFetchPolicy(name, p)) << name;
        return p;
    }

    static IssuePolicy
    issuePolicy(const std::string &name)
    {
        IssuePolicy p{};
        EXPECT_TRUE(parseIssuePolicy(name, p)) << name;
        return p;
    }

    /** `p`'s fetch key for `tid` in the current state, with the IQPOSN
     *  queue position taken as the fetch stage takes it. */
    double
    key(FetchPolicy p, ThreadID tid)
    {
        std::array<std::size_t, kMaxThreads> pos_int{};
        std::array<std::size_t, kMaxThreads> pos_fp{};
        state_.intQueue.oldestPositions(pos_int);
        state_.fpQueue.oldestPositions(pos_fp);
        return policy::fetchKey(p, state_, tid,
                                std::min(pos_int[tid], pos_fp[tid]));
    }

    DynInst *
    mkInst(InstSeqNum seq, ThreadID tid, const StaticInst *si,
           InstStage stage = InstStage::InQueue)
    {
        DynInst *inst = state_.pool.alloc();
        inst->seq = seq;
        inst->tid = tid;
        inst->si = si;
        inst->stage = stage;
        return inst;
    }

    SmtConfig cfg_;
    SimStats stats_;
    MemoryHierarchy mem_;
    BranchPredictor bp_;
    PipelineState state_;
    StaticInst alu_; // default IntAlu, no operands.
};

// ---- Fetch policies ----------------------------------------------------------

TEST_F(PolicyStateTest, RoundRobinRanksAllThreadsEqual)
{
    const FetchPolicy p = fetchPolicy("RR");
    state_.frontAndQueueCount[0] = 12;
    state_.frontAndQueueCount[1] = 0;
    EXPECT_EQ(key(p, 0), key(p, 1));
}

TEST_F(PolicyStateTest, ICountPrefersThreadWithFewestInstructions)
{
    const FetchPolicy p = fetchPolicy("ICOUNT");
    state_.frontAndQueueCount[0] = 7;
    state_.frontAndQueueCount[1] = 2;
    state_.frontAndQueueCount[2] = 11;
    // Lower key = higher priority: thread 1 first, thread 2 last.
    EXPECT_LT(key(p, 1), key(p, 0));
    EXPECT_LT(key(p, 0), key(p, 2));
}

TEST_F(PolicyStateTest, BrCountPrefersThreadWithFewestBranches)
{
    const FetchPolicy p = fetchPolicy("BRCOUNT");
    state_.branchCount[0] = 4;
    state_.branchCount[1] = 1;
    state_.frontAndQueueCount[0] = 1; // must not matter.
    state_.frontAndQueueCount[1] = 30;
    EXPECT_LT(key(p, 1), key(p, 0));
}

TEST_F(PolicyStateTest, MissCountPenalizesOutstandingDCacheMisses)
{
    const FetchPolicy p = fetchPolicy("MISSCOUNT");
    EXPECT_EQ(key(p, 0), key(p, 1));

    // A cold D-cache access misses; the fill is outstanding for a while.
    mem_.dataAccess(0, AddressLayout::dataBase(0), false, 0);
    ASSERT_GT(mem_.outstandingDMisses(0, 1), 0u);
    EXPECT_GT(key(p, 0), key(p, 1));
}

TEST_F(PolicyStateTest, IQPosnDeprioritizesThreadNearestQueueHead)
{
    const FetchPolicy p = fetchPolicy("IQPOSN");
    // Thread 0 owns the int-queue head (position 0); thread 1's oldest
    // entry sits behind it (position 2); thread 2 has nothing in the
    // int queue (sentinel position = queue size = farthest = best).
    // Thread 3 fills the FP queue so the empty-queue sentinel there
    // (min over both queues) does not clamp threads 0-2 to zero.
    enqueueReady(state_.intQueue, mkInst(1, 0, &alu_));
    enqueueReady(state_.intQueue, mkInst(2, 0, &alu_));
    enqueueReady(state_.intQueue, mkInst(3, 1, &alu_));
    StaticInst fpop;
    fpop.op = OpClass::FpAlu;
    for (InstSeqNum seq = 4; seq <= 6; ++seq)
        enqueueReady(state_.fpQueue, mkInst(seq, 3, &fpop));
    EXPECT_GT(key(p, 0), key(p, 1));
    EXPECT_GT(key(p, 1), key(p, 2));
}

TEST_F(PolicyStateTest, IQPosnConsidersBothQueues)
{
    const FetchPolicy p = fetchPolicy("IQPOSN");
    StaticInst fpop;
    fpop.op = OpClass::FpAlu;
    // Thread 0 is one slot from the int-queue head but owns the
    // FP-queue head; thread 2 is one slot from the FP-queue head and
    // absent from the int queue. The closest position across both
    // queues governs, so thread 0 (FP head) ranks below thread 2.
    enqueueReady(state_.intQueue, mkInst(1, 1, &alu_));
    enqueueReady(state_.intQueue, mkInst(2, 0, &alu_));
    enqueueReady(state_.fpQueue, mkInst(3, 0, &fpop));
    enqueueReady(state_.fpQueue, mkInst(4, 2, &fpop));
    EXPECT_GT(key(p, 0), key(p, 2));
}

TEST_F(PolicyStateTest, HybridICountMissCountBlendsBothSignals)
{
    const FetchPolicy p = fetchPolicy("ICOUNT+MISSCOUNT");
    state_.frontAndQueueCount[0] = 2;
    state_.frontAndQueueCount[1] = 3;
    // Without misses the hybrid degenerates to ICOUNT order...
    EXPECT_LT(key(p, 0), key(p, 1));
    // ...but an outstanding miss on thread 0 outweighs its small
    // occupancy edge.
    mem_.dataAccess(0, AddressLayout::dataBase(0), false, 0);
    ASSERT_GT(mem_.outstandingDMisses(0, 1), 0u);
    EXPECT_GT(key(p, 0), key(p, 1));
}

// ---- Issue policies -----------------------------------------------------------

/** The issue order `p` gives `insts`: each is queued, keyed once and
 *  sorted by key, exactly as the issue stage's gather does. */
std::vector<InstSeqNum>
issueOrder(const PipelineState &st, IssuePolicy p,
           const std::vector<DynInst *> &insts)
{
    InstructionQueue q(32, 32);
    for (DynInst *inst : insts)
        enqueueReady(q, inst);
    std::vector<IssueCandidate> cands;
    for (std::size_t i = 0; i < q.size(); ++i)
        cands.push_back({policy::issueKey(p, st, q.slot(i)), &q.slot(i)});
    sortIssueCandidates(cands.data(), cands.size());
    std::vector<InstSeqNum> order;
    for (const IssueCandidate &c : cands)
        order.push_back(c.slot->seq);
    return order;
}

using Seqs = std::vector<InstSeqNum>;

TEST_F(PolicyStateTest, OldestFirstOrdersBySequence)
{
    const IssuePolicy p = issuePolicy("OLDEST_FIRST");
    const std::vector<DynInst *> cands = {
        mkInst(9, 0, &alu_), mkInst(3, 1, &alu_), mkInst(5, 0, &alu_)};
    EXPECT_EQ(issueOrder(state_, p, cands), (Seqs{3, 5, 9}));
}

TEST_F(PolicyStateTest, BranchFirstHoistsControlInstructions)
{
    const IssuePolicy p = issuePolicy("BRANCH_FIRST");
    StaticInst branch;
    branch.op = OpClass::CondBranch;
    const std::vector<DynInst *> cands = {mkInst(1, 0, &alu_),
                                          mkInst(8, 0, &branch),
                                          mkInst(2, 0, &alu_)};
    // The branch first, though youngest.
    EXPECT_EQ(issueOrder(state_, p, cands), (Seqs{8, 1, 2}));
}

TEST_F(PolicyStateTest, SpecLastDemotesInstructionsBehindABranch)
{
    const IssuePolicy p = issuePolicy("SPEC_LAST");
    StaticInst branch;
    branch.op = OpClass::CondBranch;
    // Thread 0 has an unresolved branch at seq 4: its seq-6 candidate
    // is speculative; thread 1's seq-9 candidate is not.
    DynInst *br = mkInst(4, 0, &branch);
    state_.threads[0].unresolvedBranches.push_back(br);
    const std::vector<DynInst *> cands = {mkInst(6, 0, &alu_),
                                          mkInst(9, 1, &alu_)};
    EXPECT_EQ(issueOrder(state_, p, cands), (Seqs{9, 6}));
}

TEST_F(PolicyStateTest, OptLastDemotesUnverifiedLoadDependents)
{
    const IssuePolicy p = issuePolicy("OPT_LAST");
    StaticInst consumer;
    consumer.src1 = LogReg::intReg(3);
    // The consumer's renamed source is optimistic (unverified) until
    // cycle 5; the plain ALU op is not.
    DynInst *opt = mkInst(2, 0, &consumer);
    opt->src1Phys = 40;
    state_.intRegs.setUnverifiedUntil(40, 5);
    const std::vector<DynInst *> cands = {opt, mkInst(7, 0, &alu_)};
    EXPECT_EQ(issueOrder(state_, p, cands), (Seqs{7, 2}));
    // Once verified, age order returns.
    state_.intRegs.setUnverifiedUntil(40, 0);
    EXPECT_EQ(issueOrder(state_, p, cands), (Seqs{2, 7}));
}

// ---- Golden-stats regression ---------------------------------------------------

/**
 * Pre-refactor committed/fetched/issued counts of the monolithic core
 * (seed 1, mixForRun, 20000 cycles), captured before SmtCore was split
 * into stage modules. The stage-per-class core must stay cycle-exact.
 */
TEST(GoldenStats, RrBaseMachineMatchesPreRefactorCore)
{
    SmtConfig cfg = presets::baseSmt(4);
    Simulator sim(cfg, mixForRun(4, 0));
    sim.run(20000);
    const SimStats &s = sim.stats();
    EXPECT_EQ(s.committedInstructions, 33373u);
    EXPECT_EQ(s.fetchedInstructions, 36046u);
    EXPECT_EQ(s.issuedInstructions, 40476u);
    EXPECT_EQ(s.condBranchMispredicts, 81u);
    EXPECT_EQ(s.dcache.misses, 1293u);
}

TEST(GoldenStats, Icount28MatchesPreRefactorCore)
{
    SmtConfig cfg = presets::icount28(4);
    Simulator sim(cfg, mixForRun(4, 0));
    sim.run(20000);
    const SimStats &s = sim.stats();
    EXPECT_EQ(s.committedInstructions, 33173u);
    EXPECT_EQ(s.fetchedInstructions, 35951u);
    EXPECT_EQ(s.issuedInstructions, 39341u);
    EXPECT_EQ(s.condBranchMispredicts, 88u);
    EXPECT_EQ(s.dcache.misses, 1261u);
    EXPECT_EQ(s.optimisticSquashes, 2467u);
}

} // namespace
} // namespace smt
