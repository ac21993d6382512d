/**
 * @file
 * Mechanism tests for the issue stage's wakeup cells and queue slots,
 * on a hand-driven one-thread PipelineState: instructions enter through
 * the real rename stage (which records each source's wakeup cell), and
 * the test ticks execute and issue in the core's order.
 *
 *  - a zero-latency Compare wakes a dependent that the policy visits
 *    after it in the same cycle, but not one visited before it;
 *  - a load miss pushes its consumers' cells out to the fill;
 *  - a stale-wakeup or bank-conflict requeue revokes the cells of the
 *    requeued instructions' consumers and re-opens their slots;
 *  - a blocked load stays blocked exactly while the store it recorded
 *    is pending, even when that store's DynInst is recycled.
 */

#include <gtest/gtest.h>

#include "core/pipeline_state.hh"
#include "core/stages/execute.hh"
#include "core/stages/issue.hh"
#include "core/stages/rename_dispatch.hh"
#include "workload/code_image.hh"

namespace smt
{
namespace
{

class IssueHarness
{
  public:
    explicit IssueHarness(IssuePolicy policy = IssuePolicy::OldestFirst)
        : cfg_(withIssuePolicy(presets::baseSmt(1), policy)),
          mem_(cfg_, stats_), bp_(cfg_), st_(cfg_, mem_, bp_, stats_),
          rename_(st_), execute_(st_), issue_(st_)
    {
        st_.cycle = 1;
    }

    /** Queue `si` in thread 0's front end as decoded last cycle, so
     *  the next rename tick renames and dispatches it. */
    DynInst *
    decoded(const StaticInst *si, Addr mem_addr = 0)
    {
        DynInst *inst = st_.pool.alloc();
        inst->seq = st_.nextSeq++;
        inst->si = si;
        inst->memAddr = mem_addr;
        inst->stage = InstStage::Decoded;
        inst->decodeCycle = st_.cycle - 1;
        st_.threads[0].frontEnd.push_back(inst);
        ++st_.frontAndQueueCount[0];
        if (inst->isControl())
            ++st_.branchCount[0];
        return inst;
    }

    /** One machine cycle of the stages under test, in tick order. */
    void
    step()
    {
        execute_.tick();
        issue_.tick();
        rename_.tick();
        ++st_.cycle;
    }

    /** Run until the start of cycle `c` (exclusive of its stages). */
    void
    runUntil(Cycle c)
    {
        while (st_.cycle < c)
            step();
    }

    const IqSlot &
    slotOf(const DynInst *inst) const
    {
        const InstructionQueue &q =
            inst->inIntQueue ? st_.intQueue : st_.fpQueue;
        for (std::size_t i = 0; i < q.size(); ++i)
            if (q.at(i) == inst)
                return q.slot(i);
        ADD_FAILURE() << "seq " << inst->seq << " holds no queue slot";
        static const IqSlot none;
        return none;
    }

    SmtConfig cfg_;
    SimStats stats_;
    MemoryHierarchy mem_;
    BranchPredictor bp_;
    PipelineState st_;
    RenameDispatchStage rename_;
    ExecuteStage execute_;
    IssueStage issue_;

  private:
    static SmtConfig
    withIssuePolicy(SmtConfig cfg, IssuePolicy policy)
    {
        cfg.issuePolicy = policy;
        return cfg;
    }
};

StaticInst
op(OpClass c, LogReg dest = {}, LogReg src1 = {})
{
    StaticInst si;
    si.op = c;
    si.dest = dest;
    si.src1 = src1;
    return si;
}

// ---- Zero-latency wakeup inside the walk -------------------------------------

TEST(IssueWakeup, ZeroLatencyCompareWakesALaterCandidateSameCycle)
{
    IssueHarness h;
    const StaticInst cmp = op(OpClass::Compare, LogReg::intReg(1));
    const StaticInst use =
        op(OpClass::IntAlu, LogReg::intReg(2), LogReg::intReg(1));
    DynInst *producer = h.decoded(&cmp);
    DynInst *consumer = h.decoded(&use);
    h.step(); // rename: both enter the queue.

    h.step(); // the Compare issues, then its dependent.
    EXPECT_EQ(producer->stage, InstStage::Issued);
    EXPECT_EQ(consumer->stage, InstStage::Issued);
    EXPECT_EQ(consumer->issueCycle, producer->issueCycle);
    EXPECT_EQ(h.stats_.stalls.issueOperandWait[0], 0u);
}

TEST(IssueWakeup, CandidateVisitedBeforeTheCompareWaitsACycle)
{
    // BRANCH_FIRST visits the dependent branch before its Compare
    // producer, so the in-walk wakeup comes too late for it.
    IssueHarness h(IssuePolicy::BranchFirst);
    const StaticInst cmp = op(OpClass::Compare, LogReg::intReg(1));
    const StaticInst br = op(OpClass::CondBranch, {}, LogReg::intReg(1));
    DynInst *producer = h.decoded(&cmp);
    DynInst *branch = h.decoded(&br);
    h.step(); // rename.

    h.step();
    EXPECT_EQ(producer->stage, InstStage::Issued);
    EXPECT_EQ(branch->stage, InstStage::InQueue);
    EXPECT_EQ(h.stats_.stalls.issueOperandWait[0], 1u);
    EXPECT_TRUE(h.slotOf(branch).ready(h.st_.cycle - 1));

    h.step();
    EXPECT_EQ(branch->stage, InstStage::Issued);
    EXPECT_EQ(branch->issueCycle, producer->issueCycle + 1);
}

// ---- Load miss and stale-wakeup requeue --------------------------------------

TEST(IssueWakeup, LoadMissDelaysAndStaleRequeueRevokesConsumerCells)
{
    IssueHarness h;
    const StaticInst ld = op(OpClass::Load, LogReg::intReg(1));
    const StaticInst use =
        op(OpClass::IntAlu, LogReg::intReg(2), LogReg::intReg(1));
    const StaticInst use2 =
        op(OpClass::IntAlu, LogReg::intReg(3), LogReg::intReg(2));
    DynInst *load = h.decoded(&ld, AddressLayout::dataBase(0)); // cold.
    DynInst *consumer = h.decoded(&use);
    DynInst *second = h.decoded(&use2);
    // The long register pipeline: issue -> execute takes 3 cycles, so
    // both consumers issue before the load's access resolves.
    ASSERT_EQ(h.st_.execOffset, 3u);
    h.step(); // rename.

    const IqSlot &cs = h.slotOf(consumer);
    EXPECT_EQ(cs.wake1, h.st_.intRegs.readyCell(load->destPhys));
    EXPECT_EQ(*cs.wake1, kCycleNever); // producer not yet issued.

    h.step(); // the load issues; optimistic wakeup next cycle.
    ASSERT_EQ(load->stage, InstStage::Issued);
    EXPECT_EQ(*cs.wake1, load->issueCycle + 1);
    EXPECT_EQ(consumer->stage, InstStage::InQueue);

    h.step(); // the consumer issues on the optimistic wakeup.
    ASSERT_EQ(consumer->stage, InstStage::Issued);
    EXPECT_FALSE(h.slotOf(consumer).inQueue());
    const Cycle exec = load->issueCycle + h.st_.execOffset;
    h.runUntil(exec);
    ASSERT_EQ(second->stage, InstStage::Issued);

    h.execute_.tick(); // the load misses in the D-cache.
    EXPECT_EQ(load->stage, InstStage::Executed);
    EXPECT_GT(*h.slotOf(consumer).wake1, exec + 1); // pushed to the fill.
    // Both optimistic consumers went back to their slots, and the
    // second one's cell (the first consumer's result) was revoked.
    EXPECT_EQ(consumer->stage, InstStage::InQueue);
    EXPECT_TRUE(h.slotOf(consumer).inQueue());
    EXPECT_EQ(second->stage, InstStage::InQueue);
    EXPECT_TRUE(h.slotOf(second).inQueue());
    EXPECT_EQ(*h.slotOf(second).wake1, kCycleNever);
    EXPECT_EQ(h.stats_.optimisticSquashes, 2u);

    // Nothing reissues before the fill.
    const Cycle fill = *h.slotOf(consumer).wake1;
    h.issue_.tick();
    ++h.st_.cycle;
    h.runUntil(fill);
    EXPECT_EQ(consumer->stage, InstStage::InQueue);
    h.step();
    EXPECT_EQ(consumer->stage, InstStage::Issued);
    EXPECT_EQ(consumer->issueCycle, fill);
}

TEST(IssueWakeup, BankConflictRequeueRevokesTheLoadsCell)
{
    IssueHarness h;
    const StaticInst ld = op(OpClass::Load, LogReg::intReg(1));
    const StaticInst use =
        op(OpClass::IntAlu, LogReg::intReg(2), LogReg::intReg(1));
    DynInst *load = h.decoded(&ld, AddressLayout::dataBase(0));
    DynInst *consumer = h.decoded(&use);
    h.step(); // rename.
    h.step(); // the load issues.
    h.step(); // the consumer issues optimistically.
    ASSERT_EQ(consumer->stage, InstStage::Issued);
    const Cycle exec = load->issueCycle + h.st_.execOffset;
    h.runUntil(exec);

    // Another access takes the D-cache port this cycle.
    h.mem_.dataAccess(0, AddressLayout::dataBase(0) + 4096, false, exec);
    const std::uint64_t conflicts = h.stats_.dcache.bankConflicts;
    h.execute_.tick();
    ASSERT_GT(h.stats_.dcache.bankConflicts, conflicts);

    EXPECT_EQ(load->stage, InstStage::InQueue);
    EXPECT_TRUE(h.slotOf(load).inQueue());
    EXPECT_EQ(*h.slotOf(consumer).wake1, kCycleNever);
    EXPECT_EQ(consumer->stage, InstStage::InQueue);
    EXPECT_TRUE(h.slotOf(consumer).inQueue());

    // The load retries from its slot the same cycle.
    h.issue_.tick();
    EXPECT_EQ(load->stage, InstStage::Issued);
    EXPECT_EQ(load->issueCycle, exec);
    EXPECT_EQ(consumer->stage, InstStage::InQueue);
}

// ---- Load disambiguation state -----------------------------------------------

TEST(IssueDisambiguation, BlockedOnlyWhileTheRecordedStoreIsPending)
{
    IssueHarness h;
    const Addr addr = AddressLayout::dataBase(0);
    // Each store's data operand (r5 / r6) is held unready so the store
    // stays pending as long as the test wants.
    const StaticInst st1 = op(OpClass::Store, {}, LogReg::intReg(5));
    const StaticInst st2 = op(OpClass::Store, {}, LogReg::intReg(6));
    const StaticInst ld = op(OpClass::Load, LogReg::intReg(1));
    DynInst *s1 = h.decoded(&st1, addr);
    DynInst *s2 = h.decoded(&st2, addr + 4096); // same low bits.
    DynInst *load = h.decoded(&ld, addr);
    h.step(); // rename.
    h.st_.intRegs.setReadyAt(s1->src1Phys, kCycleNever);
    h.st_.intRegs.setReadyAt(s2->src1Phys, kCycleNever);

    for (int i = 0; i < 3; ++i)
        h.step();
    EXPECT_EQ(load->stage, InstStage::InQueue);
    EXPECT_EQ(h.slotOf(load).blockStore, s1);
    EXPECT_EQ(h.slotOf(load).blockSeq, s1->seq);

    // s1 issues and executes; the load re-checks and finds s2.
    h.st_.intRegs.setReadyAt(s1->src1Phys, 0);
    h.runUntil(h.st_.cycle + 1 + h.st_.execOffset + 1);
    EXPECT_EQ(s1->stage, InstStage::Executed);
    EXPECT_EQ(load->stage, InstStage::InQueue);
    EXPECT_EQ(h.slotOf(load).blockStore, s2);

    // s2 executes, and before the load looks again its DynInst is
    // recycled as a *younger* store to the same address that is not
    // executed: the stale pointer must not keep the load blocked.
    h.st_.intRegs.setReadyAt(s2->src1Phys, 0);
    h.step(); // s2 issues.
    ASSERT_EQ(s2->stage, InstStage::Issued);
    h.runUntil(s2->issueCycle + h.st_.execOffset);
    h.execute_.tick();
    ASSERT_EQ(s2->stage, InstStage::Executed);
    h.st_.pool.release(s2);
    DynInst *young = h.st_.pool.alloc();
    ASSERT_EQ(young, s2);
    young->seq = h.st_.nextSeq++;
    young->si = &st2;
    young->memAddr = addr;
    young->stage = InstStage::InQueue;
    h.st_.threads[0].pendingStores.push_back(young);

    h.issue_.tick();
    EXPECT_EQ(load->stage, InstStage::Issued);
}

} // namespace
} // namespace smt
