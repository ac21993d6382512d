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
 *    is pending, even when that store's DynInst is recycled;
 *  - an entry waiting on an unissued producer parks, leaves the walk,
 *    and issues on the producer's ready cycle; the stall ledger counts
 *    parked entries as the walk would have at every exhaustion key; a
 *    squashed parked entry leaves no bookkeeping behind; a requeued
 *    producer parks its unparked dependents again.
 */

#include <gtest/gtest.h>

#include "core/pipeline_state.hh"
#include "core/stages/execute.hh"
#include "core/stages/issue.hh"
#include "core/stages/rename_dispatch.hh"
#include "core/stages/squash.hh"
#include "workload/code_image.hh"

namespace smt
{
namespace
{

class IssueHarness
{
  public:
    explicit IssueHarness(IssuePolicy policy = IssuePolicy::OldestFirst,
                          unsigned int_units = 0,
                          unsigned ls_units = 0)
        : cfg_(configFor(policy, int_units, ls_units)),
          mem_(cfg_, stats_), bp_(cfg_), st_(cfg_, mem_, bp_, stats_),
          squash_(st_), rename_(st_), execute_(st_), issue_(st_)
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
        ++st_.threads[0].frontEndDecoded;
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

    /** True while `inst` is parked in its queue. */
    bool
    isParked(const DynInst *inst) const
    {
        const InstructionQueue &q =
            inst->inIntQueue ? st_.intQueue : st_.fpQueue;
        for (const ParkedEntry &e : q.parked())
            if (q.physSlot(e.slot).inst == inst)
                return true;
        return false;
    }

    void
    validateParked() const
    {
        st_.intQueue.validateParked();
        st_.fpQueue.validateParked();
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
    SquashStage squash_;
    RenameDispatchStage rename_;
    ExecuteStage execute_;
    IssueStage issue_;

  private:
    /** RR.1.8 at one thread under `policy`; nonzero unit counts
     *  override the int and load/store budgets. */
    static SmtConfig
    configFor(IssuePolicy policy, unsigned int_units, unsigned ls_units)
    {
        SmtConfig cfg = presets::baseSmt(1);
        cfg.issuePolicy = policy;
        if (int_units != 0)
            cfg.intUnits = int_units;
        if (ls_units != 0)
            cfg.loadStoreUnits = ls_units;
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

// ---- Parked entries ----------------------------------------------------------

TEST(IssueParking, ParkedEntryIssuesOnTheProducersReadyCycle)
{
    IssueHarness h;
    // The producer's own source (r5) is held unready, so both wait.
    const StaticInst mul =
        op(OpClass::IntMult, LogReg::intReg(1), LogReg::intReg(5));
    const StaticInst use =
        op(OpClass::IntAlu, LogReg::intReg(2), LogReg::intReg(1));
    DynInst *producer = h.decoded(&mul);
    DynInst *consumer = h.decoded(&use);
    h.step(); // rename.
    h.st_.intRegs.setReadyAt(producer->src1Phys, kCycleNever);
    const std::uint64_t idle = h.stats_.stalls.issueNoCandidatesCycles;

    for (int i = 0; i < 4; ++i)
        h.step();
    // Both park (r5 and r1 are kCycleNever; neither producer is a
    // Compare) and leave the walk, but the ledger still counts them.
    EXPECT_TRUE(h.isParked(producer));
    EXPECT_TRUE(h.isParked(consumer));
    EXPECT_EQ(h.st_.intQueue.parkedCount(), 2u);
    EXPECT_EQ(h.st_.intQueue.size(), 2u);
    EXPECT_EQ(h.st_.intQueue.at(0), producer); // age order kept.
    EXPECT_EQ(h.st_.intQueue.at(1), consumer);
    EXPECT_EQ(h.stats_.stalls.issueOperandWait[0], 8u);
    EXPECT_EQ(h.stats_.stalls.issueNoCandidatesCycles, idle);
    h.validateParked();

    // The write to r5 unparks the producer before the next walk.
    h.st_.intRegs.setReadyAt(producer->src1Phys, 0);
    h.step();
    ASSERT_EQ(producer->stage, InstStage::Issued);
    EXPECT_FALSE(h.isParked(consumer)); // back in the walk.
    EXPECT_EQ(*h.slotOf(consumer).wake1, producer->issueCycle + 8);
    h.validateParked();

    h.runUntil(producer->issueCycle + 8);
    EXPECT_EQ(consumer->stage, InstStage::InQueue);
    h.step();
    EXPECT_EQ(consumer->stage, InstStage::Issued);
    EXPECT_EQ(consumer->issueCycle, producer->issueCycle + 8);
}

TEST(IssueParking, LedgerSplitsParkedEntriesAtTheExhaustionKeys)
{
    // Two int units, one of them load/store. In one cycle, in age
    // (= key) order:
    //   x   parked (its source r6 held unready)   before both keys: wait
    //   ld  ready load: issues, spends the load/store unit (ls key)
    //   p1  parked on x                            int unit left:    wait
    //   st  parked store on x                      past the ls key:  busy
    //   a2  ready: issues, spends the int budget (int key)
    //   p2  parked on x                            past the int key: busy
    // SPEC_LAST orders these entries the same way (no branches) but
    // never parks, so it must produce the same ledger from the walk.
    for (const IssuePolicy policy :
         {IssuePolicy::OldestFirst, IssuePolicy::SpecLast}) {
        IssueHarness h(policy, 2, 1);
        const StaticInst x =
            op(OpClass::IntAlu, LogReg::intReg(5), LogReg::intReg(6));
        const StaticInst ld = op(OpClass::Load, LogReg::intReg(7));
        const StaticInst p1 =
            op(OpClass::IntAlu, LogReg::intReg(8), LogReg::intReg(5));
        const StaticInst st = op(OpClass::Store, {}, LogReg::intReg(5));
        const StaticInst a2 = op(OpClass::IntAlu, LogReg::intReg(9));
        const StaticInst p2 =
            op(OpClass::IntAlu, LogReg::intReg(10), LogReg::intReg(5));
        const Addr addr = AddressLayout::dataBase(0);
        DynInst *xi = h.decoded(&x);
        DynInst *ldi = h.decoded(&ld, addr);
        h.decoded(&p1);
        h.decoded(&st, addr + 64);
        DynInst *a2i = h.decoded(&a2);
        h.decoded(&p2);
        h.step(); // rename (8-wide).
        ASSERT_EQ(h.st_.intQueue.size(), 6u);
        h.st_.intRegs.setReadyAt(xi->src1Phys, kCycleNever);

        h.step();
        EXPECT_EQ(ldi->stage, InstStage::Issued) << toString(policy);
        EXPECT_EQ(a2i->stage, InstStage::Issued) << toString(policy);
        EXPECT_EQ(h.st_.intQueue.parkedCount(),
                  policy == IssuePolicy::OldestFirst ? 4u : 0u);
        EXPECT_EQ(h.stats_.stalls.issueOperandWait[0], 2u)
            << toString(policy);
        EXPECT_EQ(h.stats_.stalls.issueFuBusy[0], 2u) << toString(policy);
        h.validateParked();
    }
}

TEST(IssueParking, SquashedParkedEntryLeavesNoBookkeeping)
{
    IssueHarness h;
    const StaticInst mul =
        op(OpClass::IntMult, LogReg::intReg(1), LogReg::intReg(5));
    const StaticInst br = op(OpClass::CondBranch);
    const StaticInst use =
        op(OpClass::IntAlu, LogReg::intReg(2), LogReg::intReg(1));
    DynInst *producer = h.decoded(&mul);
    DynInst *branch = h.decoded(&br);
    DynInst *victim = h.decoded(&use);
    h.step(); // rename.
    h.st_.intRegs.setReadyAt(producer->src1Phys, kCycleNever);
    h.step(); // the branch issues; the other two park.
    ASSERT_EQ(branch->stage, InstStage::Issued);
    ASSERT_TRUE(h.isParked(victim));
    const PhysRegIndex r1 = producer->destPhys;
    ASSERT_EQ(h.st_.intRegs.waiters(r1).size(), 1u);

    // The branch mispredicted: squash everything younger.
    branch->streamIdx = 0;
    h.st_.threads[0].pendingSquash = branch;
    h.st_.threads[0].pendingSquashCycle = h.st_.cycle;
    h.squash_.tick();
    EXPECT_EQ(h.st_.intQueue.size(), 2u); // + the branch, held.
    EXPECT_EQ(h.st_.intQueue.parkedCount(), 1u); // the producer.
    EXPECT_EQ(h.st_.intQueue.parkedCount(0), 1u);
    h.validateParked();

    // A new entry takes the squashed one's slot and parks on another
    // register; the stale handle left on r1 must not unpark it.
    const StaticInst mul2 =
        op(OpClass::IntMult, LogReg::intReg(3), LogReg::intReg(6));
    const StaticInst use2 =
        op(OpClass::IntAlu, LogReg::intReg(4), LogReg::intReg(3));
    DynInst *producer2 = h.decoded(&mul2);
    DynInst *late = h.decoded(&use2);
    h.step(); // rename.
    h.st_.intRegs.setReadyAt(producer2->src1Phys, kCycleNever);
    h.step();
    ASSERT_TRUE(h.isParked(late));
    EXPECT_EQ(h.st_.intQueue.parkedCount(), 3u);

    h.st_.intRegs.setReadyAt(producer->src1Phys, 0);
    h.step(); // the first producer issues; r1's handles drain.
    EXPECT_EQ(producer->stage, InstStage::Issued);
    EXPECT_TRUE(h.isParked(late));
    EXPECT_TRUE(h.st_.intRegs.waiters(r1).empty());
    EXPECT_EQ(h.st_.intQueue.parkedCount(), 2u);
    h.validateParked();
}

TEST(IssueParking, RequeuedProducerParksItsUnparkedDependentsAgain)
{
    IssueHarness h;
    const StaticInst ld = op(OpClass::Load, LogReg::intReg(1));
    const StaticInst mul =
        op(OpClass::IntMult, LogReg::intReg(2), LogReg::intReg(1));
    const StaticInst use =
        op(OpClass::IntAlu, LogReg::intReg(3), LogReg::intReg(2));
    DynInst *load = h.decoded(&ld, AddressLayout::dataBase(0));
    DynInst *mid = h.decoded(&mul);
    DynInst *last = h.decoded(&use);
    h.step(); // rename.

    h.step(); // the load issues; mid and last park.
    ASSERT_EQ(load->stage, InstStage::Issued);
    EXPECT_FALSE(h.isParked(mid)); // unparked by the load's issue.
    EXPECT_TRUE(h.isParked(last));
    h.step(); // mid issues on the optimistic wakeup; last unparks.
    ASSERT_EQ(mid->stage, InstStage::Issued);
    EXPECT_FALSE(h.isParked(last));
    EXPECT_EQ(*h.slotOf(last).wake1, mid->issueCycle + 8);

    // The load's access loses its bank: the load and mid return to
    // the queue, and the cells they write go back to kCycleNever.
    const Cycle exec = load->issueCycle + h.st_.execOffset;
    h.runUntil(exec);
    h.mem_.dataAccess(0, AddressLayout::dataBase(0) + 4096, false, exec);
    h.execute_.tick();
    ASSERT_EQ(mid->stage, InstStage::InQueue);
    EXPECT_EQ(*h.slotOf(last).wake1, kCycleNever);

    h.issue_.tick(); // the load reissues; mid and last park again.
    ++h.st_.cycle;
    EXPECT_EQ(load->stage, InstStage::Issued);
    EXPECT_FALSE(h.isParked(mid)); // its producer just reissued.
    EXPECT_TRUE(h.isParked(last));
    h.validateParked();

    h.step(); // mid reissues; last unparks and waits out the latency.
    ASSERT_EQ(mid->stage, InstStage::Issued);
    EXPECT_FALSE(h.isParked(last));
    // (The reissued load may still miss and requeue mid once more.)
    for (int i = 0; i < 1000 && last->stage != InstStage::Issued; ++i) {
        h.step();
        h.validateParked();
    }
    ASSERT_EQ(last->stage, InstStage::Issued);
    EXPECT_EQ(last->issueCycle, mid->issueCycle + 8);
}

} // namespace
} // namespace smt
