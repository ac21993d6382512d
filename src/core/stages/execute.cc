#include "core/stages/execute.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "isa/latency.hh"
#include "obs/pipe_trace.hh"

namespace smt
{

void
ExecuteStage::tick()
{
    std::vector<DynInst *> &slot = st_.execBucket(st_.cycle);
    if (slot.empty())
        return;
    // Swap the bucket out of the ring: execution never schedules into
    // the current cycle (every issue lands execOffset >= 2 ahead, and a
    // load's dependents issue strictly after it), so this container is
    // stable while we work through it. The swap ping-pongs the two
    // vectors' capacities — no steady-state allocation.
    bucket_.clear();
    bucket_.swap(slot);
    for (DynInst *inst : bucket_)
        executeInst(inst);
}

void
ExecuteStage::executeInst(DynInst *inst)
{
    smt_assert(inst->stage == InstStage::Issued);
    smt_assert(st_.inFlight[inst->inFlightIdx] == inst,
               "issued seq %llu lost its inFlight index",
               static_cast<unsigned long long>(inst->seq));
    st_.removeInFlightAt(inst->inFlightIdx);

    if (inst->isLoad()) {
        executeLoad(inst);
        return;
    }
    if (inst->isStore()) {
        executeStore(inst);
        return;
    }

    inst->stage = InstStage::Executed;
    const unsigned lat = opLatency(inst->si->op);
    inst->completeCycle =
        st_.cycle + (lat > 0 ? lat - 1 : 0) + st_.commitDelta;
    if (st_.pipe != nullptr)
        st_.pipe->onExecComplete(st_, inst);

    if (inst->isControl())
        resolveControl(inst);
}

void
ExecuteStage::executeLoad(DynInst *inst)
{
    const auto r =
        st_.mem.dataAccess(inst->tid, inst->memAddr, false, st_.cycle);
    RegisterFileState &rf = st_.file(inst->si->dest.file);
    const PhysRegIndex dest = inst->destPhys;

    if (r.bankConflict) {
        // Retry from the queue; consumers issued on the optimistic
        // wakeup are squashed.
        st_.requeue(inst);
        rf.setReadyAt(dest, kCycleNever);
        rf.setUnverifiedUntil(dest, 0);
        requeueDependents(inst->si->dest.file, dest);
        if (st_.pipe != nullptr)
            st_.pipe->onRequeue(st_, inst, "bank_conflict");
        return;
    }

    inst->stage = InstStage::Executed;
    if (st_.pipe != nullptr)
        st_.pipe->onExecComplete(st_, inst);
    if (r.ready <= st_.cycle) {
        // D-cache hit: the optimistic wakeup (issue + 1) was correct.
        inst->completeCycle = st_.cycle + st_.commitDelta;
    } else {
        // Miss: push the consumers' issue horizon out to the fill.
        const Cycle consumer_issue =
            std::max<Cycle>(r.ready + 1 > st_.execOffset
                                ? r.ready + 1 - st_.execOffset
                                : st_.cycle + 1,
                            st_.cycle + 1);
        rf.setReadyAt(dest, consumer_issue);
        rf.setUnverifiedUntil(dest, 0);
        requeueDependents(inst->si->dest.file, dest);
        inst->completeCycle = r.ready + st_.commitDelta;
    }
}

void
ExecuteStage::executeStore(DynInst *inst)
{
    const auto r =
        st_.mem.dataAccess(inst->tid, inst->memAddr, true, st_.cycle);
    if (r.bankConflict) {
        st_.requeue(inst);
        if (st_.pipe != nullptr)
            st_.pipe->onRequeue(st_, inst, "bank_conflict");
        return;
    }
    inst->stage = InstStage::Executed;
    if (st_.pipe != nullptr)
        st_.pipe->onExecComplete(st_, inst);
    // The write-allocate fill (on a miss) completes in the background;
    // the store itself retires without waiting on it.
    inst->completeCycle = st_.cycle + st_.commitDelta;
    std::erase(st_.threads[inst->tid].pendingStores, inst);
}

void
ExecuteStage::resolveControl(DynInst *inst)
{
    if (inst->wrongPath) {
        // Wrong-path control resolves as predicted; the originating
        // misprediction's squash will remove it.
        return;
    }

    const OpClass op = inst->si->op;
    bool mispredict = false;
    if (inst->si->isCondBranch()) {
        mispredict = inst->predTaken != inst->actualTaken;
    } else if (op == OpClass::Return || op == OpClass::IndirectJump) {
        mispredict = inst->nextFetchPc != inst->actualNextPc;
        st_.bp.updateTarget(inst->tid, inst->pc, inst->actualNextPc,
                            op == OpClass::Return);
    }

    if (mispredict) {
        inst->mispredicted = true;
        ThreadState &ts = st_.threads[inst->tid];
        if (ts.pendingSquash == nullptr ||
            inst->seq < ts.pendingSquash->seq) {
            ts.pendingSquash = inst;
            ts.pendingSquashCycle = st_.cycle + 1;
        }
    }
}

void
ExecuteStage::requeueDependents(RegFile f, PhysRegIndex reg)
{
    // Work-list cascade: any issued-but-unexecuted instruction whose
    // source is no longer ready by its issue cycle was issued on a stale
    // optimistic wakeup and returns to its queue (a wasted issue slot —
    // the "squashed optimistic instruction" of Section 6).
    requeueWork_.clear();
    requeueWork_.emplace_back(f, reg);
    while (!requeueWork_.empty()) {
        const auto [wf, wreg] = requeueWork_.back();
        requeueWork_.pop_back();
        RegisterFileState &rf = st_.file(wf);
        for (std::size_t i = 0; i < st_.inFlight.size();) {
            DynInst *inst = st_.inFlight[i];
            // An absent source keeps kNoPhysReg, which never names a
            // written register: the register match alone implies the
            // source exists, so the StaticInst is read only on a match.
            const bool dep1 = inst->src1Phys == wreg &&
                              inst->si->src1.file == wf;
            const bool dep2 = inst->src2Phys == wreg &&
                              inst->si->src2.file == wf;
            if ((!dep1 && !dep2) ||
                rf.readyAt(wreg) <= inst->issueCycle) {
                ++i;
                continue;
            }
            // Squash this issue: back to the queue. The victim always
            // sits in a *future* exec bucket (a dependent issues
            // strictly after its producer), never the one tick() is
            // draining right now.
            smt_assert(inst->issueCycle + st_.execOffset > st_.cycle);
            ++st_.stats.optimisticSquashes;
            st_.removeInFlightAt(i);
            std::vector<DynInst *> &bucket =
                st_.execBucket(inst->issueCycle + st_.execOffset);
            std::erase(bucket, inst);
            st_.requeue(inst);
            if (st_.pipe != nullptr)
                st_.pipe->onRequeue(st_, inst, "stale_wakeup");
            if (inst->si->dest.valid()) {
                RegisterFileState &drf = st_.file(inst->si->dest.file);
                drf.setReadyAt(inst->destPhys, kCycleNever);
                drf.setUnverifiedUntil(inst->destPhys, 0);
                requeueWork_.emplace_back(inst->si->dest.file,
                                          inst->destPhys);
            }
        }
    }
}

} // namespace smt
