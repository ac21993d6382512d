#include "core/stages/squash.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/pipe_trace.hh"

namespace smt
{

void
SquashStage::tick()
{
    for (unsigned t = 0; t < st_.numThreads; ++t) {
        ThreadState &ts = st_.threads[t];
        if (ts.pendingSquash != nullptr &&
            ts.pendingSquashCycle <= st_.cycle)
        {
            DynInst *branch = ts.pendingSquash;
            ts.pendingSquash = nullptr;
            squashThread(static_cast<ThreadID>(t), branch);
        }
    }
}

void
SquashStage::squashThread(ThreadID tid, DynInst *branch)
{
    ThreadState &ts = st_.threads[tid];
    obs::PipeTrace *const pipe = st_.pipe;
    smt_assert(!branch->wrongPath,
               "wrong-path instructions never trigger squashes");

    // Drop everything still in the front end (all younger than any
    // renamed instruction of this thread).
    while (!ts.frontEnd.empty()) {
        DynInst *inst = ts.frontEnd.back();
        ts.frontEnd.pop_back();
        --st_.frontAndQueueCount[tid];
        if (inst->isControl())
            --st_.branchCount[tid];
        if (pipe != nullptr)
            pipe->onSquash(st_, inst, "mispredict");
        st_.pool.release(inst);
    }
    ts.frontEndDecoded = 0;

    // Unwind the ROB youngest-first down to (not including) the branch.
    squashed_.clear();
    while (!ts.rob.empty() && ts.rob.back()->seq > branch->seq) {
        DynInst *inst = ts.rob.back();
        ts.rob.pop_back();
        squashed_.push_back(inst);
        if (pipe != nullptr)
            pipe->onSquash(st_, inst, "mispredict");

        if (inst->si->dest.valid()) {
            st_.file(inst->si->dest.file)
                .rollback(tid, inst->si->dest.index, inst->destPhys,
                          inst->destPrevPhys);
        }
        if (inst->stage == InstStage::InQueue)
            --st_.frontAndQueueCount[tid];
        if (inst->stage == InstStage::InQueue && inst->isControl())
            --st_.branchCount[tid];
    }

    // Purge the squashed set from every secondary structure.
    if (!squashed_.empty()) {
        auto is_squashed = [&](const DynInst *i) {
            return i->tid == tid && i->seq > branch->seq;
        };
        st_.intQueue.removeIf(is_squashed);
        st_.fpQueue.removeIf(is_squashed);
        std::erase_if(st_.inFlight, is_squashed);
        for (std::size_t i = 0; i < st_.inFlight.size(); ++i)
            st_.inFlight[i]->inFlightIdx = static_cast<std::uint32_t>(i);
        // Exec-ring slots for past cycles have been drained, so a
        // sweep over all slots touches exactly the still-pending
        // buckets the cycle-keyed map used to.
        for (std::vector<DynInst *> &bucket : st_.execRing)
            std::erase_if(bucket, is_squashed);
        // Program order: the squashed branches are the youngest.
        while (!ts.unresolvedBranches.empty() &&
               is_squashed(ts.unresolvedBranches.back()))
            ts.unresolvedBranches.pop_back();
        std::erase_if(ts.pendingStores, is_squashed);
        if (ts.pendingSquash != nullptr &&
            ts.pendingSquash->seq > branch->seq)
            ts.pendingSquash = nullptr;
        for (DynInst *inst : squashed_)
            st_.pool.release(inst);
    }

    // Repair predictor state and restart fetch on the correct path.
    st_.bp.squashRepair(tid, branch->historySnapshot, branch->actualTaken,
                        branch->rasCheckpoint);
    smt_assert(branch->streamIdx != kNoStreamIdx);
    ts.nextStreamIdx = branch->streamIdx + 1;
    ts.onWrongPath = false;
    ts.fetchPc = branch->actualNextPc;
    st_.fetchReadyAt[tid] =
        std::max(st_.fetchReadyAt[tid],
                 st_.cycle + (st_.cfg.itagEarlyLookup ? 1 : 0));
}

} // namespace smt
