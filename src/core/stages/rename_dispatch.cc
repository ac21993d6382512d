#include "core/stages/rename_dispatch.hh"

#include <array>
#include <cstdint>

#include "isa/latency.hh"

#include "obs/pipe_trace.hh"

namespace smt
{

void
RenameDispatchStage::tick()
{
    obs::PipeTrace *const pipe = st_.pipe;
    if (st_.intQueue.full())
        ++st_.stats.intIQFullCycles;
    if (st_.fpQueue.full())
        ++st_.stats.fpIQFullCycles;

    unsigned budget = st_.cfg.renameWidth;
    bool out_of_regs = false;

    // Age-ordered shared rename bandwidth: each pick is the globally
    // oldest decoded front-end head. Decode runs after rename in the
    // stage walk, so a decoded head was decoded in an earlier cycle.
    // Renaming (or blocking) one thread's head changes no other
    // thread's, so only the winner's entry is refreshed; a blocked
    // thread drops out for the rest of the cycle.
    auto decoded_head = [](const ThreadState &ts) {
        return ts.frontEndDecoded > 0 ? ts.frontEnd.front()->seq : kNoHead;
    };
    std::array<InstSeqNum, kMaxThreads> head;
    for (unsigned t = 0; t < st_.numThreads; ++t)
        head[t] = decoded_head(st_.threads[t]);

    while (budget > 0) {
        const unsigned t = oldestHead(head, st_.numThreads);
        if (t == kMaxThreads)
            break;

        ThreadState &ts = st_.threads[t];
        DynInst *best = ts.frontEnd.front();
        InstructionQueue &q =
            best->si->usesFpQueue() ? st_.fpQueue : st_.intQueue;
        if (q.full()) {
            head[t] = kNoHead;
            ++st_.stats.fetchBlockedIQFull;
            ++st_.stats.stalls.renameIQFull[best->tid];
            if (pipe != nullptr)
                pipe->onRenameBlocked(st_, best->tid, "iq_full");
            continue;
        }
        if (best->si->dest.valid() &&
            !st_.file(best->si->dest.file).hasFree()) {
            head[t] = kNoHead;
            out_of_regs = true;
            ++st_.stats.stalls.renameNoRegisters[best->tid];
            if (pipe != nullptr)
                pipe->onRenameBlocked(st_, best->tid, "no_regs");
            continue;
        }

        // Rename operands against the current map, recording each
        // source's wakeup cell for the issue walk, and whether the
        // source may park the entry (its producer is not zero-latency).
        const Cycle *wake1 = &kAlwaysReady;
        const Cycle *wake2 = &kAlwaysReady;
        std::uint8_t park_flags = 0;
        if (best->si->src1.valid()) {
            const RegisterFileState &rf = st_.file(best->si->src1.file);
            best->src1Phys = rf.lookup(best->tid, best->si->src1.index);
            wake1 = rf.readyCell(best->src1Phys);
            if (!rf.sameCycleWake(best->src1Phys))
                park_flags |= IqSlot::kParks1;
        }
        if (best->si->src2.valid()) {
            const RegisterFileState &rf = st_.file(best->si->src2.file);
            best->src2Phys = rf.lookup(best->tid, best->si->src2.index);
            wake2 = rf.readyCell(best->src2Phys);
            if (!rf.sameCycleWake(best->src2Phys))
                park_flags |= IqSlot::kParks2;
        }
        if (best->si->dest.valid()) {
            auto [fresh, prev] =
                st_.file(best->si->dest.file)
                    .rename(best->tid, best->si->dest.index,
                            opLatency(best->si->op) == 0);
            best->destPhys = fresh;
            best->destPrevPhys = prev;
        }

        best->stage = InstStage::InQueue;
        best->renameCycle = st_.cycle;
        best->inIntQueue = &q == &st_.intQueue;
        q.insert(best, wake1, wake2, park_flags);
        if (pipe != nullptr)
            pipe->onRename(st_, best);

        ts.frontEnd.pop_front();
        --ts.frontEndDecoded;
        head[t] = decoded_head(ts);
        ts.rob.push_back(best);
        if (best->isControl())
            ts.unresolvedBranches.push_back(best);
        if (best->isStore())
            ts.pendingStores.push_back(best);
        --budget;
    }

    if (out_of_regs)
        ++st_.stats.outOfRegistersCycles;
}

} // namespace smt
