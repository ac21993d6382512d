#include "core/stages/rename_dispatch.hh"

#include <array>

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
    std::array<bool, kMaxThreads> blocked{};

    while (budget > 0) {
        // Pick the globally oldest renameable instruction (age-ordered
        // shared rename bandwidth).
        DynInst *best = nullptr;
        for (unsigned t = 0; t < st_.numThreads; ++t) {
            if (blocked[t])
                continue;
            ThreadState &ts = st_.threads[t];
            if (ts.frontEnd.empty())
                continue;
            DynInst *head = ts.frontEnd.front();
            if (head->stage != InstStage::Decoded ||
                head->decodeCycle >= st_.cycle)
                continue;
            if (best == nullptr || head->seq < best->seq)
                best = head;
        }
        if (best == nullptr)
            break;

        ThreadState &ts = st_.threads[best->tid];
        InstructionQueue &q =
            best->si->usesFpQueue() ? st_.fpQueue : st_.intQueue;
        if (q.full()) {
            blocked[best->tid] = true;
            ++st_.stats.fetchBlockedIQFull;
            ++st_.stats.stalls.renameIQFull[best->tid];
            if (pipe != nullptr)
                pipe->onRenameBlocked(st_, best->tid, "iq_full");
            continue;
        }
        if (best->si->dest.valid() &&
            !st_.file(best->si->dest.file).hasFree()) {
            blocked[best->tid] = true;
            out_of_regs = true;
            ++st_.stats.stalls.renameNoRegisters[best->tid];
            if (pipe != nullptr)
                pipe->onRenameBlocked(st_, best->tid, "no_regs");
            continue;
        }

        // Rename operands against the current map, recording each
        // source's wakeup cell for the issue walk.
        const Cycle *wake1 = &kAlwaysReady;
        const Cycle *wake2 = &kAlwaysReady;
        if (best->si->src1.valid()) {
            const RegisterFileState &rf = st_.file(best->si->src1.file);
            best->src1Phys = rf.lookup(best->tid, best->si->src1.index);
            wake1 = rf.readyCell(best->src1Phys);
        }
        if (best->si->src2.valid()) {
            const RegisterFileState &rf = st_.file(best->si->src2.file);
            best->src2Phys = rf.lookup(best->tid, best->si->src2.index);
            wake2 = rf.readyCell(best->src2Phys);
        }
        if (best->si->dest.valid()) {
            auto [fresh, prev] =
                st_.file(best->si->dest.file)
                    .rename(best->tid, best->si->dest.index);
            best->destPhys = fresh;
            best->destPrevPhys = prev;
        }

        best->stage = InstStage::InQueue;
        best->renameCycle = st_.cycle;
        best->inIntQueue = &q == &st_.intQueue;
        q.insert(best, wake1, wake2);
        if (pipe != nullptr)
            pipe->onRename(st_, best);

        ts.frontEnd.pop_front();
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
