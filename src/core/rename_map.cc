#include "core/rename_map.hh"

#include "common/logging.hh"

namespace smt
{

RegisterFileState::RegisterFileState(unsigned num_threads,
                                     unsigned phys_regs)
{
    smt_assert(num_threads >= 1 && num_threads <= kMaxThreads);
    smt_assert(phys_regs > kLogRegsPerFile * num_threads,
               "no renaming registers left (%u phys for %u threads)",
               phys_regs, num_threads);

    readyAt_.assign(phys_regs, 0);
    unverifiedUntil_.assign(phys_regs, 0);
    sameCycleWake_.assign(phys_regs, 0);
    waiters_.resize(std::size_t{phys_regs} * kWaitersPerReg);
    waiterCount_.assign(phys_regs, 0);

    // Identity-map the architectural registers of each live context;
    // everything else starts on the free list.
    PhysRegIndex next = 0;
    for (unsigned t = 0; t < kMaxThreads; ++t)
        map_[t].fill(kNoPhysReg);
    for (unsigned t = 0; t < num_threads; ++t)
        for (unsigned r = 0; r < kLogRegsPerFile; ++r)
            map_[t][r] = next++;
    freeList_.reserve(phys_regs - next);
    for (unsigned p = next; p < phys_regs; ++p)
        freeList_.push_back(static_cast<PhysRegIndex>(p));
}

std::pair<PhysRegIndex, PhysRegIndex>
RegisterFileState::rename(ThreadID tid, LogRegIndex log,
                          bool same_cycle_wake)
{
    smt_assert(!freeList_.empty());
    const PhysRegIndex fresh = freeList_.back();
    freeList_.pop_back();
    const PhysRegIndex prev = map_[tid][log];
    smt_assert(prev != kNoPhysReg, "rename of an unmapped context");
    map_[tid][log] = fresh;
    readyAt_[fresh] = kCycleNever;
    unverifiedUntil_[fresh] = 0;
    sameCycleWake_[fresh] = same_cycle_wake;
    // A free register has no live consumer: any handle still parked on
    // it belongs to a squashed entry.
    waiterCount_[fresh] = 0;
    return {fresh, prev};
}

void
RegisterFileState::freeAtCommit(PhysRegIndex prev_phys)
{
    smt_assert(prev_phys != kNoPhysReg);
    freeList_.push_back(prev_phys);
}

void
RegisterFileState::rollback(ThreadID tid, LogRegIndex log,
                            PhysRegIndex new_phys, PhysRegIndex prev_phys)
{
    smt_assert(map_[tid][log] == new_phys,
               "rollback out of order: map holds %u, undoing %u",
               map_[tid][log], new_phys);
    map_[tid][log] = prev_phys;
    freeList_.push_back(new_phys);
}

} // namespace smt
