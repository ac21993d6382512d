/**
 * @file
 * RegisterFileState: one renamed physical register file (integer or FP).
 *
 * Thread-private logical registers are mapped onto a completely shared
 * physical file (Section 2): with T contexts the file holds 32*T
 * architectural registers plus the excess renaming registers. The state
 * tracks, per physical register,
 *  - readyAt:  the first cycle a consumer may issue (the paper's
 *    predetermined-latency wakeup — set at the producer's issue);
 *  - unverifiedUntil: the last cycle the value rests on an optimistic
 *    (unverified load-hit) assumption; used by the OPT_LAST issue policy
 *    and the useless-issue statistics;
 *  - sameCycleWake: the producer has zero latency (a Compare), so its
 *    consumers may wake within the producer's issue cycle;
 *  - waiters: up to kWaitersPerReg queue entries parked on the
 *    register's cell until it is first written after being
 *    kCycleNever (inline, so parking touches no heap block).
 */

#ifndef SMT_CORE_RENAME_MAP_HH
#define SMT_CORE_RENAME_MAP_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "config/config.hh"
#include "isa/static_inst.hh"

namespace smt
{

/** Wakeup handle of an instruction-queue entry parked on a register:
 *  which queue, which slot, and the park generation that must still be
 *  current (slots and registers are both reused). A stale handle whose
 *  16-bit generation matches by wraparound only unparks an entry
 *  early, which is harmless: the walk parks it again. */
struct ParkedRef
{
    std::uint16_t gen;
    std::uint16_t slot : 15;
    std::uint16_t fpQueue : 1;
};
static_assert(sizeof(ParkedRef) == 4);

/** A renamed register file shared by all hardware contexts. */
class RegisterFileState
{
  public:
    RegisterFileState(unsigned num_threads, unsigned phys_regs);

    /** Current mapping of a thread's logical register. */
    PhysRegIndex
    lookup(ThreadID tid, LogRegIndex log) const
    {
        return map_[tid][log];
    }

    /** True when a physical register can be allocated. */
    bool hasFree() const { return !freeList_.empty(); }

    unsigned freeCount() const
    {
        return static_cast<unsigned>(freeList_.size());
    }

    /**
     * Allocate a new mapping for (tid, log), written by a producer of
     * zero latency when `same_cycle_wake`.
     * @return {newPhys, prevPhys}; caller stores prevPhys in the DynInst
     *         for commit-time free / squash-time rollback.
     */
    std::pair<PhysRegIndex, PhysRegIndex>
    rename(ThreadID tid, LogRegIndex log, bool same_cycle_wake = false);

    /** Commit: the previous mapping can never be referenced again. */
    void freeAtCommit(PhysRegIndex prev_phys);

    /** Squash rollback (youngest-first): restore the previous mapping. */
    void rollback(ThreadID tid, LogRegIndex log, PhysRegIndex new_phys,
                  PhysRegIndex prev_phys);

    // ---- Wakeup state -----------------------------------------------------
    Cycle readyAt(PhysRegIndex p) const { return readyAt_[p]; }

    /** Write `p`'s wakeup cell. The first write after kCycleNever
     *  queues the entries parked on it for drainWoken(). */
    void
    setReadyAt(PhysRegIndex p, Cycle c)
    {
        if (readyAt_[p] == kCycleNever && c != kCycleNever &&
            waiterCount_[p] != 0)
            woken_.push_back(p);
        readyAt_[p] = c;
    }

    /** A consumer of `p` may become ready within its producer's issue
     *  cycle (the producer is a zero-latency Compare). */
    bool sameCycleWake(PhysRegIndex p) const { return sameCycleWake_[p]; }

    /** The register whose wakeup cell is `cell`, if this file holds it
     *  (else a value >= physRegs(): the address difference wraps). */
    std::size_t
    regOfCell(const Cycle *cell) const
    {
        return (reinterpret_cast<std::uintptr_t>(cell) -
                reinterpret_cast<std::uintptr_t>(readyAt_.data())) /
               sizeof(Cycle);
    }

    bool holdsCell(const Cycle *cell) const
    {
        return regOfCell(cell) < readyAt_.size();
    }

    /** Handles parked per register at most; an entry that finds its
     *  producer's register full is simply not parked. */
    static constexpr unsigned kWaitersPerReg = 4;

    bool
    hasWaiterRoom(PhysRegIndex p) const
    {
        return waiterCount_[p] < kWaitersPerReg;
    }

    /** Park a queue entry on `p`'s cell, which must be kCycleNever;
     *  hasWaiterRoom(p) must hold. */
    void
    addWaiter(PhysRegIndex p, ParkedRef ref)
    {
        waiters_[p * kWaitersPerReg + waiterCount_[p]++] = ref;
    }

    /** The handles parked on `p` (validation). */
    std::span<const ParkedRef>
    waiters(PhysRegIndex p) const
    {
        return {&waiters_[p * kWaitersPerReg], waiterCount_[p]};
    }

    /** Hand `wake(ref)` every handle parked on a cell written since
     *  the last drain, and forget them. */
    template <typename Wake>
    void
    drainWoken(Wake wake)
    {
        for (const PhysRegIndex p : woken_) {
            const ParkedRef *refs = &waiters_[p * kWaitersPerReg];
            for (unsigned i = 0; i < waiterCount_[p]; ++i)
                wake(refs[i]);
            waiterCount_[p] = 0;
        }
        woken_.clear();
    }

    /** The wakeup cell a consumer of `p` waits on: its readyAt slot,
     *  stable for the file's lifetime (the file never resizes). */
    const Cycle *readyCell(PhysRegIndex p) const { return &readyAt_[p]; }

    Cycle
    unverifiedUntil(PhysRegIndex p) const
    {
        return unverifiedUntil_[p];
    }

    void
    setUnverifiedUntil(PhysRegIndex p, Cycle c)
    {
        unverifiedUntil_[p] = c;
    }

    unsigned physRegs() const
    {
        return static_cast<unsigned>(readyAt_.size());
    }

  private:
    std::array<std::array<PhysRegIndex, kLogRegsPerFile>, kMaxThreads> map_;
    std::vector<PhysRegIndex> freeList_;
    std::vector<Cycle> readyAt_;
    std::vector<Cycle> unverifiedUntil_;
    std::vector<std::uint8_t> sameCycleWake_;
    std::vector<ParkedRef> waiters_;         ///< kWaitersPerReg per reg.
    std::vector<std::uint8_t> waiterCount_;
    std::vector<PhysRegIndex> woken_; ///< cells written since last drain.
};

} // namespace smt

#endif // SMT_CORE_RENAME_MAP_HH
