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
 *    and the useless-issue statistics.
 */

#ifndef SMT_CORE_RENAME_MAP_HH
#define SMT_CORE_RENAME_MAP_HH

#include <array>
#include <vector>

#include "common/types.hh"
#include "config/config.hh"
#include "isa/static_inst.hh"

namespace smt
{

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
     * Allocate a new mapping for (tid, log).
     * @return {newPhys, prevPhys}; caller stores prevPhys in the DynInst
     *         for commit-time free / squash-time rollback.
     */
    std::pair<PhysRegIndex, PhysRegIndex> rename(ThreadID tid,
                                                 LogRegIndex log);

    /** Commit: the previous mapping can never be referenced again. */
    void freeAtCommit(PhysRegIndex prev_phys);

    /** Squash rollback (youngest-first): restore the previous mapping. */
    void rollback(ThreadID tid, LogRegIndex log, PhysRegIndex new_phys,
                  PhysRegIndex prev_phys);

    // ---- Wakeup state -----------------------------------------------------
    Cycle readyAt(PhysRegIndex p) const { return readyAt_[p]; }
    void setReadyAt(PhysRegIndex p, Cycle c) { readyAt_[p] = c; }

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
};

} // namespace smt

#endif // SMT_CORE_RENAME_MAP_HH
