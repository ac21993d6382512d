/**
 * @file
 * IssueStage: selects ready instructions from the two queues, ordered
 * by the configured issue policy's key (policy/policy.hh), within the
 * functional-unit budgets (Sections 2.1 and 6).
 *
 * Latencies are known at issue, so an entry waiting on a producer that
 * has not issued cannot issue before the cycle after that producer
 * does (unless the producer is a zero-latency Compare). Such an entry
 * is parked on the producer's register (RegisterFileState::addWaiter)
 * and skipped by the per-cycle walk until the register's cell is
 * written; the stall ledger counts it from the parked list.
 */

#ifndef SMT_CORE_STAGES_ISSUE_HH
#define SMT_CORE_STAGES_ISSUE_HH

#include <cstdint>
#include <vector>

#include "core/pipeline_state.hh"

namespace smt
{

/** One gathered issue candidate: its policy key and queue slot. */
struct IssueCandidate
{
    std::uint64_t key;
    IqSlot *slot;
};

/**
 * Sort candidates by ascending key. Insertion sort: a queue's window
 * yields a handful of candidates in near-key (near-seq) order, where
 * this beats introsort every cycle; keys are unique, so the result is
 * the one permutation any sort would produce.
 */
inline void
sortIssueCandidates(IssueCandidate *c, std::size_t n)
{
    for (std::size_t i = 1; i < n; ++i) {
        const IssueCandidate x = c[i];
        std::size_t j = i;
        while (j > 0 && x.key < c[j - 1].key) {
            c[j] = c[j - 1];
            --j;
        }
        c[j] = x;
    }
}

/** Issue-selection stage. */
class IssueStage
{
  public:
    explicit IssueStage(PipelineState &st);

    void tick();

  private:
    /** Release and gather one queue into cands_, sorted by key;
     *  returns the candidate count. Parks the entries that cannot
     *  issue this cycle when the queue parks. */
    std::size_t gatherCandidates(InstructionQueue &queue);
    /** gatherCandidates() under one fixed policy `P`. */
    template <IssuePolicy P>
    std::size_t gatherKeyed(InstructionQueue &queue);
    /** Park `slot` under `key` on its source cell `cell` (source 2's
     *  when `on_src2`); false when the producer's register has no room
     *  for another waiter. */
    bool park(InstructionQueue &queue, IqSlot &slot, std::uint64_t key,
              const Cycle *cell, bool on_src2);
    /** Return to the walk the entries parked on cells written since
     *  the last call. */
    void wakeParked();
    /** Add one queue's parked entries to this cycle's stall ledger. A
     *  parked entry never issues: it is a busy-unit skip when its key
     *  is past `unit_out` (the key whose issue spent the queue's unit
     *  budget) or, for a memory entry, past `ls_out` (same for the
     *  load/store budget); else an operand wait. */
    void tallyParked(const InstructionQueue &queue, std::uint64_t unit_out,
                     std::uint64_t ls_out, std::uint32_t *wait,
                     std::uint32_t *busy) const;
    /** The NoPassBranch / NoWrongPathIssue restriction (Section 7). */
    bool speculationAllows(const IqSlot &slot) const;
    bool disambiguated(IqSlot &slot) const;
    void issueInst(IqSlot &slot);

    PipelineState &st_;

    /**
     * Per queue (int, FP): entries of that queue may park. Fixed at
     * construction; parking is sound only where a candidate's
     * candidacy and key depend on nothing that changes while it waits:
     * a search window covering the queue (not BIGQ), full speculation
     * (NoPassBranch / NoWrongPathIssue re-test branches every cycle),
     * and a key fixed at rename (not OPT_LAST or SPEC_LAST).
     */
    bool parks_[2];

    /** Per-cycle candidate scratch, one entry per window position
     *  (hoisted: no per-tick allocation). */
    std::vector<IssueCandidate> cands_;
};

} // namespace smt

#endif // SMT_CORE_STAGES_ISSUE_HH
