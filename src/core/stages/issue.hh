/**
 * @file
 * IssueStage: selects ready instructions from the two queues, ordered
 * by the configured issue policy's key (policy/policy.hh), within the
 * functional-unit budgets (Sections 2.1 and 6).
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
    explicit IssueStage(PipelineState &st) : st_(st)
    {
        // Candidates come from one queue's search window at a time.
        cands_.resize(st.cfg.iqSearchWindow);
    }

    void tick();

  private:
    /** Release and gather one queue into cands_, sorted by key;
     *  returns the candidate count. */
    std::size_t gatherCandidates(InstructionQueue &queue);
    /** gatherCandidates() under one fixed policy `P`. */
    template <IssuePolicy P>
    std::size_t gatherKeyed(InstructionQueue &queue);
    /** The NoPassBranch / NoWrongPathIssue restriction (Section 7). */
    bool speculationAllows(const IqSlot &slot) const;
    bool disambiguated(IqSlot &slot) const;
    void issueInst(IqSlot &slot);

    PipelineState &st_;

    /** Per-cycle candidate scratch, one entry per window position
     *  (hoisted: no per-tick allocation). */
    std::vector<IssueCandidate> cands_;
};

} // namespace smt

#endif // SMT_CORE_STAGES_ISSUE_HH
