/**
 * @file
 * IssueStage: selects ready instructions from the two queues, ordered
 * by the configured IssuePolicy, within the functional-unit budgets
 * (Sections 2.1 and 6).
 *
 * Like FetchStage, the stage is a template over the policy type:
 * instantiated with the abstract policy::IssuePolicy it calls key()
 * virtually (generic engine); instantiated with a concrete `final`
 * policy the per-candidate key() call resolves statically and inlines
 * into the gather.
 */

#ifndef SMT_CORE_STAGES_ISSUE_HH
#define SMT_CORE_STAGES_ISSUE_HH

#include <cstdint>
#include <vector>

#include "core/pipeline_state.hh"
#include "policy/issue_policy.hh"

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
template <typename Policy>
class IssueStage
{
  public:
    IssueStage(PipelineState &st, const Policy &pol)
        : st_(st), policy_(pol)
    {
        // Candidates come from one queue's search window at a time.
        cands_.resize(st.cfg.iqSearchWindow);
    }

    void tick();

  private:
    /** Release and gather one queue into cands_, sorted by key;
     *  returns the candidate count. */
    std::size_t gatherCandidates(InstructionQueue &queue);
    /** The NoPassBranch / NoWrongPathIssue restriction (Section 7). */
    bool speculationAllows(const IqSlot &slot) const;
    bool disambiguated(IqSlot &slot) const;
    void issueInst(IqSlot &slot);

    PipelineState &st_;
    const Policy &policy_;

    /** Per-cycle candidate scratch, one entry per window position
     *  (hoisted: no per-tick allocation). */
    std::vector<IssueCandidate> cands_;
};

// Instantiated explicitly in issue.cc for the abstract policy and each
// paper policy.

} // namespace smt

#endif // SMT_CORE_STAGES_ISSUE_HH
