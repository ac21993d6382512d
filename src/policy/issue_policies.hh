/**
 * @file
 * The concrete issue policies of Section 6.
 *
 * Header-visible (like fetch_policies.hh) so the specialized core
 * engines can instantiate the issue stage over a concrete `final`
 * policy type: key() then resolves statically and inlines into the
 * candidate gather. makeIssuePolicy() builds them for the generic
 * virtual-dispatch path.
 */

#ifndef SMT_POLICY_ISSUE_POLICIES_HH
#define SMT_POLICY_ISSUE_POLICIES_HH

#include "core/pipeline_state.hh"
#include "policy/issue_policy.hh"

namespace smt::policy
{

/** OLDEST_FIRST: deepest-in-queue (lowest sequence number) first. */
class OldestFirstPolicy final : public IssuePolicy
{
  public:
    const char *name() const override { return "OLDEST_FIRST"; }

    std::uint64_t
    key(const PipelineState &, const IqSlot &slot) const override
    {
        return slot.seq;
    }
};

/** OPT_LAST: dependents of unverified (optimistic) load hits last. */
class OptLastPolicy final : public IssuePolicy
{
  public:
    const char *name() const override { return "OPT_LAST"; }

    std::uint64_t
    key(const PipelineState &st, const IqSlot &slot) const override
    {
        return classKey(st.isOptimisticNow(slot.inst), slot.seq);
    }
};

/** SPEC_LAST: instructions behind an unresolved same-thread branch
 *  last. */
class SpecLastPolicy final : public IssuePolicy
{
  public:
    const char *name() const override { return "SPEC_LAST"; }

    std::uint64_t
    key(const PipelineState &st, const IqSlot &slot) const override
    {
        bool speculative = false;
        for (const DynInst *br : st.threads[slot.tid].unresolvedBranches) {
            if (br->seq < slot.seq && br->stage != InstStage::Executed) {
                speculative = true;
                break;
            }
        }
        return classKey(speculative, slot.seq);
    }
};

/** BRANCH_FIRST: branches as early as possible. */
class BranchFirstPolicy final : public IssuePolicy
{
  public:
    const char *name() const override { return "BRANCH_FIRST"; }

    std::uint64_t
    key(const PipelineState &, const IqSlot &slot) const override
    {
        return classKey(!slot.isControl(), slot.seq);
    }
};

} // namespace smt::policy

#endif // SMT_POLICY_ISSUE_POLICIES_HH
