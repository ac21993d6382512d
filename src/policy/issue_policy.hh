/**
 * @file
 * IssuePolicy: the instruction-selection strategy of the issue stage
 * (Section 6 of Tullsen et al., ISCA'96).
 *
 * The issue stage collects the issuable candidates from one instruction
 * queue, asks the policy for each candidate's priority key once, sorts
 * by key, and walks the ordered list until the functional units are
 * spent. The paper's policies —
 * OLDEST_FIRST, OPT_LAST, SPEC_LAST, BRANCH_FIRST — are `final`
 * classes in issue_policies.hh, one per smt::IssuePolicy enum value;
 * makeIssuePolicy() maps the enum to its class.
 */

#ifndef SMT_POLICY_ISSUE_POLICY_HH
#define SMT_POLICY_ISSUE_POLICY_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"
#include "config/config.hh"

namespace smt
{

struct IqSlot;
struct PipelineState;

namespace policy
{

/** Candidate-ordering strategy consulted by the issue stage. */
class IssuePolicy
{
  public:
    virtual ~IssuePolicy() = default;

    /** Paper name, e.g. "OLDEST_FIRST" (toString() of the enum value). */
    virtual const char *name() const = 0;

    /**
     * Issue-priority key of a waiting candidate; the lowest key issues
     * first. Every key embeds the candidate's unique seq in its low
     * bits, so keys never tie and the order is total.
     */
    virtual std::uint64_t key(const PipelineState &st,
                              const IqSlot &slot) const = 0;
};

/** Key of a candidate in the policy's preferred (false) or demoted
 *  (true) class: the class bit sits above the sequence number, so age
 *  orders within each class. */
constexpr std::uint64_t
classKey(bool demoted, InstSeqNum seq)
{
    return (demoted ? std::uint64_t{1} << 63 : 0) | seq;
}

/** The policy object for one smt::IssuePolicy value. */
std::unique_ptr<IssuePolicy> makeIssuePolicy(smt::IssuePolicy p);

} // namespace policy
} // namespace smt

#endif // SMT_POLICY_ISSUE_POLICY_HH
