/**
 * @file
 * IssuePolicy: the instruction-selection strategy of the issue stage
 * (Section 6 of Tullsen et al., ISCA'96).
 *
 * The issue stage collects the issuable candidates from one instruction
 * queue, asks the policy for each candidate's priority key once, sorts
 * by key, and walks the ordered list until the functional units are
 * spent. The paper's policies —
 * OLDEST_FIRST, OPT_LAST, SPEC_LAST, BRANCH_FIRST — are implemented
 * here and registered by name in the PolicyRegistry.
 */

#ifndef SMT_POLICY_ISSUE_POLICY_HH
#define SMT_POLICY_ISSUE_POLICY_HH

#include <cstdint>

#include "common/types.hh"

namespace smt
{

struct IqSlot;
struct PipelineState;

namespace policy
{

class PolicyRegistry;

/** Candidate-ordering strategy consulted by the issue stage. */
class IssuePolicy
{
  public:
    virtual ~IssuePolicy() = default;

    /** Registry name, e.g. "OLDEST_FIRST". */
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

/** Install OLDEST_FIRST, OPT_LAST, SPEC_LAST, BRANCH_FIRST into
 *  `reg`. */
void registerBuiltinIssuePolicies(PolicyRegistry &reg);

} // namespace policy
} // namespace smt

#endif // SMT_POLICY_ISSUE_POLICY_HH
