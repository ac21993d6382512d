#include "policy/issue_policy.hh"

#include "common/logging.hh"
#include "policy/issue_policies.hh"

namespace smt::policy
{

std::unique_ptr<IssuePolicy>
makeIssuePolicy(smt::IssuePolicy p)
{
    switch (p) {
      case smt::IssuePolicy::OldestFirst:
        return std::make_unique<OldestFirstPolicy>();
      case smt::IssuePolicy::OptLast:
        return std::make_unique<OptLastPolicy>();
      case smt::IssuePolicy::SpecLast:
        return std::make_unique<SpecLastPolicy>();
      case smt::IssuePolicy::BranchFirst:
        return std::make_unique<BranchFirstPolicy>();
    }
    smt_panic("issue policy enum value %u out of range",
              static_cast<unsigned>(p));
}

} // namespace smt::policy
