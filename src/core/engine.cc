#include "core/engine_impl.hh"

#include "config/config.hh"
#include "policy/fetch_policies.hh"
#include "policy/issue_policies.hh"

namespace smt
{

const char *
StageTimes::stageName(unsigned stage)
{
    switch (stage) {
      case Squash:
        return "squash";
      case Commit:
        return "commit";
      case Execute:
        return "execute";
      case Issue:
        return "issue";
      case Rename:
        return "rename";
      case Decode:
        return "decode";
      case Fetch:
        return "fetch";
      default:
        return "?";
    }
}

namespace
{

template <typename FP, typename IP>
std::unique_ptr<CoreEngine>
specialized(PipelineState &st)
{
    return std::make_unique<CoreEngineT<FP, IP>>(
        st, std::make_unique<FP>(), std::make_unique<IP>());
}

} // namespace

std::unique_ptr<CoreEngine>
makeCoreEngine(PipelineState &st, const SmtConfig &cfg,
               CoreDispatch dispatch)
{
    using policy::ICountPolicy;
    using policy::OldestFirstPolicy;
    const bool auto_dispatch = dispatch == CoreDispatch::Auto;
    // Every fetch policy the paper sweeps, under the default issue
    // policy (Section 5)...
    if (auto_dispatch && cfg.issuePolicy == IssuePolicy::OldestFirst) {
        switch (cfg.fetchPolicy) {
          case FetchPolicy::RoundRobin:
            return specialized<policy::RoundRobinPolicy,
                               OldestFirstPolicy>(st);
          case FetchPolicy::BrCount:
            return specialized<policy::BrCountPolicy,
                               OldestFirstPolicy>(st);
          case FetchPolicy::MissCount:
            return specialized<policy::MissCountPolicy,
                               OldestFirstPolicy>(st);
          case FetchPolicy::ICount:
            return specialized<ICountPolicy, OldestFirstPolicy>(st);
          case FetchPolicy::IQPosn:
            return specialized<policy::IQPosnPolicy,
                               OldestFirstPolicy>(st);
          case FetchPolicy::ICountMissCount:
            return specialized<policy::ICountMissCountPolicy,
                               OldestFirstPolicy>(st);
          default:
            break;
        }
    }
    // ...and the issue-policy sweep, run under the winning fetch
    // policy (Section 6).
    if (auto_dispatch && cfg.fetchPolicy == FetchPolicy::ICount) {
        switch (cfg.issuePolicy) {
          case IssuePolicy::OptLast:
            return specialized<ICountPolicy, policy::OptLastPolicy>(st);
          case IssuePolicy::SpecLast:
            return specialized<ICountPolicy, policy::SpecLastPolicy>(st);
          case IssuePolicy::BranchFirst:
            return specialized<ICountPolicy,
                               policy::BranchFirstPolicy>(st);
          default:
            break;
        }
    }
    // Every other pair, and CoreDispatch::ForceGeneric: the same stage
    // code dispatching through the policy vtables.
    return std::make_unique<
        CoreEngineT<policy::FetchPolicy, policy::IssuePolicy>>(
        st, policy::makeFetchPolicy(cfg.fetchPolicy),
        policy::makeIssuePolicy(cfg.issuePolicy));
}

// The specialized instantiations (one per pair above, plus
// the generic virtual-dispatch engine). Keeping them here — rather
// than implicit in every includer — keeps engine_impl.hh a
// single-translation-unit header.
template class CoreEngineT<policy::FetchPolicy, policy::IssuePolicy>;
template class CoreEngineT<policy::RoundRobinPolicy,
                           policy::OldestFirstPolicy>;
template class CoreEngineT<policy::BrCountPolicy,
                           policy::OldestFirstPolicy>;
template class CoreEngineT<policy::MissCountPolicy,
                           policy::OldestFirstPolicy>;
template class CoreEngineT<policy::ICountPolicy,
                           policy::OldestFirstPolicy>;
template class CoreEngineT<policy::IQPosnPolicy,
                           policy::OldestFirstPolicy>;
template class CoreEngineT<policy::ICountMissCountPolicy,
                           policy::OldestFirstPolicy>;
template class CoreEngineT<policy::ICountPolicy, policy::OptLastPolicy>;
template class CoreEngineT<policy::ICountPolicy, policy::SpecLastPolicy>;
template class CoreEngineT<policy::ICountPolicy,
                           policy::BranchFirstPolicy>;

} // namespace smt
