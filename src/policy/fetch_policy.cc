#include "policy/fetch_policy.hh"

#include "common/logging.hh"
#include "policy/fetch_policies.hh"

namespace smt::policy
{

std::unique_ptr<FetchPolicy>
makeFetchPolicy(smt::FetchPolicy p)
{
    switch (p) {
      case smt::FetchPolicy::RoundRobin:
        return std::make_unique<RoundRobinPolicy>();
      case smt::FetchPolicy::BrCount:
        return std::make_unique<BrCountPolicy>();
      case smt::FetchPolicy::MissCount:
        return std::make_unique<MissCountPolicy>();
      case smt::FetchPolicy::ICount:
        return std::make_unique<ICountPolicy>();
      case smt::FetchPolicy::IQPosn:
        return std::make_unique<IQPosnPolicy>();
      case smt::FetchPolicy::ICountMissCount:
        return std::make_unique<ICountMissCountPolicy>();
    }
    smt_panic("fetch policy enum value %u out of range",
              static_cast<unsigned>(p));
}

} // namespace smt::policy
