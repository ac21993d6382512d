/**
 * @file
 * The (fetch, issue) policy pairs with a specialized core engine, shared
 * by the specialized-vs-generic test matrices (test_engine, test_pipe,
 * test_stall). Kept in sync with makeCoreEngine() in core/engine.cc;
 * EngineMatrix.SpecializedIsCycleIdenticalToGenericForAllPairs fails if
 * a listed pair runs generic.
 */

#ifndef SMT_TESTS_POLICY_PAIRS_HH
#define SMT_TESTS_POLICY_PAIRS_HH

#include <string>

#include "config/config.hh"

namespace smt
{

struct PolicyPair
{
    FetchPolicy fetch;
    IssuePolicy issue;

    /** "ICOUNT.OPT_LAST", for failure messages. */
    std::string
    name() const
    {
        return std::string(toString(fetch)) + "." + toString(issue);
    }
};

/** The paper's fetch sweep under OLDEST_FIRST (plus the hybrid), and
 *  its issue sweep under ICOUNT. */
inline constexpr PolicyPair kSpecializedPairs[] = {
    {FetchPolicy::RoundRobin, IssuePolicy::OldestFirst},
    {FetchPolicy::BrCount, IssuePolicy::OldestFirst},
    {FetchPolicy::MissCount, IssuePolicy::OldestFirst},
    {FetchPolicy::ICount, IssuePolicy::OldestFirst},
    {FetchPolicy::IQPosn, IssuePolicy::OldestFirst},
    {FetchPolicy::ICountMissCount, IssuePolicy::OldestFirst},
    {FetchPolicy::ICount, IssuePolicy::OptLast},
    {FetchPolicy::ICount, IssuePolicy::SpecLast},
    {FetchPolicy::ICount, IssuePolicy::BranchFirst},
};

} // namespace smt

#endif // SMT_TESTS_POLICY_PAIRS_HH
