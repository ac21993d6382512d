/**
 * @file
 * FetchPolicy: the thread-selection strategy of the fetch unit
 * (Section 5.2 of Tullsen et al., ISCA'96).
 *
 * Each cycle the fetch stage ranks the fetchable threads by
 * priorityKey() (lower key = higher priority; round-robin order breaks
 * ties) and fetches from the best `fetchThreads` of them. The paper's
 * policies — RR, BRCOUNT, MISSCOUNT, ICOUNT, IQPOSN — and the hybrid
 * ICOUNT+MISSCOUNT are `final` classes in fetch_policies.hh, one per
 * smt::FetchPolicy enum value; makeFetchPolicy() maps the enum to its
 * class.
 */

#ifndef SMT_POLICY_FETCH_POLICY_HH
#define SMT_POLICY_FETCH_POLICY_HH

#include <memory>

#include "common/types.hh"
#include "config/config.hh"

namespace smt
{

struct PipelineState;

namespace policy
{

/** Thread-priority strategy consulted by the fetch stage. */
class FetchPolicy
{
  public:
    virtual ~FetchPolicy() = default;

    /** Paper name, e.g. "ICOUNT" (toString() of the enum value). */
    virtual const char *name() const = 0;

    /**
     * Called once per cycle before any priorityKey() query; policies
     * that rank against whole-machine structures (IQPOSN) precompute
     * here instead of rescanning per candidate thread.
     */
    virtual void beginCycle(const PipelineState &) {}

    /** Priority of `tid` this cycle; lower is fetched first. */
    virtual double priorityKey(const PipelineState &st,
                               ThreadID tid) const = 0;
};

/** The policy object for one smt::FetchPolicy value. */
std::unique_ptr<FetchPolicy> makeFetchPolicy(smt::FetchPolicy p);

} // namespace policy
} // namespace smt

#endif // SMT_POLICY_FETCH_POLICY_HH
