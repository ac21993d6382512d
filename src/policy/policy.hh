/**
 * @file
 * The fetch and issue heuristics of Tullsen et al., ISCA'96, as the
 * counter reads they are.
 *
 * Fetch (Section 5.2): each cycle the fetch stage ranks the fetchable
 * threads by fetchKey() (lower key = higher priority; round-robin order
 * breaks ties) and fetches from the best `fetchThreads` of them.
 *
 * Issue (Section 6): the issue stage gathers one queue's issuable
 * candidates, keys each once with issueKey(), sorts by key and walks
 * the ordered list until the functional units are spent.
 *
 * One switch per heuristic maps the smt::FetchPolicy / smt::IssuePolicy
 * enum value to its key; toString() of the enum is the paper name.
 */

#ifndef SMT_POLICY_POLICY_HH
#define SMT_POLICY_POLICY_HH

#include <cstddef>
#include <cstdint>

#include "common/logging.hh"
#include "config/config.hh"
#include "core/pipeline_state.hh"

namespace smt::policy
{

/** ICOUNT+MISSCOUNT (beyond the paper): ICOUNT's occupancy ranking plus
 *  this penalty per outstanding D-cache miss, so a thread whose queue
 *  occupancy is low *because* it is blocked on memory does not hog
 *  fetch slots it cannot use. */
inline constexpr double kMissWeight = 4.0;

/**
 * Fetch priority of `tid` this cycle; lower is fetched first.
 *
 * @param iq_posn IQPOSN only: the queue position, counted from the
 *        head, of the thread's oldest entry closest to the head of
 *        either queue (queue size when it has none). Ignored by every
 *        other policy.
 */
inline double
fetchKey(FetchPolicy p, const PipelineState &st, ThreadID tid,
         std::size_t iq_posn)
{
    switch (p) {
      case FetchPolicy::RoundRobin:
        return 0.0; // no key: the round-robin tiebreak decides.
      case FetchPolicy::BrCount:
        // Fewest unresolved branches in decode/rename/IQ first.
        return static_cast<double>(st.branchCount[tid]);
      case FetchPolicy::MissCount:
        // Fewest outstanding D-cache misses first.
        return static_cast<double>(
            st.mem.outstandingDMisses(tid, st.cycle));
      case FetchPolicy::ICount:
        // Fewest instructions in decode/rename/IQ first.
        return static_cast<double>(st.frontAndQueueCount[tid]);
      case FetchPolicy::IQPosn:
        // Instructions near a queue head mean low priority: they are
        // the likeliest to clog it.
        return -static_cast<double>(iq_posn);
      case FetchPolicy::ICountMissCount:
        return static_cast<double>(st.frontAndQueueCount[tid]) +
               kMissWeight * st.mem.outstandingDMisses(tid, st.cycle);
    }
    smt_panic("fetch policy enum value %u out of range",
              static_cast<unsigned>(p));
}

/** Key of a candidate in the policy's preferred (false) or demoted
 *  (true) class: the class bit sits above the sequence number, so age
 *  orders within each class. */
constexpr std::uint64_t
classKey(bool demoted, InstSeqNum seq)
{
    return (demoted ? std::uint64_t{1} << 63 : 0) | seq;
}

/**
 * Issue-priority key of a waiting candidate; the lowest key issues
 * first. Every key embeds the candidate's unique seq in its low bits,
 * so keys never tie and the order is total.
 */
inline std::uint64_t
issueKey(IssuePolicy p, const PipelineState &st, const IqSlot &slot)
{
    switch (p) {
      case IssuePolicy::OldestFirst:
        // Deepest-in-queue (lowest sequence number) first.
        return slot.seq;
      case IssuePolicy::OptLast:
        // Dependents of unverified (optimistic) load hits last.
        return classKey(st.isOptimisticNow(slot.inst), slot.seq);
      case IssuePolicy::SpecLast: {
        // Instructions behind an unresolved same-thread branch last.
        bool speculative = false;
        for (const DynInst *br : st.threads[slot.tid].unresolvedBranches) {
            if (br->seq < slot.seq && br->stage != InstStage::Executed) {
                speculative = true;
                break;
            }
        }
        return classKey(speculative, slot.seq);
      }
      case IssuePolicy::BranchFirst:
        // Branches as early as possible.
        return classKey(!slot.isControl(), slot.seq);
    }
    smt_panic("issue policy enum value %u out of range",
              static_cast<unsigned>(p));
}

} // namespace smt::policy

#endif // SMT_POLICY_POLICY_HH
