/**
 * @file
 * FetchStage: per-cycle thread selection (ranked by the configured
 * fetch policy's key, policy/policy.hh) and instruction fetch from the
 * selected threads' code images (Sections 4 and 5).
 */

#ifndef SMT_CORE_STAGES_FETCH_HH
#define SMT_CORE_STAGES_FETCH_HH

#include <array>

#include "core/pipeline_state.hh"

namespace smt
{

/**
 * Per-cycle fetch disposition of one thread, flushed into
 * StallStats at the end of the stage tick. Exactly one outcome is
 * recorded per (cycle, thread), so the stall counters partition the
 * run's cycles per thread.
 */
enum class FetchOutcome : std::uint8_t
{
    Active,        ///< fetched at least one instruction.
    IcacheMiss,    ///< I-cache/ITLB miss pending/starting, or bank lost.
    FrontEndFull,  ///< front-end occupancy cap (IQ backpressure).
    NoTarget,      ///< fetch PC awaiting misfetch resolution.
    LostSelection, ///< fetchable but out-prioritized this cycle.
};

/** One fetch-selection candidate (a fetchable thread this cycle). */
struct FetchCandidate
{
    double key;  ///< policy priority, lower first.
    unsigned rr; ///< round-robin rank, breaks key ties.
    ThreadID tid;
};

/**
 * Order candidates by (key, rr) ascending with a binary insertion
 * sort: N is at most kMaxThreads (8), where the branch-lean shifted
 * insert beats std::sort's introsort setup every cycle. The (key, rr)
 * pair is a strict total order over candidates (rr ranks are unique),
 * so the result is independent of the input permutation.
 */
inline void
sortFetchCandidates(FetchCandidate *cands, unsigned n)
{
    for (unsigned i = 1; i < n; ++i) {
        const FetchCandidate c = cands[i];
        unsigned j = i;
        while (j > 0 && (c.key < cands[j - 1].key ||
                         (c.key == cands[j - 1].key &&
                          c.rr < cands[j - 1].rr))) {
            cands[j] = cands[j - 1];
            --j;
        }
        cands[j] = c;
    }
}

/** Fetch stage. */
class FetchStage
{
  public:
    explicit FetchStage(PipelineState &st) : st_(st) {}

    void tick();

  private:
    /** Priority-ordered candidate thread list for this cycle. */
    unsigned selectFetchThreads();
    unsigned fetchFromThread(ThreadID tid, unsigned max_insts);
    DynInst *buildInst(ThreadState &ts, ThreadID tid, Addr pc);

    PipelineState &st_;

    // Per-cycle scratch, sized to the machine maximum so the fetch
    // walk never touches the heap.
    std::array<FetchCandidate, kMaxThreads> cands_;
    std::array<ThreadID, kMaxThreads> selected_;
    std::array<unsigned, kMaxThreads> banks_;
    std::array<FetchOutcome, kMaxThreads> outcome_;
    /** IQPOSN's per-thread oldest-entry positions in each queue,
     *  filled once per cycle and only under that policy. */
    std::array<std::size_t, kMaxThreads> posInt_{};
    std::array<std::size_t, kMaxThreads> posFp_{};
};

} // namespace smt

#endif // SMT_CORE_STAGES_FETCH_HH
