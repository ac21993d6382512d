/**
 * @file
 * InstructionQueue: one of the two queues of Section 2.1 (integer +
 * load/store, or floating point). Entries are age-ordered; issue
 * selection may only search the first `searchWindow` entries — the BIGQ
 * scheme of Section 5.3 doubles the entry count while keeping the
 * search window at 32, turning the back half into a dispatch buffer.
 *
 * Each entry is an IqSlot that carries, inline, the fields the
 * per-cycle issue walk reads, so the release pass, the window test,
 * the readiness test and IQPOSN's position scan read no DynInst.
 */

#ifndef SMT_CORE_INSTRUCTION_QUEUE_HH
#define SMT_CORE_INSTRUCTION_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dyn_inst.hh"

namespace smt
{

/** The wakeup cell of an absent source operand: ready since cycle 0. */
inline constexpr Cycle kAlwaysReady = 0;

/**
 * One queue entry: the fields the per-cycle issue walk reads, inline,
 * so release, windowing and the readiness test read nothing through
 * the entry's DynInst (`inst`). Two per-candidate checks still do: a
 * load awaiting disambiguation reads its `memAddr`, and the OPT_LAST
 * key asks PipelineState::isOptimisticNow, which follows `si` to the
 * register file.
 *  - seq, tid, flags and renameCycle mirror DynInst fields fixed at
 *    rename;
 *  - release is the cycle the entry vacates the queue (kCycleNever
 *    while the instruction waits for issue). The slot is its only
 *    owner: IssueStage::issueInst sets it, and PipelineState::requeue
 *    resets it when an issued instruction returns to the queue;
 *  - wake1/wake2 are the sources' wakeup cells: the `readyAt` slot of
 *    each source's physical register (RegisterFileState::readyCell),
 *    or kAlwaysReady for an absent source. Every readyAt writer updates
 *    the cell in place, so readiness needs no mirror;
 *  - blockStore/blockSeq are a load's disambiguation state (see
 *    IssueStage::disambiguated).
 */
struct IqSlot
{
    static constexpr std::uint8_t kMemory = 1u << 0;
    static constexpr std::uint8_t kControl = 1u << 1;
    /** A load not yet shown free of older same-address stores. */
    static constexpr std::uint8_t kAwaitsDisambiguation = 1u << 2;

    Cycle release = kCycleNever;
    InstSeqNum seq = 0;
    const Cycle *wake1 = &kAlwaysReady;
    const Cycle *wake2 = &kAlwaysReady;
    DynInst *inst = nullptr;
    Cycle renameCycle = 0;
    /** Older conflicting store last seen by a blocked load, and its
     *  seq (pooled DynInsts are reused, so the pointer alone cannot
     *  say whether it still names that store). */
    const DynInst *blockStore = nullptr;
    InstSeqNum blockSeq = 0;
    ThreadID tid = 0;
    std::uint8_t flags = 0;

    /** Waiting for issue (not issued and awaiting release). */
    bool inQueue() const { return release == kCycleNever; }
    bool isMemory() const { return flags & kMemory; }
    bool isControl() const { return flags & kControl; }

    /** Both sources' values are available to an issue at `now`. */
    bool
    ready(Cycle now) const
    {
        return std::max(*wake1, *wake2) <= now;
    }
};

/**
 * An age-ordered instruction queue with a bounded search window.
 *
 * Slots live at fixed physical positions; the age order is a separate
 * array of 16-bit slot numbers, so the per-cycle compaction moves two
 * bytes per surviving entry rather than a whole slot, and an IqSlot
 * reference stays valid until its entry leaves the queue.
 */
class InstructionQueue
{
  public:
    InstructionQueue(unsigned entries, unsigned search_window);

    bool full() const { return order_.size() >= entries_; }
    std::size_t size() const { return order_.size(); }
    unsigned capacity() const { return entries_; }

    /**
     * Insert at the tail (dispatch). Caller checks full() first; the
     * instruction's seq, tid, op and renameCycle must already be set.
     * `wake1`/`wake2` are its sources' wakeup cells (kAlwaysReady for
     * an absent source). The slot starts waiting (release =
     * kCycleNever).
     */
    void
    insert(DynInst *inst, const Cycle *wake1, const Cycle *wake2)
    {
        const StaticInst &si = *inst->si;
        const std::uint16_t p = free_.back();
        free_.pop_back();
        slots_[p] = IqSlot{
            .seq = inst->seq,
            .wake1 = wake1,
            .wake2 = wake2,
            .inst = inst,
            .renameCycle = inst->renameCycle,
            .tid = inst->tid,
            .flags = static_cast<std::uint8_t>(
                (si.isMemory() ? IqSlot::kMemory : 0) |
                (si.isControl() ? IqSlot::kControl : 0) |
                (si.isLoad() ? IqSlot::kAwaitsDisambiguation : 0)),
        };
        order_.push_back(p);
    }

    /** Remove a specific instruction. */
    void remove(DynInst *inst);

    /** Remove every instruction satisfying `pred` (bulk squash). */
    template <typename Pred>
    void
    removeIf(Pred pred)
    {
        std::erase_if(order_, [&](std::uint16_t p) {
            if (!pred(slots_[p].inst))
                return false;
            free_.push_back(p);
            return true;
        });
    }

    /**
     * The per-cycle issue scan, fused into one pass: drop every entry
     * whose release cycle has come (issued instructions vacate a cycle
     * after issue; optimistic ones once verified; memory operations
     * once the access happened), and call `gather(slot)` on each
     * waiting entry whose *post-compaction* position falls inside the
     * search window.
     */
    template <typename Gather>
    void
    releaseAndGather(Cycle now, Gather gather)
    {
        std::uint16_t *order = order_.data();
        const std::size_t n = order_.size();
        std::size_t out = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint16_t p = order[i];
            IqSlot &s = slots_[p];
            if (s.release <= now) {
                free_.push_back(p);
                continue;
            }
            order[out] = p;
            if (out < searchWindow_ && s.inQueue())
                gather(s);
            ++out;
        }
        order_.resize(out);
    }

    /** Mirror a requeued instruction's return to the queue: its slot
     *  waits for issue again. */
    void requeue(const DynInst *inst);

    /** The searchable (issuable) prefix length. */
    std::size_t
    searchLimit() const
    {
        return std::min<std::size_t>(order_.size(), searchWindow_);
    }

    /** The entry at age position `idx` (0 = head = oldest). */
    IqSlot &slot(std::size_t idx) { return slots_[order_[idx]]; }
    const IqSlot &slot(std::size_t idx) const { return slots_[order_[idx]]; }
    DynInst *at(std::size_t idx) const { return slot(idx).inst; }

    /**
     * Position (0 = head = oldest) of the first not-yet-issued entry of
     * each thread; `out` holds one slot per thread of interest, entry =
     * queue size when the thread has nothing here. Entries for threads
     * beyond out.size() are ignored (bounds-checked). Used by the
     * IQPOSN fetch policy.
     */
    void oldestPositions(std::span<std::size_t> out) const;

    /** Fixed-capacity overload for callers sized to the maximum. */
    void
    oldestPositions(std::size_t (&out)[kMaxThreads]) const
    {
        oldestPositions(std::span<std::size_t>(out, kMaxThreads));
    }

  private:
    unsigned entries_;
    unsigned searchWindow_;
    std::vector<IqSlot> slots_;         ///< physical slots, fixed size.
    std::vector<std::uint16_t> order_;  ///< live slot numbers, by age.
    std::vector<std::uint16_t> free_;   ///< unused slot numbers.
};

} // namespace smt

#endif // SMT_CORE_INSTRUCTION_QUEUE_HH
