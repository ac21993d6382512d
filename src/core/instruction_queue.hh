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
 *
 * A waiting entry that cannot issue before an unissued producer does
 * is *parked* (IssueStage decides when): the per-cycle walk does not
 * visit it until a write to the producer's wakeup cell unparks it.
 * Parked entries keep their age position, so size(), full() and
 * IQPOSN's positions count them as before.
 */

#ifndef SMT_CORE_INSTRUCTION_QUEUE_HH
#define SMT_CORE_INSTRUCTION_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
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
 *  - seq, tid and flags mirror DynInst fields fixed at rename;
 *  - release is the cycle the entry vacates the queue (kCycleNever
 *    while the instruction waits for issue). The slot is its only
 *    owner: IssueStage::issueInst sets it, and PipelineState::requeue
 *    resets it when an issued instruction returns to the queue;
 *  - wake1/wake2 are the sources' wakeup cells: the `readyAt` slot of
 *    each source's physical register (RegisterFileState::readyCell),
 *    or kAlwaysReady for an absent source. Every readyAt writer updates
 *    the cell in place, so readiness needs no mirror;
 *  - blockStore/blockSeq are a load's disambiguation state (see
 *    IssueStage::disambiguated);
 *  - parkGen/parkIdx are the parking state: the generation a parked
 *    entry's wakeup handle must match (bumped at every park, kept
 *    across slot reuse) and its index in the queue's parked list.
 */
struct IqSlot
{
    static constexpr std::uint8_t kMemory = 1u << 0;
    static constexpr std::uint8_t kControl = 1u << 1;
    /** A load not yet shown free of older same-address stores. */
    static constexpr std::uint8_t kAwaitsDisambiguation = 1u << 2;
    /** Source 1 (2) may park the entry: it names a register whose
     *  producer has a nonzero latency, so while that producer is
     *  unissued the source cannot become ready within a cycle. */
    static constexpr std::uint8_t kParks1 = 1u << 3;
    static constexpr std::uint8_t kParks2 = 1u << 4;
    /** Parked on source 2's cell (else on source 1's). */
    static constexpr std::uint8_t kParkedOn2 = 1u << 5;

    Cycle release = kCycleNever;
    InstSeqNum seq = 0;
    const Cycle *wake1 = &kAlwaysReady;
    const Cycle *wake2 = &kAlwaysReady;
    DynInst *inst = nullptr;
    /** Older conflicting store last seen by a blocked load, and its
     *  seq (pooled DynInsts are reused, so the pointer alone cannot
     *  say whether it still names that store). */
    const DynInst *blockStore = nullptr;
    InstSeqNum blockSeq = 0;
    ThreadID tid = 0;
    std::uint8_t flags = 0;
    std::uint16_t parkIdx = 0;
    std::uint16_t parkGen = 0;

    /** Waiting for issue (not issued and awaiting release). */
    bool inQueue() const { return release == kCycleNever; }
    bool isMemory() const { return flags & kMemory; }
    bool isControl() const { return flags & kControl; }

    /** The cell a parked entry waits on. */
    const Cycle *
    parkedCell() const
    {
        return (flags & kParkedOn2) ? wake2 : wake1;
    }

    /** Both sources' values are available to an issue at `now`. */
    bool
    ready(Cycle now) const
    {
        return std::max(*wake1, *wake2) <= now;
    }
};

static_assert(sizeof(IqSlot) == 64, "an IqSlot fills one cache line");

/** A parked entry as the stall ledger needs it: its fixed issue key,
 *  thread and memory flag, plus its slot number. */
struct ParkedEntry
{
    std::uint64_t key;
    std::uint16_t slot;
    ThreadID tid;
    bool memory;
};

/**
 * An age-ordered instruction queue with a bounded search window.
 *
 * Slots live at fixed physical positions; the age order is a separate
 * array of 16-bit slot numbers, so the per-cycle compaction moves two
 * bytes per surviving entry rather than a whole slot, and an IqSlot
 * reference stays valid until its entry leaves the queue.
 *
 * A parked entry leaves that array (the per-cycle walk) for an
 * unordered parked list, and unpark() puts it back at its age
 * position, found by its insertion stamp. The age order of the whole
 * queue, which size(), slot(idx) and IQPOSN's positions count, is the
 * merge of the two by stamp.
 */
class InstructionQueue
{
  public:
    InstructionQueue(unsigned entries, unsigned search_window);

    bool full() const { return size() >= entries_; }
    std::size_t
    size() const
    {
        return order_.size() + parkedList_.size();
    }
    unsigned capacity() const { return entries_; }

    /** Entries may park: the search window covers the whole queue,
     *  so no entry's candidacy depends on the entries ahead of it. */
    bool windowCoversQueue() const { return searchWindow_ >= entries_; }

    /**
     * Insert at the tail (dispatch). Caller checks full() first; the
     * instruction's seq, tid and op must already be set. `wake1`/
     * `wake2` are its sources' wakeup cells (kAlwaysReady for an
     * absent source); `park_flags` holds IqSlot::kParks1/kParks2 for
     * the sources that may park it. The slot starts waiting (release =
     * kCycleNever).
     */
    void
    insert(DynInst *inst, const Cycle *wake1, const Cycle *wake2,
           std::uint8_t park_flags = 0)
    {
        const StaticInst &si = *inst->si;
        const std::uint16_t p = free_.back();
        free_.pop_back();
        slots_[p] = IqSlot{
            .seq = inst->seq,
            .wake1 = wake1,
            .wake2 = wake2,
            .inst = inst,
            .tid = inst->tid,
            .flags = static_cast<std::uint8_t>(
                (si.isMemory() ? IqSlot::kMemory : 0) |
                (si.isControl() ? IqSlot::kControl : 0) |
                (si.isLoad() ? IqSlot::kAwaitsDisambiguation : 0) |
                park_flags),
            // A stale wakeup handle of the slot's previous entry must
            // not match a park of this one.
            .parkGen = slots_[p].parkGen,
        };
        stamp_[p] = nextStamp_++;
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
        // Downward, so the swap-remove only moves visited entries.
        for (std::size_t i = parkedList_.size(); i-- > 0;) {
            const std::uint16_t p = parkedList_[i].slot;
            if (pred(slots_[p].inst)) {
                dropParked(p);
                free_.push_back(p);
            }
        }
    }

    /**
     * The per-cycle issue scan, fused into one pass over the unparked
     * entries: drop every entry whose release cycle has come (issued
     * instructions vacate a cycle after issue; optimistic ones once
     * verified; memory operations once the access happened), and call
     * `gather(slot)` on each waiting entry whose *post-compaction*
     * position falls inside the search window. An entry that `gather`
     * parks leaves the walk.
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
            if (out < searchWindow_ && s.inQueue()) {
                gather(s);
                if (parked_[p])
                    continue;
            }
            order[out++] = p;
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
        return std::min<std::size_t>(size(), searchWindow_);
    }

    /** Call `f(slot)` on every entry, in no particular order. */
    template <typename F>
    void
    forEachSlot(F f) const
    {
        for (const std::uint16_t p : order_)
            f(slots_[p]);
        for (const ParkedEntry &e : parkedList_)
            f(slots_[e.slot]);
    }

    /** The entry at age position `idx` (0 = head = oldest); with
     *  entries parked this merges the whole age order (tests, dumps). */
    IqSlot &slot(std::size_t idx) { return slots_[slotAt(idx)]; }
    const IqSlot &slot(std::size_t idx) const
    {
        return slots_[slotAt(idx)];
    }
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

    // ---- Parking (see IssueStage) ---------------------------------------

    /**
     * Park the waiting entry `s`, which the current releaseAndGather()
     * is visiting, under its fixed issue key `key`, on its source 2's
     * cell when `on_src2` (else source 1's): it leaves the walk until
     * unpark(). Returns the generation its wakeup handle must carry.
     */
    std::uint16_t
    park(IqSlot &s, std::uint64_t key, bool on_src2)
    {
        const std::uint16_t p = slotIndex(s);
        parked_[p] = 1;
        s.flags = on_src2 ? (s.flags | IqSlot::kParkedOn2)
                          : (s.flags & ~IqSlot::kParkedOn2);
        s.parkIdx = static_cast<std::uint16_t>(parkedList_.size());
        parkedList_.push_back({key, p, s.tid, s.isMemory()});
        ++parkedPerThread_[s.tid];
        return ++s.parkGen;
    }

    /** The slot number of `s`, for a wakeup handle. */
    std::uint16_t
    slotIndex(const IqSlot &s) const
    {
        return static_cast<std::uint16_t>(&s - slots_.data());
    }

    /** Return slot `p` to the walk, at its age position, if its park
     *  of generation `gen` is still current (the handle may outlive a
     *  squash or a re-park). Not during releaseAndGather(). */
    void
    unpark(std::uint16_t p, std::uint16_t gen)
    {
        if (parked_[p] && slots_[p].parkGen == gen)
            rejoin(p);
    }

    /** Every parked entry, in no particular order. */
    std::span<const ParkedEntry> parked() const { return parkedList_; }
    std::size_t parkedCount() const { return parkedList_.size(); }
    unsigned
    parkedCount(ThreadID tid) const
    {
        return parkedPerThread_[tid];
    }
    const IqSlot &physSlot(std::uint16_t p) const { return slots_[p]; }

    /** Check the parking bookkeeping (tests): the flags, the list and
     *  the per-thread counts agree, and every parked entry waits. */
    void validateParked() const;

  private:
    /** Take parked slot `p` out of the parked list (swap-remove). */
    void
    dropParked(std::uint16_t p)
    {
        parked_[p] = 0;
        const IqSlot &s = slots_[p];
        --parkedPerThread_[s.tid];
        const ParkedEntry moved = parkedList_.back();
        parkedList_[s.parkIdx] = moved;
        slots_[moved.slot].parkIdx = s.parkIdx;
        parkedList_.pop_back();
    }

    /** Unpark slot `p` into the walk at its age position. */
    void rejoin(std::uint16_t p);

    /** Every live slot number in age order: order_ itself when
     *  nothing is parked, else the walk and the parked entries merged
     *  by stamp into ageScratch_. */
    std::span<const std::uint16_t> ageOrder() const;

    /** Slot number at age position `idx`. */
    std::uint16_t slotAt(std::size_t idx) const { return ageOrder()[idx]; }

    unsigned entries_;
    unsigned searchWindow_;
    std::vector<IqSlot> slots_;         ///< physical slots, fixed size.
    std::vector<std::uint16_t> order_;  ///< unparked slot numbers, by age.
    std::vector<std::uint16_t> free_;   ///< unused slot numbers.
    std::vector<std::uint64_t> stamp_;  ///< per slot: insertion stamp.
    std::uint64_t nextStamp_ = 0;
    std::vector<std::uint8_t> parked_;  ///< per slot: 1 while parked.
    std::vector<ParkedEntry> parkedList_;
    std::array<unsigned, kMaxThreads> parkedPerThread_{};
    /** ageOrder() scratch (capacity reserved: no per-call allocation). */
    mutable std::vector<std::uint16_t> parkedScratch_;
    mutable std::vector<std::uint16_t> ageScratch_;
};

} // namespace smt

#endif // SMT_CORE_INSTRUCTION_QUEUE_HH
