/**
 * @file
 * PipelineState: the machine state shared by every pipeline stage.
 *
 * The SMT core is organised as a set of stage objects (src/core/stages/)
 * that each operate on this one structure. PipelineState owns the
 * per-thread state, the renamed register files, the instruction queues,
 * the in-flight bookkeeping, and the cycle counter; the stages own no
 * state of their own beyond scratch buffers. Helpers that several stages
 * need (register-file selection, requeue, instruction release)
 * live here rather than on any single stage.
 */

#ifndef SMT_CORE_PIPELINE_STATE_HH
#define SMT_CORE_PIPELINE_STATE_HH

#include <array>
#include <limits>
#include <vector>

#include "branch/predictor.hh"
#include "common/ring.hh"
#include "config/config.hh"
#include "core/inst_pool.hh"
#include "core/instruction_queue.hh"
#include "core/rename_map.hh"
#include "mem/hierarchy.hh"
#include "stats/stats.hh"
#include "workload/oracle.hh"

namespace smt
{

namespace obs
{
class PipeTrace;
} // namespace obs

/**
 * Per-hardware-context pipeline state.
 *
 * Fields the per-cycle scans read for *every* thread (the ICOUNT /
 * BRCOUNT counters, fetchReadyAt) do not live here: they sit in the
 * structure-of-arrays lanes on PipelineState so a whole-machine scan
 * touches a couple of cache lines instead of striding sizeof(ThreadState).
 */
struct ThreadState
{
    ThreadProgram *program = nullptr;

    Addr fetchPc = 0;
    std::uint64_t nextStreamIdx = 0;
    bool onWrongPath = false;

    /** Fetched but not yet renamed, in order (fetch/decode buffer). */
    Ring<DynInst *> frontEnd;

    /** How many entries at the front of frontEnd are decoded: decode
     *  and rename are both in order, so the decoded entries form a
     *  prefix and frontEnd[frontEndDecoded] is the next to decode. */
    std::size_t frontEndDecoded = 0;

    /** Renamed and not yet committed, in order (the thread's ROB). */
    Ring<DynInst *> rob;

    /** Renamed, uncommitted control instructions in program order,
     *  used by the SPEC_LAST policy and the speculation-mode
     *  restrictions (which skip the executed ones). Commit pops the
     *  front; a squash pops the back. */
    Ring<DynInst *> unresolvedBranches;

    /** In-flight (renamed, unexecuted) stores, for disambiguation. */
    std::vector<DynInst *> pendingStores;

    /** Pending mispredict squash (applied the cycle after exec). */
    DynInst *pendingSquash = nullptr;
    Cycle pendingSquashCycle = 0;

    /** Commit-order check: the stream index the next committed
     *  instruction of this thread must carry. */
    std::uint64_t nextCommitStreamIdx = 0;
};

/** "No candidate" in a per-thread array of head seqs. */
inline constexpr InstSeqNum kNoHead =
    std::numeric_limits<InstSeqNum>::max();

/**
 * The thread among the first `n` whose head seq is the oldest, or
 * kMaxThreads when every head is kNoHead. Seqs are unique, so the
 * pick is the same whatever the scan order. Decode and rename select
 * their globally oldest candidate this way.
 */
inline unsigned
oldestHead(const std::array<InstSeqNum, kMaxThreads> &head, unsigned n)
{
    unsigned best = kMaxThreads;
    InstSeqNum best_seq = kNoHead;
    for (unsigned t = 0; t < n; ++t) {
        if (head[t] < best_seq) {
            best_seq = head[t];
            best = t;
        }
    }
    return best;
}

/** All machine state the pipeline stages operate on. */
struct PipelineState
{
    PipelineState(const SmtConfig &config, MemoryHierarchy &memory,
                  BranchPredictor &branch_pred, SimStats &sim_stats);

    // The containers hold raw DynInst pointers into this object's own
    // pool; a copy would share live instructions with the source.
    PipelineState(const PipelineState &) = delete;
    PipelineState &operator=(const PipelineState &) = delete;

    // ---- Fixed configuration and shared subsystems --------------------
    const SmtConfig &cfg;
    MemoryHierarchy &mem;
    BranchPredictor &bp;
    SimStats &stats;

    unsigned numThreads;
    unsigned execOffset;  ///< issue -> execute distance.
    unsigned commitDelta; ///< execute-end -> commit-eligible distance.
    unsigned frontEndCap; ///< fetch backpressure bound per thread.

    // ---- Machine state -------------------------------------------------
    Cycle cycle = 0;
    InstSeqNum nextSeq = 1;
    InstPool pool;

    std::vector<ThreadState> threads;
    RegisterFileState intRegs;
    RegisterFileState fpRegs;
    InstructionQueue intQueue;
    InstructionQueue fpQueue;

    // ---- Structure-of-arrays hot lanes (one slot per thread) -----------
    // The fetch-priority scan reads these for every thread every cycle
    // (ICOUNT, BRCOUNT, the fetchable test); keeping them contiguous and
    // cache-line-aligned makes that scan touch two lines, not one
    // ThreadState-sized stride per thread.

    /** ICOUNT counter: instructions currently in decode, rename, or an
     *  instruction queue, per thread. */
    alignas(64) std::array<unsigned, kMaxThreads> frontAndQueueCount{};

    /** BRCOUNT counter: unresolved branches in decode/rename/IQ. */
    std::array<unsigned, kMaxThreads> branchCount{};

    /** Thread may not fetch again before this cycle (I-cache miss,
     *  redirect bubble), per thread. */
    std::array<Cycle, kMaxThreads> fetchReadyAt{};

    /**
     * Issued, awaiting execute; bucketed by execute cycle in a ring.
     * Issue only ever schedules `execOffset` (<= 3) cycles ahead, so a
     * small power-of-two ring replaces the per-cycle hash-map node
     * churn of an unordered_map keyed by cycle.
     */
    static constexpr unsigned kExecRingSlots = 8;
    static_assert((kExecRingSlots & (kExecRingSlots - 1)) == 0);
    std::array<std::vector<DynInst *>, kExecRingSlots> execRing;

    /** The execute bucket for cycle `c` (slots recycle every
     *  kExecRingSlots cycles; a slot is always drained before reuse). */
    std::vector<DynInst *> &
    execBucket(Cycle c)
    {
        return execRing[c & (kExecRingSlots - 1)];
    }

    /** Issued-but-not-executed, for optimistic-squash scans; an
     *  unordered set whose members know their index (inFlightIdx). */
    std::vector<DynInst *> inFlight;

    void
    addInFlight(DynInst *inst)
    {
        inst->inFlightIdx = static_cast<std::uint32_t>(inFlight.size());
        inFlight.push_back(inst);
    }

    /** Swap-remove the member at index `i`. */
    void
    removeInFlightAt(std::size_t i)
    {
        DynInst *last = inFlight.back();
        inFlight[i] = last;
        last->inFlightIdx = static_cast<std::uint32_t>(i);
        inFlight.pop_back();
    }

    unsigned rrBase = 0;     ///< round-robin rotation for fetch.
    unsigned commitBase = 0; ///< round-robin rotation for commit.

    /**
     * Opt-in pipeline microscope (obs/pipe_trace.hh); null in normal
     * runs. Stages hoist this into a local once per tick and test it
     * before every hook call, so the off cost is a handful of
     * never-taken branches — pinned by the simspeed gate and the
     * cycle-identity tests in tests/test_pipe.cpp.
     */
    obs::PipeTrace *pipe = nullptr;

    // ---- Shared helpers --------------------------------------------------
    RegisterFileState &
    file(RegFile f)
    {
        return f == RegFile::Int ? intRegs : fpRegs;
    }

    const RegisterFileState &
    file(RegFile f) const
    {
        return f == RegFile::Int ? intRegs : fpRegs;
    }

    /**
     * Return an issued, not yet executed instruction to its queue slot
     * (bank-conflict retry or stale-wakeup squash): it waits for issue
     * again and counts toward ICOUNT/BRCOUNT again.
     */
    void requeue(DynInst *inst);

    /** True when a source value still rests on an unverified load hit. */
    bool isOptimisticNow(const DynInst *inst) const;

    /** Return a committed instruction to the pool, dropping it from
     *  the front of unresolvedBranches (a store left pendingStores when
     *  it executed). */
    void releaseInst(DynInst *inst);

    /**
     * Drop not-yet-renamed instructions younger than `from` from the
     * thread's front end (decode redirect), rewinding the oracle cursor
     * past any consumed correct-path entries.
     */
    void dropFrontEndYounger(ThreadState &ts, const DynInst *from);

    void
    sampleOccupancy()
    {
        stats.combinedQueuePopulation.sample(intQueue.size() +
                                             fpQueue.size());
    }
};

} // namespace smt

#endif // SMT_CORE_PIPELINE_STATE_HH
