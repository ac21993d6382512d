#include "core/stages/issue.hh"

#include <algorithm>
#include <array>
#include <cstdint>

#include "isa/latency.hh"
#include "obs/pipe_trace.hh"
#include "policy/policy.hh"

namespace smt
{

namespace
{

/** "No budget ran out" as an exhaustion key: above every issue key. */
constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

} // namespace

IssueStage::IssueStage(PipelineState &st) : st_(st)
{
    // Candidates come from one queue's search window at a time.
    cands_.resize(st.cfg.iqSearchWindow);
    const bool fixed_key = st.cfg.issuePolicy == IssuePolicy::OldestFirst ||
                           st.cfg.issuePolicy == IssuePolicy::BranchFirst;
    const bool full_speculation =
        st.cfg.speculation == SpeculationMode::Full;
    parks_[0] = fixed_key && full_speculation &&
                st.intQueue.windowCoversQueue();
    parks_[1] = fixed_key && full_speculation &&
                st.fpQueue.windowCoversQueue();
}

bool
IssueStage::speculationAllows(const IqSlot &slot) const
{
    const ThreadState &ts = st_.threads[slot.tid];
    for (const DynInst *br : ts.unresolvedBranches) {
        if (br->seq >= slot.seq)
            continue;
        if (st_.cfg.speculation == SpeculationMode::NoPassBranch) {
            if (br->stage != InstStage::Executed)
                return false;
        } else { // NoWrongPathIssue
            if (br->stage == InstStage::InQueue ||
                br->stage == InstStage::Fetched ||
                br->stage == InstStage::Decoded)
                return false;
            if (st_.cycle < br->issueCycle + 4)
                return false;
        }
    }
    return true;
}

bool
IssueStage::disambiguated(IqSlot &slot) const
{
    // A load may issue once no older store of its thread with the same
    // low address bits is still pending. Younger stores never block it
    // and older ones only leave, so a load found clear stays clear; a
    // blocked load records the store it waits on and rechecks only that
    // store until it leaves (executes, or its DynInst is recycled —
    // hence the seq check).
    const DynInst *blocker = slot.blockStore;
    if (blocker != nullptr && blocker->seq == slot.blockSeq &&
        blocker->stage != InstStage::Executed)
        return false;

    const Addr mask = (Addr{1} << st_.cfg.disambiguationBits) - 1;
    const Addr addr = slot.inst->memAddr & mask;
    for (const DynInst *st : st_.threads[slot.tid].pendingStores) {
        if (st->seq < slot.seq && st->stage != InstStage::Executed &&
            (st->memAddr & mask) == addr) {
            slot.blockStore = st;
            slot.blockSeq = st->seq;
            return false;
        }
    }
    slot.flags &= ~IqSlot::kAwaitsDisambiguation;
    return true;
}

bool
IssueStage::park(InstructionQueue &queue, IqSlot &slot, std::uint64_t key,
                 const Cycle *cell, bool on_src2)
{
    RegisterFileState &rf =
        st_.intRegs.holdsCell(cell) ? st_.intRegs : st_.fpRegs;
    const auto p = static_cast<PhysRegIndex>(rf.regOfCell(cell));
    if (!rf.hasWaiterRoom(p))
        return false;
    const std::uint16_t gen = queue.park(slot, key, on_src2);
    rf.addWaiter(p, {gen, queue.slotIndex(slot),
                     &queue == &st_.fpQueue});
    return true;
}

void
IssueStage::wakeParked()
{
    auto wake = [this](ParkedRef ref) {
        (ref.fpQueue ? st_.fpQueue : st_.intQueue).unpark(ref.slot, ref.gen);
    };
    st_.intRegs.drainWoken(wake);
    st_.fpRegs.drainWoken(wake);
}

template <IssuePolicy P>
std::size_t
IssueStage::gatherKeyed(InstructionQueue &queue)
{
    // One walk: release the entries whose hold time expired and gather
    // this cycle's issuable candidates from the search window, keyed
    // by the policy, then sort by key. A candidate that cannot issue
    // this cycle because it waits on an unissued producer parks
    // instead, when the queue parks.
    //
    // Readiness is otherwise NOT checked here: a zero-latency producer
    // (Compare, Table 1) issuing earlier in this same tick makes its
    // dependents ready within the cycle, so the readiness test must
    // stay in the issue loop, after the policy ordering.
    IssueCandidate *const out = cands_.data();
    std::size_t n = 0;
    const Cycle now = st_.cycle;
    const bool full_speculation =
        st_.cfg.speculation == SpeculationMode::Full;
    // parks_ already excludes OPT_LAST and SPEC_LAST; the constant
    // also drops the parking code from their instantiations.
    constexpr bool kFixedKey = P == IssuePolicy::OldestFirst ||
                               P == IssuePolicy::BranchFirst;
    const bool parks = kFixedKey && parks_[&queue == &st_.fpQueue];
    queue.releaseAndGather(now, [&](IqSlot &slot) {
        if (!full_speculation && !speculationAllows(slot))
            return;
        if ((slot.flags & IqSlot::kAwaitsDisambiguation) &&
            !disambiguated(slot))
            return;
        const std::uint64_t key = policy::issueKey(P, st_, slot);
        if (parks) {
            // Only a zero-latency producer writes a cell equal to the
            // current cycle; every other issue writes a later one. So a
            // source whose cell is kCycleNever and whose producer is
            // not zero-latency keeps the entry from issuing this cycle,
            // wherever the walk reaches it. (Both cells are always
            // readable, so the tests combine without branches.)
            const bool on1 = ((slot.flags & IqSlot::kParks1) != 0) &
                             (*slot.wake1 == kCycleNever);
            const bool on2 = ((slot.flags & IqSlot::kParks2) != 0) &
                             (*slot.wake2 == kCycleNever);
            if ((on1 | on2) &&
                park(queue, slot, key, on1 ? slot.wake1 : slot.wake2,
                     !on1))
                return;
        }
        out[n++] = {key, &slot};
    });
    sortIssueCandidates(out, n);
    return n;
}

std::size_t
IssueStage::gatherCandidates(InstructionQueue &queue)
{
    // Switch once per queue walk, not once per candidate: with the
    // policy a constant, issueKey() folds to its one counter read
    // inside the walk.
    switch (st_.cfg.issuePolicy) {
      case IssuePolicy::OldestFirst:
        return gatherKeyed<IssuePolicy::OldestFirst>(queue);
      case IssuePolicy::OptLast:
        return gatherKeyed<IssuePolicy::OptLast>(queue);
      case IssuePolicy::SpecLast:
        return gatherKeyed<IssuePolicy::SpecLast>(queue);
      case IssuePolicy::BranchFirst:
        return gatherKeyed<IssuePolicy::BranchFirst>(queue);
    }
    smt_panic("issue policy enum value %u out of range",
              static_cast<unsigned>(st_.cfg.issuePolicy));
}

void
IssueStage::issueInst(IqSlot &slot)
{
    DynInst *inst = slot.inst;
    const StaticInst &si = *inst->si;
    // The last cycle a source value rests on an unverified load hit:
    // past now, this issue is optimistic, and a computed result
    // inherits it (OPT_LAST and the useless-issue statistics).
    Cycle unv = 0;
    if (si.src1.valid())
        unv = st_.file(si.src1.file).unverifiedUntil(inst->src1Phys);
    if (si.src2.valid())
        unv = std::max(unv,
                       st_.file(si.src2.file).unverifiedUntil(inst->src2Phys));
    inst->stage = InstStage::Issued;
    inst->issueCycle = st_.cycle;
    inst->optimistic = unv > st_.cycle;

    ++st_.stats.issuedInstructions;
    if (inst->wrongPath)
        ++st_.stats.issuedWrongPath;

    Cycle release = st_.cycle + 1;
    if (inst->si->dest.valid()) {
        RegisterFileState &rf = st_.file(inst->si->dest.file);
        if (inst->isLoad()) {
            // Optimistic 1-cycle load-use wakeup; verified at execute.
            rf.setReadyAt(inst->destPhys, st_.cycle + 1);
            rf.setUnverifiedUntil(inst->destPhys,
                                  st_.cycle + st_.execOffset);
        } else {
            rf.setReadyAt(inst->destPhys, st_.cycle + opLatency(si.op));
            rf.setUnverifiedUntil(inst->destPhys, unv);
        }
    }
    if (inst->si->isMemory())
        release = st_.cycle + st_.execOffset; // held until the access
                                              // actually happens
                                              // (bank-conflict retry).
    else if (inst->optimistic)
        release = st_.cycle + st_.execOffset; // held until sources
                                              // verify.
    slot.release = release;

    st_.execBucket(st_.cycle + st_.execOffset).push_back(inst);
    st_.addInFlight(inst);

    --st_.frontAndQueueCount[inst->tid];
    if (inst->isControl())
        --st_.branchCount[inst->tid];

    // Cold branch (max issueWidth times per cycle, never in the scan
    // loops) — the stack-local tallies above stay aliasing-free.
    if (st_.pipe != nullptr)
        st_.pipe->onIssue(st_, inst);
}

void
IssueStage::tallyParked(const InstructionQueue &queue,
                        std::uint64_t unit_out, std::uint64_t ls_out,
                        std::uint32_t *wait, std::uint32_t *busy) const
{
    if (unit_out == kNoKey && ls_out == kNoKey) {
        for (unsigned t = 0; t < st_.numThreads; ++t)
            wait[t] += queue.parkedCount(static_cast<ThreadID>(t));
        return;
    }
    for (const ParkedEntry &e : queue.parked()) {
        if (e.key > unit_out || (e.memory && e.key > ls_out))
            ++busy[e.tid];
        else
            ++wait[e.tid];
    }
}

void
IssueStage::tick()
{
    // Cells written outside this stage since its last tick (in a
    // running machine only issue turns a kCycleNever cell into a
    // cycle, so this finds nothing; tests write cells directly).
    wakeParked();

    const unsigned big = 1u << 20;
    unsigned int_units =
        st_.cfg.infiniteFunctionalUnits ? big : st_.cfg.intUnits;
    unsigned ls_units =
        st_.cfg.infiniteFunctionalUnits ? big : st_.cfg.loadStoreUnits;
    unsigned fp_units =
        st_.cfg.infiniteFunctionalUnits ? big : st_.cfg.fpUnits;

    // Per-cause skip tallies for this cycle live on the stack: the scan
    // below runs up to 2x the search window per cycle, and a store into
    // st_.stats there may alias the pipeline state, forcing the
    // compiler to reload everything each iteration (measured ~18%
    // single-thread simspeed). Local arrays never escape, so the loop
    // stays tight; one flush per tick moves them into SimStats.
    std::array<std::uint32_t, kMaxThreads> wait_skips{};
    std::array<std::uint32_t, kMaxThreads> busy_skips{};

    // The key whose issue spent each unit budget (kNoKey while units
    // remain): the parked entries' share of the ledger splits there.
    std::uint64_t int_out = int_units == 0 ? 0 : kNoKey;
    std::uint64_t ls_out = ls_units == 0 ? 0 : kNoKey;
    std::uint64_t fp_out = fp_units == 0 ? 0 : kNoKey;

    const Cycle now = st_.cycle;
    const IssueCandidate *const cand = cands_.data();
    std::size_t n = gatherCandidates(st_.intQueue);
    bool had_candidates = n > 0 || st_.intQueue.parkedCount() > 0;
    std::size_t c = 0;
    for (; c < n; ++c) {
        IqSlot &slot = *cand[c].slot;
        if (int_units == 0)
            break;
        if (slot.isMemory() && ls_units == 0) {
            ++busy_skips[slot.tid];
            continue;
        }
        if (!slot.ready(now)) {
            ++wait_skips[slot.tid];
            continue;
        }
        if (--int_units == 0)
            int_out = cand[c].key;
        if (slot.isMemory() && --ls_units == 0)
            ls_out = cand[c].key;
        issueInst(slot);
    }
    for (; c < n; ++c)
        ++busy_skips[cand[c].slot->tid]; // lost to the unit budget.
    tallyParked(st_.intQueue, int_out, ls_out, wait_skips.data(),
                busy_skips.data());

    n = gatherCandidates(st_.fpQueue);
    had_candidates =
        had_candidates || n > 0 || st_.fpQueue.parkedCount() > 0;
    for (c = 0; c < n; ++c) {
        IqSlot &slot = *cand[c].slot;
        if (fp_units == 0)
            break;
        if (!slot.ready(now)) {
            ++wait_skips[slot.tid];
            continue;
        }
        if (--fp_units == 0)
            fp_out = cand[c].key;
        issueInst(slot);
    }
    for (; c < n; ++c)
        ++busy_skips[cand[c].slot->tid];
    tallyParked(st_.fpQueue, fp_out, kNoKey, wait_skips.data(),
                busy_skips.data());

    StallStats &sl = st_.stats.stalls;
    for (unsigned t = 0; t < st_.numThreads; ++t) {
        sl.issueOperandWait[t] += wait_skips[t];
        sl.issueFuBusy[t] += busy_skips[t];
    }
    if (!had_candidates)
        ++sl.issueNoCandidatesCycles;

    // This cycle's issues wrote their results' cells: their parked
    // consumers rejoin the walk next cycle.
    wakeParked();
}

} // namespace smt
