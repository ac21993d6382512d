#include "core/stages/issue.hh"

#include <algorithm>
#include <array>
#include <cstdint>

#include "isa/latency.hh"
#include "obs/pipe_trace.hh"
#include "policy/policy.hh"

namespace smt
{

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

template <IssuePolicy P>
std::size_t
IssueStage::gatherKeyed(InstructionQueue &queue)
{
    // One walk: release the entries whose hold time expired and gather
    // this cycle's issuable candidates from the search window, keyed
    // by the policy, then sort by key.
    //
    // Readiness is deliberately NOT checked here: a zero-latency
    // producer (Compare, Table 1) issuing earlier in this same tick
    // makes its dependents ready within the cycle, so the readiness
    // test must stay in the issue loop, after the policy ordering.
    IssueCandidate *const out = cands_.data();
    std::size_t n = 0;
    const Cycle now = st_.cycle;
    const bool full_speculation =
        st_.cfg.speculation == SpeculationMode::Full;
    queue.releaseAndGather(now, [&](IqSlot &slot) {
        if (slot.renameCycle >= now)
            return; // entered the queue this cycle.
        if (!full_speculation && !speculationAllows(slot))
            return;
        if ((slot.flags & IqSlot::kAwaitsDisambiguation) &&
            !disambiguated(slot))
            return;
        out[n++] = {policy::issueKey(P, st_, slot), &slot};
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
    st_.inFlight.push_back(inst);

    --st_.frontAndQueueCount[inst->tid];
    if (inst->isControl())
        --st_.branchCount[inst->tid];

    // Cold branch (max issueWidth times per cycle, never in the scan
    // loops) — the stack-local tallies above stay aliasing-free.
    if (st_.pipe != nullptr)
        st_.pipe->onIssue(st_, inst);
}

void
IssueStage::tick()
{
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

    const Cycle now = st_.cycle;
    const IssueCandidate *const cand = cands_.data();
    std::size_t n = gatherCandidates(st_.intQueue);
    bool had_candidates = n > 0;
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
        --int_units;
        if (slot.isMemory())
            --ls_units;
        issueInst(slot);
    }
    for (; c < n; ++c)
        ++busy_skips[cand[c].slot->tid]; // lost to the unit budget.

    n = gatherCandidates(st_.fpQueue);
    had_candidates = had_candidates || n > 0;
    for (c = 0; c < n; ++c) {
        IqSlot &slot = *cand[c].slot;
        if (fp_units == 0)
            break;
        if (!slot.ready(now)) {
            ++wait_skips[slot.tid];
            continue;
        }
        --fp_units;
        issueInst(slot);
    }
    for (; c < n; ++c)
        ++busy_skips[cand[c].slot->tid];

    StallStats &sl = st_.stats.stalls;
    for (unsigned t = 0; t < st_.numThreads; ++t) {
        sl.issueOperandWait[t] += wait_skips[t];
        sl.issueFuBusy[t] += busy_skips[t];
    }
    if (!had_candidates)
        ++sl.issueNoCandidatesCycles;
}

} // namespace smt
