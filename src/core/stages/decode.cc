#include "core/stages/decode.hh"

#include <algorithm>
#include <array>

#include "obs/pipe_trace.hh"

namespace smt
{

namespace
{

/** Seq of thread `ts`'s next instruction to decode, kNoHead if none.
 *  Fetch runs after decode in the stage walk, so every fetched entry
 *  was fetched in an earlier cycle and is eligible. */
InstSeqNum
nextToDecode(const ThreadState &ts)
{
    return ts.frontEndDecoded < ts.frontEnd.size()
               ? ts.frontEnd[ts.frontEndDecoded]->seq
               : kNoHead;
}

} // namespace

void
DecodeStage::tick()
{
    obs::PipeTrace *const pipe = st_.pipe;
    unsigned budget = st_.cfg.decodeWidth;

    // Age-ordered shared decode bandwidth: each pick is the globally
    // oldest decodable instruction. Decoding one thread's instruction
    // changes no other thread's next candidate, so only the winner's
    // head is refreshed.
    std::array<InstSeqNum, kMaxThreads> head;
    for (unsigned t = 0; t < st_.numThreads; ++t)
        head[t] = nextToDecode(st_.threads[t]);

    while (budget > 0) {
        const unsigned t = oldestHead(head, st_.numThreads);
        if (t == kMaxThreads)
            break;

        ThreadState &ts = st_.threads[t];
        DynInst *best = ts.frontEnd[ts.frontEndDecoded];
        best->stage = InstStage::Decoded;
        best->decodeCycle = st_.cycle;
        if (pipe != nullptr)
            pipe->onDecode(st_, best);
        ++ts.frontEndDecoded;
        --budget;

        // Misfetch detection: decode can compute direct targets, so a
        // predicted-taken direct transfer whose target the BTB did not
        // (or wrongly) supply redirects fetch here (2-cycle penalty).
        const OpClass op = best->si->op;
        const bool direct_taken =
            (op == OpClass::Jump || op == OpClass::Call ||
             (best->si->isCondBranch() && best->predTaken));
        if (direct_taken) {
            const Addr expected = best->si->target;
            if (best->nextFetchPc != expected) {
                ++st_.stats.misfetches;
                st_.dropFrontEndYounger(ts, best);
                st_.bp.misfetchRepair(best->tid, *best->si, best->pc,
                                      best->historySnapshot,
                                      best->predTaken,
                                      best->rasCheckpoint);
                best->nextFetchPc = expected;
                ts.fetchPc = expected;
                st_.fetchReadyAt[best->tid] = std::max(
                    st_.fetchReadyAt[best->tid],
                    st_.cycle + 1 + (st_.cfg.itagEarlyLookup ? 1 : 0));
                if (!best->wrongPath) {
                    ts.nextStreamIdx = best->streamIdx + 1;
                    ts.onWrongPath = false;
                }
            }
            st_.bp.updateTarget(best->tid, best->pc, expected, false);
        }
        head[t] = nextToDecode(ts);
    }
}

} // namespace smt
