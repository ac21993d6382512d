#include "core/core.hh"

#include <chrono>
#include <cstdio>

#include "common/logging.hh"
#include "obs/pipe_trace.hh"

namespace smt
{

const char *
StageTimes::stageName(unsigned stage)
{
    switch (stage) {
      case Squash:
        return "squash";
      case Commit:
        return "commit";
      case Execute:
        return "execute";
      case Issue:
        return "issue";
      case Rename:
        return "rename";
      case Decode:
        return "decode";
      case Fetch:
        return "fetch";
      default:
        return "?";
    }
}

SmtCore::SmtCore(const SmtConfig &cfg, MemoryHierarchy &mem,
                 BranchPredictor &bp, std::vector<ThreadProgram *> programs,
                 SimStats &stats)
    : state_(cfg, mem, bp, stats), squash_(state_), commit_(state_),
      execute_(state_), issue_(state_), rename_(state_), decode_(state_),
      fetch_(state_)
{
    smt_assert(programs.size() == cfg.numThreads,
               "need one program per hardware context (%zu vs %u)",
               programs.size(), cfg.numThreads);
    for (unsigned t = 0; t < state_.numThreads; ++t) {
        state_.threads[t].program = programs[t];
        state_.threads[t].fetchPc = programs[t]->entryPc();
    }
}

void
SmtCore::tick()
{
    squash_.tick();
    commit_.tick();
    execute_.tick();
    issue_.tick();
    rename_.tick();
    decode_.tick();
    fetch_.tick();
    endCycle();
}

namespace
{

template <StageTimes::Stage S, typename StageT>
void
timed(StageTimes &out, StageT &stage)
{
    const auto t0 = std::chrono::steady_clock::now();
    stage.tick();
    const auto t1 = std::chrono::steady_clock::now();
    out.ns[S] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

} // namespace

void
SmtCore::tickTimed(StageTimes &out)
{
    timed<StageTimes::Squash>(out, squash_);
    timed<StageTimes::Commit>(out, commit_);
    timed<StageTimes::Execute>(out, execute_);
    timed<StageTimes::Issue>(out, issue_);
    timed<StageTimes::Rename>(out, rename_);
    timed<StageTimes::Decode>(out, decode_);
    timed<StageTimes::Fetch>(out, fetch_);
    endCycle();
}

void
SmtCore::endCycle()
{
    // Pipetrace sample channel: after the walk, with `cycle` still
    // naming the tick the stages just executed.
    if (obs::PipeTrace *pipe = state_.pipe)
        pipe->endCycle(state_);
    state_.sampleOccupancy();
    ++state_.cycle;
    ++state_.stats.cycles;
}

// --------------------------------------------------------------------------
// Invariant checking (tests)
// --------------------------------------------------------------------------

void
SmtCore::validateInvariants() const
{
    // Register conservation: every physical register is exactly one of
    // free, an architectural mapping, or a pending commit-time free held
    // by an in-flight instruction with a destination.
    unsigned in_flight_int = 0;
    unsigned in_flight_fp = 0;
    for (const ThreadState &ts : state_.threads) {
        InstSeqNum prev_seq = 0;
        for (const DynInst *inst : ts.rob) {
            smt_assert(inst->seq > prev_seq, "ROB not in program order");
            prev_seq = inst->seq;
            if (inst->si->dest.valid()) {
                if (inst->si->dest.file == RegFile::Int)
                    ++in_flight_int;
                else
                    ++in_flight_fp;
            }
        }
        // A store leaves pendingStores when it executes, so commit
        // (which only releases executed instructions) never finds one
        // there.
        for (const DynInst *inst : ts.pendingStores)
            smt_assert(inst->stage != InstStage::Executed,
                       "executed store seq %llu still pending",
                       static_cast<unsigned long long>(inst->seq));
        // The decoded entries are a prefix of the front end, and every
        // stage timestamp is in a past cycle: fetch runs after decode
        // and decode after rename in the stage walk, so neither stage
        // ever meets an entry its predecessor handled this cycle.
        prev_seq = 0;
        std::size_t pos = 0;
        for (const DynInst *inst : ts.frontEnd) {
            smt_assert(inst->seq > prev_seq,
                       "front end not in program order");
            prev_seq = inst->seq;
            const bool decoded = pos++ < ts.frontEndDecoded;
            smt_assert(inst->stage == (decoded ? InstStage::Decoded
                                               : InstStage::Fetched),
                       "front-end entry %zu of %zu decoded is in stage %u",
                       pos - 1, ts.frontEndDecoded,
                       static_cast<unsigned>(inst->stage));
            smt_assert(inst->fetchCycle < state_.cycle);
            smt_assert(!decoded || inst->decodeCycle < state_.cycle);
        }
        InstSeqNum prev_branch = 0;
        for (const DynInst *br : ts.unresolvedBranches) {
            smt_assert(br->seq > prev_branch && br->isControl(),
                       "unresolved branches not in program order");
            prev_branch = br->seq;
        }
    }
    for (std::size_t i = 0; i < state_.inFlight.size(); ++i)
        smt_assert(state_.inFlight[i]->inFlightIdx == i,
                   "inFlight member %zu records index %u", i,
                   state_.inFlight[i]->inFlightIdx);
    const unsigned arch = kLogRegsPerFile * state_.numThreads;
    smt_assert(state_.intRegs.freeCount() + arch + in_flight_int ==
                   state_.intRegs.physRegs(),
               "integer register leak: %u free + %u arch + %u in-flight "
               "!= %u",
               state_.intRegs.freeCount(), arch, in_flight_int,
               state_.intRegs.physRegs());
    smt_assert(state_.fpRegs.freeCount() + arch + in_flight_fp ==
                   state_.fpRegs.physRegs(),
               "FP register leak: %u free + %u arch + %u in-flight != %u",
               state_.fpRegs.freeCount(), arch, in_flight_fp,
               state_.fpRegs.physRegs());

    // Queue entries entered in a past cycle (issue runs before rename),
    // and every parked entry waits on a kCycleNever cell that holds its
    // current wakeup handle, so the write that ends its wait finds it.
    for (const InstructionQueue *q : {&state_.intQueue, &state_.fpQueue}) {
        smt_assert(q->size() <= q->capacity());
        q->forEachSlot([&](const IqSlot &s) {
            smt_assert(s.inst->renameCycle < state_.cycle);
        });
        q->validateParked();
        const bool fp = q == &state_.fpQueue;
        for (const ParkedEntry &e : q->parked()) {
            const IqSlot &s = q->physSlot(e.slot);
            const RegisterFileState &rf =
                state_.intRegs.holdsCell(s.parkedCell()) ? state_.intRegs
                                                         : state_.fpRegs;
            smt_assert(rf.holdsCell(s.parkedCell()));
            const auto reg =
                static_cast<PhysRegIndex>(rf.regOfCell(s.parkedCell()));
            bool found = false;
            for (const ParkedRef ref : rf.waiters(reg))
                found = found || (ref.slot == e.slot && ref.fpQueue == fp &&
                                  ref.gen == s.parkGen);
            smt_assert(found, "parked seq %llu has no wakeup handle on "
                              "register %u",
                       static_cast<unsigned long long>(s.seq), reg);
        }
    }
}

void
SmtCore::debugDump() const
{
    std::fprintf(stderr, "=== cycle %llu ===\n",
                 static_cast<unsigned long long>(state_.cycle));
    std::fprintf(stderr, "intQ=%zu fpQ=%zu inFlight=%zu live=%zu\n",
                 state_.intQueue.size(), state_.fpQueue.size(),
                 state_.inFlight.size(), state_.pool.live());
    // `slot` is the entry's queue slot when dumping a queue, which
    // owns the release cycle; null for the ROB and front-end heads.
    auto dump_inst = [&](const char *tag, const DynInst *i,
                         const IqSlot *slot) {
        const char *ready1 =
            !i->si->src1.valid()
                ? "-"
                : (state_.file(i->si->src1.file).readyAt(i->src1Phys) <=
                           state_.cycle
                       ? "rdy"
                       : "wait");
        const char *ready2 =
            !i->si->src2.valid()
                ? "-"
                : (state_.file(i->si->src2.file).readyAt(i->src2Phys) <=
                           state_.cycle
                       ? "rdy"
                       : "wait");
        char rel[24] = "-";
        if (slot && !slot->inQueue())
            std::snprintf(rel, sizeof rel, "%llu",
                          static_cast<unsigned long long>(slot->release));
        else if (slot)
            std::snprintf(rel, sizeof rel, "waiting");
        std::fprintf(stderr,
                     "  %s seq=%llu t%u pc=%llx op=%s stage=%u wp=%d "
                     "src1=%s src2=%s complete=%llu rel=%s\n",
                     tag, static_cast<unsigned long long>(i->seq), i->tid,
                     static_cast<unsigned long long>(i->pc),
                     opClassName(i->si->op),
                     static_cast<unsigned>(i->stage), i->wrongPath,
                     ready1, ready2,
                     static_cast<unsigned long long>(i->completeCycle),
                     rel);
    };
    for (unsigned t = 0; t < state_.numThreads; ++t) {
        const ThreadState &ts = state_.threads[t];
        std::fprintf(stderr,
                     "thread %u: fetchPc=%llx readyAt=%llu frontEnd=%zu "
                     "rob=%zu count=%u wrongPath=%d\n",
                     t, static_cast<unsigned long long>(ts.fetchPc),
                     static_cast<unsigned long long>(
                         state_.fetchReadyAt[t]),
                     ts.frontEnd.size(), ts.rob.size(),
                     state_.frontAndQueueCount[t], ts.onWrongPath);
        if (!ts.rob.empty())
            dump_inst("rob-head", ts.rob.front(), nullptr);
        if (!ts.frontEnd.empty())
            dump_inst("fe-head", ts.frontEnd.front(), nullptr);
    }
    for (std::size_t i = 0; i < state_.intQueue.size(); ++i)
        dump_inst("intQ", state_.intQueue.at(i),
                  &state_.intQueue.slot(i));
    for (std::size_t i = 0; i < state_.fpQueue.size(); ++i)
        dump_inst("fpQ", state_.fpQueue.at(i), &state_.fpQueue.slot(i));
}

} // namespace smt
