#include "core/pipeline_state.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/pipe_trace.hh"

namespace smt
{

PipelineState::PipelineState(const SmtConfig &config,
                             MemoryHierarchy &memory,
                             BranchPredictor &branch_pred,
                             SimStats &sim_stats)
    : cfg(config), mem(memory), bp(branch_pred), stats(sim_stats),
      numThreads(config.numThreads),
      execOffset(config.longRegisterPipeline ? 3 : 2),
      commitDelta(config.longRegisterPipeline ? 2 : 1),
      frontEndCap(config.decodeWidth + config.renameWidth),
      intRegs(config.numThreads, config.physRegsPerFile()),
      fpRegs(config.numThreads, config.physRegsPerFile()),
      intQueue(config.intQueueEntries, config.iqSearchWindow),
      fpQueue(config.fpQueueEntries, config.iqSearchWindow)
{
    smt_assert(numThreads <= kMaxThreads,
               "numThreads (%u) exceeds kMaxThreads (%u)", numThreads,
               kMaxThreads);
    threads.resize(numThreads);
}

void
PipelineState::requeue(DynInst *inst)
{
    inst->stage = InstStage::InQueue;
    (inst->inIntQueue ? intQueue : fpQueue).requeue(inst);
    ++frontAndQueueCount[inst->tid];
    if (inst->isControl())
        ++branchCount[inst->tid];
}

bool
PipelineState::isOptimisticNow(const DynInst *inst) const
{
    if (inst->si->src1.valid() &&
        file(inst->si->src1.file).unverifiedUntil(inst->src1Phys) > cycle)
        return true;
    if (inst->si->src2.valid() &&
        file(inst->si->src2.file).unverifiedUntil(inst->src2Phys) > cycle)
        return true;
    return false;
}

void
PipelineState::releaseInst(DynInst *inst)
{
    if (inst->isControl()) {
        // Commit is in order, so the committed branch is the oldest.
        Ring<DynInst *> &branches = threads[inst->tid].unresolvedBranches;
        smt_assert(!branches.empty() && branches.front() == inst,
                   "committed branch seq %llu is not the oldest unresolved",
                   static_cast<unsigned long long>(inst->seq));
        branches.pop_front();
    }
    pool.release(inst);
}

void
PipelineState::dropFrontEndYounger(ThreadState &ts, const DynInst *from)
{
    std::uint64_t min_dropped_stream = kNoStreamIdx;
    while (!ts.frontEnd.empty() && ts.frontEnd.back() != from) {
        DynInst *inst = ts.frontEnd.back();
        smt_assert(inst->seq > from->seq);
        ts.frontEnd.pop_back();
        if (inst->stage == InstStage::Decoded)
            --ts.frontEndDecoded;
        --frontAndQueueCount[inst->tid];
        if (inst->isControl())
            --branchCount[inst->tid];
        if (inst->streamIdx != kNoStreamIdx)
            min_dropped_stream = std::min(min_dropped_stream,
                                          inst->streamIdx);
        if (pipe != nullptr)
            pipe->onSquash(*this, inst, "misfetch");
        pool.release(inst);
    }
    // Rewind the oracle cursor for any consumed correct-path entries.
    if (min_dropped_stream != kNoStreamIdx) {
        ts.nextStreamIdx = min_dropped_stream;
        ts.onWrongPath = false;
    }
}

} // namespace smt
