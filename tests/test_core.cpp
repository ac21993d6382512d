/**
 * @file
 * Unit tests for the core building blocks (rename map, instruction
 * queue, instruction pool) and targeted pipeline behaviours exercised
 * through small single-thread machines.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "core/inst_pool.hh"
#include "core/instruction_queue.hh"
#include "core/rename_map.hh"
#include "sim/simulator.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

// ---- RegisterFileState -----------------------------------------------------

TEST(RenameMap, InitialMappingIdentityAndFreeCount)
{
    RegisterFileState rf(2, 100);
    EXPECT_EQ(rf.physRegs(), 100u);
    EXPECT_EQ(rf.freeCount(), 100u - 64u);
    EXPECT_EQ(rf.lookup(0, 0), 0);
    EXPECT_EQ(rf.lookup(1, 0), 32);
    // Architectural registers start ready.
    EXPECT_EQ(rf.readyAt(rf.lookup(0, 5)), 0u);
}

TEST(RenameMap, RenameAllocatesAndRemaps)
{
    RegisterFileState rf(1, 40);
    const auto [fresh, prev] = rf.rename(0, 3);
    EXPECT_EQ(prev, 3);
    EXPECT_GE(fresh, 32);
    EXPECT_EQ(rf.lookup(0, 3), fresh);
    EXPECT_EQ(rf.readyAt(fresh), kCycleNever); // not ready until issue.
    EXPECT_EQ(rf.freeCount(), 7u);
}

TEST(RenameMap, CommitFreesPreviousMapping)
{
    RegisterFileState rf(1, 40);
    const auto [fresh, prev] = rf.rename(0, 3);
    (void)fresh;
    rf.freeAtCommit(prev);
    EXPECT_EQ(rf.freeCount(), 8u); // net zero vs initial.
}

TEST(RenameMap, RollbackRestoresMapping)
{
    RegisterFileState rf(1, 40);
    const auto [fresh, prev] = rf.rename(0, 3);
    rf.rollback(0, 3, fresh, prev);
    EXPECT_EQ(rf.lookup(0, 3), prev);
    EXPECT_EQ(rf.freeCount(), 8u);
}

TEST(RenameMap, NestedRenameRollbackYoungestFirst)
{
    RegisterFileState rf(1, 40);
    const auto [f1, p1] = rf.rename(0, 3);
    const auto [f2, p2] = rf.rename(0, 3);
    EXPECT_EQ(p2, f1);
    rf.rollback(0, 3, f2, p2);
    rf.rollback(0, 3, f1, p1);
    EXPECT_EQ(rf.lookup(0, 3), 3);
    EXPECT_EQ(rf.freeCount(), 8u);
}

TEST(RenameMap, ExhaustionReportsNoFree)
{
    RegisterFileState rf(1, 34); // 2 renaming registers.
    EXPECT_TRUE(rf.hasFree());
    (void)rf.rename(0, 1);
    (void)rf.rename(0, 2);
    EXPECT_FALSE(rf.hasFree());
}

// ---- InstructionQueue -------------------------------------------------------

DynInst *
mkInst(InstPool &pool, StaticInst *si, InstSeqNum seq, ThreadID tid)
{
    DynInst *inst = pool.alloc();
    inst->si = si;
    inst->seq = seq;
    inst->tid = tid;
    inst->stage = InstStage::InQueue;
    return inst;
}

/** Queue `inst` with both source operands ready. */
void
enqueueReady(InstructionQueue &q, DynInst *inst)
{
    q.insert(inst, &kAlwaysReady, &kAlwaysReady);
}

TEST(InstructionQueue, CapacityAndSearchWindow)
{
    InstPool pool;
    static StaticInst alu; // default IntAlu.
    InstructionQueue q(8, 4);
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_FALSE(q.full());
        enqueueReady(q, mkInst(pool, &alu, i + 1, 0));
    }
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.searchLimit(), 4u); // only the first 4 searchable (BIGQ).
}

TEST(InstructionQueue, BigqWindowCountsPostCompactionPositions)
{
    // BIGQ: 64 entries, 32 searchable. Four issued entries at the head
    // release this cycle, so the window slides four entries deeper; an
    // issued-but-held entry still occupies a window position but is
    // not a candidate.
    InstPool pool;
    static StaticInst alu;
    InstructionQueue q(64, 32);
    for (unsigned i = 1; i <= 40; ++i)
        enqueueReady(q, mkInst(pool, &alu, i, 0));
    for (std::size_t i = 0; i < 4; ++i)
        q.slot(i).release = 5;
    q.slot(4).release = 9;

    std::vector<InstSeqNum> gathered;
    q.releaseAndGather(5,
                       [&](const IqSlot &s) { gathered.push_back(s.seq); });
    EXPECT_EQ(q.size(), 36u);
    ASSERT_EQ(gathered.size(), 31u);
    EXPECT_EQ(gathered.front(), 6u);
    EXPECT_EQ(gathered.back(), 36u);
    EXPECT_EQ(q.at(0)->seq, 5u); // held, still at the head.
}

TEST(InstructionQueue, RemoveKeepsAgeOrder)
{
    InstPool pool;
    static StaticInst alu;
    InstructionQueue q(8, 8);
    DynInst *a = mkInst(pool, &alu, 1, 0);
    DynInst *b = mkInst(pool, &alu, 2, 0);
    DynInst *c = mkInst(pool, &alu, 3, 0);
    enqueueReady(q, a);
    enqueueReady(q, b);
    enqueueReady(q, c);
    q.remove(b);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.at(0), a);
    EXPECT_EQ(q.at(1), c);
}

TEST(InstructionQueue, RemoveIfBulk)
{
    InstPool pool;
    static StaticInst alu;
    InstructionQueue q(8, 8);
    for (unsigned i = 1; i <= 6; ++i)
        enqueueReady(q, mkInst(pool, &alu, i, i % 2));
    q.removeIf([](DynInst *i) { return i->tid == 0; });
    EXPECT_EQ(q.size(), 3u);
    for (std::size_t i = 0; i < q.size(); ++i)
        EXPECT_EQ(q.at(i)->tid, 1);
}

TEST(InstructionQueue, OldestPositionsPerThread)
{
    InstPool pool;
    static StaticInst alu;
    InstructionQueue q(8, 8);
    enqueueReady(q, mkInst(pool, &alu, 1, 1));
    enqueueReady(q, mkInst(pool, &alu, 2, 0));
    enqueueReady(q, mkInst(pool, &alu, 3, 1));
    std::size_t pos[kMaxThreads];
    q.oldestPositions(pos);
    EXPECT_EQ(pos[1], 0u);
    EXPECT_EQ(pos[0], 1u);
    EXPECT_EQ(pos[2], q.size()); // no instructions: sentinel.
}

// ---- InstPool ----------------------------------------------------------------

TEST(InstPool, RecyclesInstances)
{
    InstPool pool;
    DynInst *a = pool.alloc();
    a->seq = 42;
    pool.release(a);
    DynInst *b = pool.alloc();
    EXPECT_EQ(b, a); // recycled.
    EXPECT_EQ(b->seq, 0u); // reset.
    EXPECT_EQ(pool.live(), 1u);
}

// ---- Whole-pipeline behaviours ----------------------------------------------

Simulator
makeSim(unsigned threads, Benchmark bench = Benchmark::Espresso,
        SmtConfig *out_cfg = nullptr)
{
    SmtConfig cfg = presets::baseSmt(threads);
    if (out_cfg != nullptr)
        *out_cfg = cfg;
    std::vector<Benchmark> mix(threads, bench);
    return Simulator(cfg, mix);
}

TEST(Pipeline, SingleThreadMakesForwardProgress)
{
    Simulator sim = makeSim(1);
    sim.run(20000);
    EXPECT_GT(sim.stats().committedInstructions, 5000u);
    EXPECT_GT(sim.stats().ipc(), 0.3);
    EXPECT_LE(sim.stats().ipc(), 8.0); // bounded by fetch width.
    sim.core().validateInvariants();
}

TEST(Pipeline, AllBenchmarksRunSingleThreaded)
{
    for (Benchmark b : allBenchmarks()) {
        SmtConfig cfg = presets::baseSmt(1);
        Simulator sim(cfg, {b});
        sim.run(8000);
        EXPECT_GT(sim.stats().committedInstructions, 1000u)
            << benchmarkName(b);
        sim.core().validateInvariants();
    }
}

TEST(Pipeline, DeterministicAcrossIdenticalRuns)
{
    Simulator a = makeSim(2);
    Simulator b = makeSim(2);
    a.run(15000);
    b.run(15000);
    EXPECT_EQ(a.stats().committedInstructions,
              b.stats().committedInstructions);
    EXPECT_EQ(a.stats().fetchedInstructions, b.stats().fetchedInstructions);
    EXPECT_EQ(a.stats().issuedInstructions, b.stats().issuedInstructions);
    EXPECT_EQ(a.stats().condBranchMispredicts,
              b.stats().condBranchMispredicts);
    EXPECT_EQ(a.stats().dcache.misses, b.stats().dcache.misses);
}

TEST(Pipeline, InvariantsHoldThroughoutExecution)
{
    Simulator sim = makeSim(4, Benchmark::Xlisp);
    for (int chunk = 0; chunk < 40; ++chunk) {
        sim.run(250);
        sim.core().validateInvariants();
    }
    EXPECT_GT(sim.stats().committedInstructions, 1000u);
}

TEST(Pipeline, WrongPathInstructionsAreFetchedAndSquashed)
{
    Simulator sim = makeSim(1, Benchmark::Xlisp); // branchy workload.
    sim.run(20000);
    const SimStats &s = sim.stats();
    EXPECT_GT(s.fetchedWrongPath, 0u);
    EXPECT_GT(s.condBranchMispredicts, 0u);
    // Wrong-path fetches must be a minority but visible (paper: ~16-24%
    // single-thread).
    EXPECT_LT(s.wrongPathFetchedFraction(), 0.5);
}

TEST(Pipeline, PerfectPredictionEliminatesWrongPath)
{
    SmtConfig cfg = presets::baseSmt(1);
    cfg.perfectBranchPrediction = true;
    Simulator sim(cfg, {Benchmark::Xlisp});
    sim.run(20000);
    EXPECT_EQ(sim.stats().fetchedWrongPath, 0u);
    EXPECT_EQ(sim.stats().condBranchMispredicts, 0u);
    EXPECT_EQ(sim.stats().misfetches, 0u);
}

TEST(Pipeline, PerfectPredictionBeatsRealPrediction)
{
    SmtConfig real = presets::baseSmt(1);
    Simulator sim_real(real, {Benchmark::Xlisp});
    sim_real.run(20000);

    SmtConfig perfect = presets::baseSmt(1);
    perfect.perfectBranchPrediction = true;
    Simulator sim_perfect(perfect, {Benchmark::Xlisp});
    sim_perfect.run(20000);

    // Perfect prediction removes all wrong-path work; throughput should
    // be at least on par (wrong-path fetches occasionally prefetch
    // usefully, so allow a whisker of inversion).
    EXPECT_GT(sim_perfect.stats().ipc(), sim_real.stats().ipc() * 0.93);
    EXPECT_EQ(sim_perfect.stats().fetchedWrongPath, 0u);
}

TEST(Pipeline, LongerSmtPipelineCostsALittleSingleThread)
{
    SmtConfig smt_pipe = presets::baseSmt(1);
    Simulator a(smt_pipe, {Benchmark::Doduc});
    a.run(30000);

    SmtConfig short_pipe = presets::unmodifiedSuperscalar();
    Simulator b(short_pipe, {Benchmark::Doduc});
    b.run(30000);

    // The superscalar (shorter pipeline) must be at least as fast, but
    // only slightly (paper: < 2%; allow a loose band).
    EXPECT_GE(b.stats().ipc() * 1.005, a.stats().ipc());
    EXPECT_LT(b.stats().ipc(), a.stats().ipc() * 1.2);
}

TEST(Pipeline, MoreThreadsRaiseThroughput)
{
    SmtConfig cfg1 = presets::baseSmt(1);
    Simulator one(cfg1, mixForRun(1, 0));
    one.run(20000);

    SmtConfig cfg4 = presets::baseSmt(4);
    Simulator four(cfg4, mixForRun(4, 0));
    four.run(20000);

    EXPECT_GT(four.stats().ipc(), one.stats().ipc() * 1.3);
}

TEST(Pipeline, OptimisticIssueSquashesOccur)
{
    Simulator sim = makeSim(2, Benchmark::Tomcatv); // memory bound.
    sim.run(20000);
    EXPECT_GT(sim.stats().optimisticSquashes, 0u);
}

TEST(Pipeline, StoresAndLoadsReachTheDataCache)
{
    Simulator sim = makeSim(1);
    sim.run(10000);
    EXPECT_GT(sim.stats().dcache.accesses, 1000u);
    EXPECT_GT(sim.stats().dcache.misses, 0u);
}

TEST(Pipeline, CommitNeverExceedsFetch)
{
    Simulator sim = makeSim(4);
    sim.run(15000);
    EXPECT_LE(sim.stats().committedInstructions,
              sim.stats().fetchedInstructions);
    EXPECT_LE(sim.stats().committedInstructions,
              sim.stats().issuedInstructions);
}

TEST(Pipeline, RegisterPressureStallsWithTinyFile)
{
    SmtConfig cfg = presets::baseSmt(4);
    cfg.excessRegisters = 8; // starve renaming.
    Simulator sim(cfg, mixForRun(4, 0));
    sim.run(15000);
    EXPECT_GT(sim.stats().outOfRegistersCycles, 0u);
    sim.core().validateInvariants();
}

TEST(Pipeline, TinyRegisterFileHurtsThroughput)
{
    SmtConfig big = presets::baseSmt(4);
    Simulator a(big, mixForRun(4, 0));
    a.run(20000);

    SmtConfig small = presets::baseSmt(4);
    small.excessRegisters = 10;
    Simulator b(small, mixForRun(4, 0));
    b.run(20000);

    EXPECT_GT(a.stats().ipc(), b.stats().ipc());
}

TEST(Pipeline, InstructionBudgetStopsRun)
{
    Simulator sim = makeSim(1);
    sim.run(/*max_cycles=*/0, /*max_instructions=*/2000);
    EXPECT_GE(sim.stats().committedInstructions, 2000u);
    EXPECT_LT(sim.stats().committedInstructions, 2100u);
}

TEST(Pipeline, WarmupDiscardsStatistics)
{
    Simulator sim = makeSim(1);
    sim.warmup(5000);
    EXPECT_EQ(sim.stats().cycles, 0u);
    EXPECT_EQ(sim.stats().committedInstructions, 0u);
    sim.run(1000);
    EXPECT_EQ(sim.stats().cycles, 1000u);
}

} // namespace
} // namespace smt
