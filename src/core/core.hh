/**
 * @file
 * SmtCore: the simultaneous multithreading pipeline of Section 2.
 *
 * The core is a thin composition root: it owns the shared
 * PipelineState and a CoreEngine (core/engine.hh) that runs the
 * back-to-front stage walk so each stage consumes state the previous
 * cycle produced:
 *   squash-apply -> commit -> execute -> issue -> rename/dispatch ->
 *   decode -> fetch
 *
 * The engine is chosen once at construction by makeCoreEngine(). For
 * the (fetch, issue) policy pairs the paper sweeps it builds a
 * *specialized* engine whose fetch/issue stages are instantiated over
 * the concrete policy classes — the per-thread priorityKey() and
 * per-candidate issue key() calls on the hot path resolve statically.
 * Every other pair takes the *generic* engine, the same stage code
 * dispatching through the policy vtables. Both engines are
 * cycle-identical by construction; the golden-stats matrix test pins
 * it.
 *
 * Pipeline shape (Figure 2b): fetch, decode, rename, queue, regread x2,
 * exec, regwrite, commit. An instruction issued at cycle t reaches the
 * execute stage at t + execOffset (3 on the SMT pipeline, 2 on the
 * conventional superscalar pipeline of Figure 2a). Mispredict, misfetch,
 * and misqueue penalties all emerge from the stage distances rather than
 * being hard-coded constants.
 *
 * Wrong paths are fetched, renamed, issued and executed for real, using
 * the actual code image; they are squashed one cycle after the
 * mispredicted branch executes (Section 3).
 */

#ifndef SMT_CORE_CORE_HH
#define SMT_CORE_CORE_HH

#include <memory>
#include <vector>

#include "core/engine.hh"
#include "core/pipeline_state.hh"
#include "policy/fetch_policy.hh"
#include "policy/issue_policy.hh"

namespace smt
{

/** The SMT processor core. */
class SmtCore
{
  public:
    /**
     * @param programs one oracle per hardware context; size() defines
     *        the live thread count (<= cfg.numThreads).
     */
    SmtCore(const SmtConfig &cfg, MemoryHierarchy &mem,
            BranchPredictor &bp, std::vector<ThreadProgram *> programs,
            SimStats &stats, CoreDispatch dispatch = CoreDispatch::Auto);

    // The engine's stage objects hold references into state_: moving or
    // copying a core would leave them aimed at the source object.
    SmtCore(const SmtCore &) = delete;
    SmtCore &operator=(const SmtCore &) = delete;

    /** Advance the machine one cycle. */
    void
    tick()
    {
        engine_->tick();
        endCycle();
    }

    /** tick() with per-stage wall-clock accumulation (benchmarks). */
    void
    tickTimed(StageTimes &out)
    {
        engine_->tickTimed(out);
        endCycle();
    }

    Cycle cycle() const { return state_.cycle; }

    /** Committed useful instructions so far (all threads). */
    std::uint64_t
    committed() const
    {
        return state_.stats.committedInstructions;
    }

    /** Live in-flight instruction count (liveness checks in tests). */
    std::size_t liveInstructions() const { return state_.pool.live(); }

    /** Pool high-water mark (steady-state allocation audits). */
    std::size_t poolAllocated() const { return state_.pool.allocated(); }

    /** The resolved policy objects (introspection for tests/tools). */
    const policy::FetchPolicy &
    fetchPolicy() const
    {
        return engine_->fetchPolicy();
    }
    const policy::IssuePolicy &
    issuePolicy() const
    {
        return engine_->issuePolicy();
    }

    /** "specialized" or "generic" (introspection for tests/tools). */
    const char *engineKind() const { return engine_->kind(); }

    /** Attach (or with nullptr detach) a pipeline microscope; the
     *  stages consult the pointer, the engine drives its sample
     *  channel. See obs/pipe_trace.hh. */
    void setPipeTrace(obs::PipeTrace *pipe) { state_.pipe = pipe; }

    /**
     * Check structural invariants (register conservation, program-order
     * ROBs, queue capacities). Panics on violation; for tests.
     */
    void validateInvariants() const;

    /** Print a human-readable snapshot of pipeline state to stderr. */
    void debugDump() const;

  private:
    void
    endCycle()
    {
        state_.sampleOccupancy();
        ++state_.cycle;
        ++state_.stats.cycles;
    }

    PipelineState state_;
    std::unique_ptr<CoreEngine> engine_;
};

} // namespace smt

#endif // SMT_CORE_CORE_HH
