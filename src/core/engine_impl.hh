/**
 * @file
 * CoreEngineT: the one stage-walk implementation behind both engine
 * kinds (see engine.hh).
 *
 * The template parameters are the *static types* the fetch and issue
 * stages see their policy through:
 *
 *  - CoreEngineT<ICountPolicy, OldestFirstPolicy> — the stages hold a
 *    reference to the final concrete class, so priorityKey()/key()
 *    calls devirtualize and inline (the specialized engines);
 *  - CoreEngineT<FetchPolicy, IssuePolicy> — the abstract interfaces,
 *    i.e. the classic virtual-dispatch core (the generic engine).
 *
 * The policy objects are held by unique_ptr only so both cases share
 * one constructor shape; the stages capture `*ptr` as Policy&, which
 * is what decides the dispatch. Explicit instantiations live in
 * engine.cc — this header is only included there and by tests that
 * need the concrete types.
 */

#ifndef SMT_CORE_ENGINE_IMPL_HH
#define SMT_CORE_ENGINE_IMPL_HH

#include <chrono>
#include <type_traits>
#include <utility>

#include "core/engine.hh"
#include "core/pipeline_state.hh"
#include "core/stages/commit.hh"
#include "core/stages/decode.hh"
#include "core/stages/execute.hh"
#include "core/stages/fetch.hh"
#include "core/stages/issue.hh"
#include "core/stages/rename_dispatch.hh"
#include "core/stages/squash.hh"
#include "obs/pipe_trace.hh"
#include "policy/fetch_policy.hh"
#include "policy/issue_policy.hh"

namespace smt
{

template <typename FetchPolicyT, typename IssuePolicyT>
class CoreEngineT final : public CoreEngine
{
  public:
    CoreEngineT(PipelineState &st, std::unique_ptr<FetchPolicyT> fp,
                std::unique_ptr<IssuePolicyT> ip)
        : fetchPolicy_(std::move(fp)), issuePolicy_(std::move(ip)),
          st_(st), squash_(st), commit_(st), execute_(st),
          issue_(st, *issuePolicy_), rename_(st), decode_(st),
          fetch_(st, *fetchPolicy_)
    {
    }

    void
    tick() override
    {
        squash_.tick();
        commit_.tick();
        execute_.tick();
        issue_.tick();
        rename_.tick();
        decode_.tick();
        fetch_.tick();
        // Pipetrace sample channel: after the walk, with `cycle`
        // still naming the tick the stages just executed.
        if (obs::PipeTrace *pipe = st_.pipe)
            pipe->endCycle(st_);
    }

    void
    tickTimed(StageTimes &out) override
    {
        timed<StageTimes::Squash>(out, squash_);
        timed<StageTimes::Commit>(out, commit_);
        timed<StageTimes::Execute>(out, execute_);
        timed<StageTimes::Issue>(out, issue_);
        timed<StageTimes::Rename>(out, rename_);
        timed<StageTimes::Decode>(out, decode_);
        timed<StageTimes::Fetch>(out, fetch_);
        if (obs::PipeTrace *pipe = st_.pipe)
            pipe->endCycle(st_);
    }

    const policy::FetchPolicy &
    fetchPolicy() const override
    {
        return *fetchPolicy_;
    }

    const policy::IssuePolicy &
    issuePolicy() const override
    {
        return *issuePolicy_;
    }

    const char *
    kind() const override
    {
        return kSpecialized ? "specialized" : "generic";
    }

  private:
    static constexpr bool kSpecialized =
        !std::is_same_v<FetchPolicyT, policy::FetchPolicy> ||
        !std::is_same_v<IssuePolicyT, policy::IssuePolicy>;

    template <StageTimes::Stage S, typename StageT>
    static void
    timed(StageTimes &out, StageT &stage)
    {
        const auto t0 = std::chrono::steady_clock::now();
        stage.tick();
        const auto t1 = std::chrono::steady_clock::now();
        out.ns[S] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
    }

    std::unique_ptr<FetchPolicyT> fetchPolicy_;
    std::unique_ptr<IssuePolicyT> issuePolicy_;

    PipelineState &st_;

    // Stage objects, declared in tick() order; each holds a reference
    // to the shared PipelineState.
    SquashStage squash_;
    CommitStage commit_;
    ExecuteStage execute_;
    IssueStage<IssuePolicyT> issue_;
    RenameDispatchStage rename_;
    DecodeStage decode_;
    FetchStage<FetchPolicyT> fetch_;
};

} // namespace smt

#endif // SMT_CORE_ENGINE_IMPL_HH
