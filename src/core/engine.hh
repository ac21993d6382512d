/**
 * @file
 * CoreEngine: the per-cycle stage walk behind SmtCore.
 *
 * SmtCore owns the PipelineState and delegates the stage walk to one
 * CoreEngine, chosen once at construction:
 *
 *  - a *specialized* engine (engine_impl.hh) instantiated over the
 *    concrete fetch/issue policy classes of one of the paper's swept
 *    policy pairs — the per-thread priorityKey() calls in fetch and the
 *    per-candidate key() calls in issue resolve statically and inline;
 *  - the *generic* engine — the same template instantiated over the
 *    abstract policy interfaces — for every other pair.
 *
 * Both run the same stage code, so they are cycle-identical; the
 * golden-stats test matrix pins that for every specialized pair.
 * makeCoreEngine() (engine.cc) is the one place that picks.
 */

#ifndef SMT_CORE_ENGINE_HH
#define SMT_CORE_ENGINE_HH

#include <array>
#include <cstdint>
#include <memory>

namespace smt
{

struct PipelineState;
struct SmtConfig;

namespace policy
{
class FetchPolicy;
class IssuePolicy;
} // namespace policy

/** How SmtCore picks its engine. */
enum class CoreDispatch
{
    /** Specialized engine when the policy pair has one, else generic. */
    Auto,
    /** Always the virtual-dispatch engine (tests, A/B timing). */
    ForceGeneric,
};

/** Wall-clock nanoseconds accumulated per pipeline stage
 *  (tickTimed() instrumentation for the simspeed benchmarks). */
struct StageTimes
{
    enum Stage : unsigned
    {
        Squash,
        Commit,
        Execute,
        Issue,
        Rename,
        Decode,
        Fetch,
        kNumStages,
    };

    std::array<std::uint64_t, kNumStages> ns{};

    static const char *stageName(unsigned stage);

    std::uint64_t
    totalNs() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : ns)
            sum += v;
        return sum;
    }
};

/** The stage walk of one core, over a PipelineState it does not own. */
class CoreEngine
{
  public:
    virtual ~CoreEngine() = default;

    /** Run the seven stages for one cycle (hot path). */
    virtual void tick() = 0;

    /** tick() with per-stage wall-clock accumulation (benchmarks). */
    virtual void tickTimed(StageTimes &out) = 0;

    /** The resolved policy objects (introspection for tests/tools). */
    virtual const policy::FetchPolicy &fetchPolicy() const = 0;
    virtual const policy::IssuePolicy &issuePolicy() const = 0;

    /** "specialized" (devirtualized policies) or "generic". */
    virtual const char *kind() const = 0;
};

/** The engine for the policies `cfg` selects: the specialized one
 *  for a paper pair under CoreDispatch::Auto, otherwise generic. */
std::unique_ptr<CoreEngine> makeCoreEngine(PipelineState &st,
                                           const SmtConfig &cfg,
                                           CoreDispatch dispatch);

} // namespace smt

#endif // SMT_CORE_ENGINE_HH
