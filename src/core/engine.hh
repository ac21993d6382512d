/**
 * @file
 * CoreEngine: the per-cycle stage walk behind SmtCore.
 *
 * SmtCore owns the PipelineState and delegates the stage walk to one
 * CoreEngine, chosen once at construction:
 *
 *  - a *specialized* engine (engine_impl.hh) instantiated over the
 *    concrete fetch/issue policy classes of a registered paper policy
 *    pair — the per-thread priorityKey() calls in fetch and the
 *    per-candidate key() calls in issue resolve statically and inline;
 *  - the *generic* engine — the same template instantiated over the
 *    abstract policy interfaces — for plugin policies the dispatch
 *    table does not know.
 *
 * Both run the same stage code, so they are cycle-identical; the
 * golden-stats test matrix pins that for every registered pair. The
 * dispatch table lives in the PolicyRegistry (registry.hh).
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
class PolicyRegistry;
} // namespace policy

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

/** The virtual-dispatch fallback engine for the policies `cfg` names. */
std::unique_ptr<CoreEngine> makeGenericEngine(PipelineState &st,
                                              const SmtConfig &cfg);

/** Install the specialized engines for the paper's registered policy
 *  pairs into `reg`'s dispatch table (called by the registry itself). */
void registerBuiltinCoreEngines(policy::PolicyRegistry &reg);

} // namespace smt

#endif // SMT_CORE_ENGINE_HH
