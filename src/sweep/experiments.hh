/**
 * @file
 * The named experiments: every paper figure/table grid as a
 * declarative ExperimentSpec, paired with the report function that
 * prints its self-checking table. `smtsweep --experiment <name>` runs
 * and prints each of them.
 */

#ifndef SMT_SWEEP_EXPERIMENTS_HH
#define SMT_SWEEP_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "sweep/runner.hh"
#include "sweep/spec.hh"

namespace smt::sweep
{

/** A spec plus the printer for its paper-style self-check report. */
struct NamedExperiment
{
    ExperimentSpec spec;
    void (*report)(const SweepOutcome &outcome);
};

/** Every registered experiment, in presentation order. */
const std::vector<NamedExperiment> &allExperiments();

/** Find by spec name; null when unknown. */
const NamedExperiment *findExperiment(const std::string &name);

} // namespace smt::sweep

#endif // SMT_SWEEP_EXPERIMENTS_HH
