/**
 * @file
 * Compile a validated ScenarioSpec into an executable plan: one
 * ExperimentConfig per (sweep cell, population) pair, plus the
 * display labels the output writers need.
 *
 * Determinism contract: run order is sweep cells outer (first axis
 * outermost in cross mode), populations inner — the same nesting
 * the figure drivers historically used — and the order is a pure
 * function of the spec, so the engine's output is bit-identical for
 * every --jobs value.
 *
 * Field application order per run: spec defaults, then the cell's
 * axis values, then the population's overrides. Populations cannot
 * override a swept field (the loader rejects the shadowing), so the
 * order is unambiguous.
 */

#ifndef QUETZAL_SCENARIO_COMPILE_HPP
#define QUETZAL_SCENARIO_COMPILE_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "sim/experiment.hpp"

namespace quetzal {
namespace scenario {

/** One sweep cell (a combination of axis values). */
struct CellInfo
{
    /** Section header text: one "field: Label" per axis, in axis
     *  order, joined with ", ". Empty without sweep axes. */
    std::string label;
};

/** One concrete run of the plan. */
struct RunSpec
{
    std::size_t cellIndex = 0;
    std::size_t populationIndex = 0;
    std::string population;  ///< population name
    sim::ExperimentConfig config;
};

/** Everything the engine needs to execute a scenario. */
struct ScenarioPlan
{
    ScenarioSpec spec;
    std::vector<CellInfo> cells;
    std::size_t populationCount = 0;
    /** Cells outer, populations inner:
     *  runs[cell * populationCount + population]. */
    std::vector<RunSpec> runs;
};

/**
 * Expand a loaded spec (parseScenario*, loadScenarioFile) into its
 * run matrix. The loader has checked everything compilation relies
 * on, so compilation cannot fail.
 */
ScenarioPlan compileScenario(const ScenarioSpec &spec);

} // namespace scenario
} // namespace quetzal

#endif // QUETZAL_SCENARIO_COMPILE_HPP
