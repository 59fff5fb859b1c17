#include "scenario/compile.hpp"

#include <utility>

namespace quetzal {
namespace scenario {

ScenarioPlan
compileScenario(const ScenarioSpec &spec)
{
    ScenarioPlan plan;
    plan.spec = spec;
    plan.populationCount = spec.populations.size();

    // Zip mode sets every axis to the cell's index; cross mode counts
    // the cells like an odometer, first axis outermost.
    const bool zip = spec.mode == SweepMode::Zip;
    std::size_t cellCount = 1;
    for (const SweepAxis &axis : spec.axes)
        cellCount = zip ? axis.values.size()
                        : cellCount * axis.values.size();
    plan.cells.reserve(cellCount);
    plan.runs.reserve(cellCount * plan.populationCount);

    for (std::size_t c = 0; c < cellCount; ++c) {
        CellInfo cell;
        sim::ExperimentConfig config;
        for (const Override &override : spec.defaults)
            fields::applyField(override.field, override.value, config);
        std::size_t stride = cellCount;
        for (const SweepAxis &axis : spec.axes) {
            const std::size_t n = axis.values.size();
            stride /= zip ? 1 : n;
            const json::Value &value =
                axis.values[zip ? c : c / stride % n];
            fields::applyField(axis.field, value, config);
            if (!cell.label.empty())
                cell.label += ", ";
            cell.label +=
                axis.field + ": " + fields::fieldLabel(axis.field, value);
        }
        plan.cells.push_back(std::move(cell));

        for (std::size_t p = 0; p < spec.populations.size(); ++p) {
            const PopulationSpec &population = spec.populations[p];
            RunSpec run{c, p, population.name, config};
            for (const Override &override : population.overrides)
                fields::applyField(override.field, override.value,
                                   run.config);
            plan.runs.push_back(std::move(run));
        }
    }
    return plan;
}

} // namespace scenario
} // namespace quetzal
