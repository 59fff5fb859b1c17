#include "core/task.hpp"

#include "util/logging.hpp"

namespace quetzal {
namespace core {

Task::Task(TaskId id, std::string name,
           std::vector<DegradationOption> options)
    : taskId(id), taskName(std::move(name)), opts(std::move(options))
{
    if (opts.empty())
        util::fatal(util::msg("task '", taskName,
                              "' needs at least one option"));
    if (opts.size() > kMaxOptionsPerTask)
        util::fatal(util::msg("task '", taskName, "' exceeds ",
                              kMaxOptionsPerTask, " degradation options"));
    for (const auto &opt : opts) {
        if (opt.exeTicks <= 0)
            util::fatal(util::msg("task '", taskName, "' option '",
                                  opt.name, "' has non-positive latency"));
        if (opt.execPower <= 0.0)
            util::fatal(util::msg("task '", taskName, "' option '",
                                  opt.name, "' has non-positive power"));
    }
}

void
Task::badOptionIndex(std::size_t index) const
{
    util::panic(util::msg("task '", taskName, "' option index ",
                          index, " out of range"));
}

} // namespace core
} // namespace quetzal
