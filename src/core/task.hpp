/**
 * @file
 * The programmer-facing task model (paper sections 3.1 and 5.2).
 *
 * A *task* is an annotated unit of computation that processes a
 * buffered input or manipulates a peripheral (ML inference, JPEG
 * compression, radio transmission, ...). A task may be *degradable*:
 * it carries a quality-ordered list of degradation options, each with
 * its own latency and power cost (e.g. MobileNetV2 vs LeNet for an
 * inference task, full image vs single byte for a radio task).
 * Quetzal profiles each option once — recording its latency and its
 * execution-power ADC code through the measurement circuit — and the
 * IBO engine later chooses among options without re-profiling.
 */

#ifndef QUETZAL_CORE_TASK_HPP
#define QUETZAL_CORE_TASK_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "hw/ratio_engine.hpp"
#include "util/small_vec.hpp"
#include "util/types.hpp"

namespace quetzal {
namespace core {

/** Task identifier (index into the TaskSystem registry). */
using TaskId = std::uint32_t;

/** The paper's library limits (section 5.1). */
inline constexpr std::size_t kMaxTasks = 32;
inline constexpr std::size_t kMaxOptionsPerTask = 4;

/**
 * Option index per position in a job's task list (0 == full
 * quality). One of these is built per scheduling decision, so the
 * inline capacity covers every realistic job without touching the
 * heap (jobs with more tasks spill and stay correct).
 */
using OptionVec = util::SmallVec<std::size_t, 8>;

/** Programmer-supplied description of one degradation option. */
struct DegradationOptionSpec
{
    std::string name;        ///< e.g. "MobileNetV2" or "full-image"
    Tick exeTicks = 0;       ///< t_exe: latency at full power
    Watts execPower = 0.0;   ///< P_exe: draw while executing
};

/** A profiled degradation option. */
struct DegradationOption
{
    std::string name;
    Tick exeTicks = 0;
    Watts execPower = 0.0;
    /** Profile-time record for the division-free S_e2e path. */
    hw::TaskPowerProfile hwProfile;

    /** Total execution energy E_exe = t_exe * P_exe. */
    Joules energy() const
    {
        return execPower * ticksToSeconds(exeTicks);
    }

    /** Latency in seconds. */
    double exeSeconds() const { return ticksToSeconds(exeTicks); }
};

/**
 * A registered task: its quality-ordered options (index 0 is highest
 * quality; the paper requires only that the programmer supplies the
 * ordering, section 5.2).
 */
class Task
{
  public:
    Task(TaskId id, std::string name,
         std::vector<DegradationOption> options);

    TaskId id() const { return taskId; }
    const std::string &name() const { return taskName; }

    /** Number of degradation options (>= 1). */
    std::size_t optionCount() const { return opts.size(); }

    /** True when more than one option exists. */
    bool degradable() const { return opts.size() > 1; }

    /** Option by quality rank (0 == highest quality). */
    const DegradationOption &
    option(std::size_t index) const
    {
        if (index >= opts.size())
            badOptionIndex(index);
        return opts[index];
    }

    /** All options, quality-ordered. */
    const std::vector<DegradationOption> &options() const { return opts; }

  private:
    /** Cold panic path kept out of line so option() inlines. */
    [[noreturn]] void badOptionIndex(std::size_t index) const;

    TaskId taskId;
    std::string taskName;
    std::vector<DegradationOption> opts;
};

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_TASK_HPP
