/**
 * @file
 * quetzal-sim's flag checking. Experiment flags map onto rows of the
 * scenario field table (DESIGN.md section 10), so a flag accepts
 * exactly the values a scenario file accepts for the same knob; the
 * flags without a field-table row parse through checkedNumber().
 * Every rejected value exits through util::fatal naming the flag and
 * the value — never a panic, a wrap-around or a silent fallback.
 */

#ifndef QUETZAL_TOOLS_CLI_FLAGS_HPP
#define QUETZAL_TOOLS_CLI_FLAGS_HPP

#include <charconv>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "scenario/json.hpp"
#include "scenario/spec.hpp"
#include "sim/experiment.hpp"
#include "util/logging.hpp"

namespace quetzal {
namespace cli {

/** How a flag's argument becomes a field-table value. */
enum class FlagValue {
    String,  ///< the argument as a JSON string
    Number,  ///< the argument as a JSON number
    Percent, ///< the argument as a JSON number, divided by 100
    False,   ///< no argument; sets a boolean field to false
};

/** One experiment flag and the scenario field it sets. */
struct ConfigFlag
{
    const char *flag;
    const char *field; ///< scenario::fields key
    FlagValue value;
};

inline constexpr ConfigFlag kConfigFlags[] = {
    {"--controller", "controller", FlagValue::String},
    {"--policy", "policy", FlagValue::String},
    {"--env", "environment", FlagValue::String},
    {"--device", "device", FlagValue::String},
    {"--events", "events", FlagValue::Number},
    {"--seed", "seed", FlagValue::Number},
    {"--buffer", "buffer", FlagValue::Number},
    {"--cells", "cells", FlagValue::Number},
    {"--capture-period-ms", "capture_period_ms", FlagValue::Number},
    {"--threshold", "buffer_threshold", FlagValue::Percent},
    {"--arrival-window", "arrival_window", FlagValue::Number},
    {"--task-window", "task_window", FlagValue::Number},
    {"--power-trace", "power_trace_csv", FlagValue::String},
    {"--no-pid", "use_pid", FlagValue::False},
    {"--no-circuit", "use_circuit", FlagValue::False},
};

/**
 * Validate and apply a flag's argument through the scenario field
 * table; a rejected value exits naming the flag, the value and the
 * field's expectation.
 */
inline void
applyConfigFlag(const ConfigFlag &row, const std::string &text,
                sim::ExperimentConfig &cfg)
{
    namespace json = scenario::json;
    json::Value value = json::makeBool(false);
    if (row.value == FlagValue::String) {
        value = json::makeString(text);
    } else if (row.value != FlagValue::False) {
        // Text that is not a JSON number stays a string, which every
        // numeric row rejects with its expectation.
        json::ParseError error;
        const std::optional<json::Value> parsed = json::parse(text, error);
        value = parsed && parsed->isNumber() ? *parsed
                                             : json::makeString(text);
        if (row.value == FlagValue::Percent && value.asDouble())
            value = json::makeNumber(*value.asDouble() / 100.0);
    }
    std::string why;
    if (!scenario::fields::validateField(row.field, value, why))
        util::fatal(util::msg(
            "invalid ", row.flag, " '", text, "': ", row.field,
            row.value == FlagValue::Percent ? " (the value / 100) " : " ",
            why));
    scenario::fields::applyField(row.field, value, cfg);
}

/**
 * Parse the whole of a flag's argument as a T in [lo, hi], or exit
 * naming the flag and the value (empty, "2x", "-3" for an unsigned T,
 * NaN and out-of-range values are all rejected).
 */
template <typename T>
T
checkedNumber(const std::string &flag, const std::string &text, T lo,
              T hi = std::numeric_limits<T>::max())
{
    T parsed{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
    if (text.empty() || ec != std::errc() || ptr != end ||
        !(parsed >= lo && parsed <= hi))
        util::fatal(util::msg(
            "invalid ", flag, " '", text, "': expects ",
            std::is_integral_v<T> ? "an integer" : "a finite number",
            " in [", lo, ", ", hi, "]"));
    return parsed;
}

} // namespace cli
} // namespace quetzal

#endif // QUETZAL_TOOLS_CLI_FLAGS_HPP
