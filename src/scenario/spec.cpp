#include "scenario/spec.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "policy/registry.hpp"
#include "trace/event_generator.hpp"

namespace quetzal {
namespace scenario {

namespace {

/** The row of `rows` whose key is `key`, or nullptr. */
template <typename Row, std::size_t N>
const Row *
findRow(const Row (&rows)[N], std::string_view key)
{
    for (const Row &row : rows) {
        if (key == row.key)
            return &row;
    }
    return nullptr;
}

/** The keys of `rows`, in table order. */
template <typename Row, std::size_t N>
std::vector<std::string_view>
keysOf(const Row (&rows)[N])
{
    std::vector<std::string_view> keys;
    for (const Row &row : rows)
        keys.push_back(row.key);
    return keys;
}

/**
 * "unknown <what> (allowed: a, b, c)": the one builder of an
 * unknown-key (or unknown-name) diagnostic. `what` is "key" when the
 * diagnostic's path already ends in the key, else it names and
 * quotes the key.
 */
std::string
unknownKey(const std::string &what,
           const std::vector<std::string_view> &allowed)
{
    std::string out = "unknown " + what + " (allowed: ";
    for (std::size_t i = 0; i < allowed.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += allowed[i];
    }
    return out + ")";
}

/** "must be an integer in [1, 64]": the one builder of a range
 *  diagnostic. The bounds print as the stream prints a T. */
template <typename T>
std::string
mustBeIn(const char *kind, T lo, T hi, char open = '[')
{
    std::ostringstream out;
    out << "must be " << kind << " in " << open << lo << ", " << hi
        << ']';
    return out.str();
}

} // namespace

namespace fields {
namespace {

/** The JSON name of an enum value. */
template <typename E>
struct Named
{
    const char *key;
    E value;
};

const Named<app::DeviceKind> kDevices[] = {
    {"apollo4", app::DeviceKind::Apollo4},
    {"msp430", app::DeviceKind::Msp430},
};

const Named<trace::EnvironmentPreset> kEnvironments[] = {
    {"more-crowded", trace::EnvironmentPreset::MoreCrowded},
    {"crowded", trace::EnvironmentPreset::Crowded},
    {"less-crowded", trace::EnvironmentPreset::LessCrowded},
    {"msp430", trace::EnvironmentPreset::Msp430Short},
};

const Named<app::CheckpointPolicy> kCheckpoints[] = {
    {"jit", app::CheckpointPolicy::JustInTime},
    {"periodic", app::CheckpointPolicy::Periodic},
};

/** The row whose name is `v`'s string, or nullptr. */
template <typename E, std::size_t N>
const Named<E> *
named(const Named<E> (&rows)[N], const json::Value &v)
{
    const auto name = v.asString();
    return name ? findRow(rows, *name) : nullptr;
}

/** The "pid" override: an object of gain overrides, one row per key. */
struct PidGain
{
    const char *key;
    double core::PidConfig::*gain;
};

const PidGain kPidGains[] = {
    {"kp", &core::PidConfig::kp},
    {"ki", &core::PidConfig::ki},
    {"kd", &core::PidConfig::kd},
};

bool
checkPid(const json::Value &v, std::string &why)
{
    if (!v.isObject()) {
        why = "must be an object of PID gains, e.g. "
              "{\"kp\": 5e-6, \"ki\": 1e-6, \"kd\": 1.0}";
        return false;
    }
    for (const auto &[key, gain] : v.members) {
        if (findRow(kPidGains, key) == nullptr) {
            why = unknownKey("PID gain \"" + key + "\"",
                             keysOf(kPidGains));
            return false;
        }
        if (!gain.asDouble()) {
            why = "PID gain \"" + key + "\" must be a number";
            return false;
        }
    }
    return true;
}

void
applyPid(const json::Value &v, sim::ExperimentConfig &cfg)
{
    for (const PidGain &row : kPidGains) {
        if (const json::Value *gain = v.find(row.key))
            cfg.pid.*row.gain = *gain->asDouble();
    }
}

/**
 * One numeric key of the "faults" override (the scenario surface of
 * fault::FaultSpec): a top-level key, or a key of one sub-block.
 * Top-level keys come first, then the sub-blocks in label order.
 */
struct FaultKey
{
    const char *section; ///< sub-block; "" = a top-level key
    const char *key;
    double lo;
    double hi;
    bool integer; ///< value must also be a whole unsigned number
    /** What the value must be, when not "an integer/a number in
     *  [lo, hi]". */
    const char *expects;
    void (*set)(fault::FaultSpec &f, const json::Value &v);
};

const FaultKey kFaultKeys[] = {
    {"", "seed", 0.0,
     static_cast<double>(std::numeric_limits<std::uint64_t>::max()), true,
     "an unsigned 64-bit integer",
     [](fault::FaultSpec &f, const json::Value &v) {
         f.seed = *v.asUint64();
     }},
    {"", "detect_error_s", 1e-9, 1e6, false, "a positive number",
     [](fault::FaultSpec &f, const json::Value &v) {
         f.detectErrorSeconds = *v.asDouble();
     }},
    {"", "mitigate_streak", 1, 1000, true, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.mitigateStreak = static_cast<std::uint32_t>(*v.asUint64());
     }},
    {"measurement", "bias_watts", -10.0, 10.0, false, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.measurement.biasWatts = *v.asDouble();
     }},
    {"measurement", "noise_sigma", 0.0, 10.0, false, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.measurement.noiseSigma = *v.asDouble();
     }},
    {"adc", "stuck_high_mask", 0, 255, true, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.adc.stuckHighMask = static_cast<std::uint8_t>(*v.asUint64());
     }},
    {"adc", "stuck_low_mask", 0, 255, true, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.adc.stuckLowMask = static_cast<std::uint8_t>(*v.asUint64());
     }},
    {"adc", "flip_mask", 0, 255, true, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.adc.flipMask = static_cast<std::uint8_t>(*v.asUint64());
     }},
    {"adc", "saturate_max", 0, 255, true, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.adc.saturateMax = static_cast<std::uint8_t>(*v.asUint64());
     }},
    {"power_trace", "dropouts_per_hour", 0.0, 3600.0, false, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.powerTrace.dropoutsPerHour = *v.asDouble();
     }},
    {"power_trace", "dropout_seconds", 0.0, 3600.0, false, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.powerTrace.dropoutSeconds = *v.asDouble();
     }},
    {"power_trace", "spikes_per_hour", 0.0, 3600.0, false, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.powerTrace.spikesPerHour = *v.asDouble();
     }},
    {"power_trace", "spike_seconds", 0.0, 3600.0, false, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.powerTrace.spikeSeconds = *v.asDouble();
     }},
    {"power_trace", "spike_factor", 0.0, 100.0, false, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.powerTrace.spikeFactor = *v.asDouble();
     }},
    {"arrivals", "bursts_per_hour", 0.0, 3600.0, false, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.arrivals.burstsPerHour = *v.asDouble();
     }},
    {"arrivals", "burst_seconds", 0.0, 3600.0, false, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.arrivals.burstSeconds = *v.asDouble();
     }},
    {"arrivals", "capture_jitter_ms", 0, 1'000'000, true, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.arrivals.captureJitterMs = static_cast<Tick>(*v.asUint64());
     }},
    {"execution", "overrun_probability", 0.0, 1.0, false, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.execution.overrunProbability = *v.asDouble();
     }},
    {"execution", "overrun_factor", 1.0, 1000.0, false, nullptr,
     [](fault::FaultSpec &f, const json::Value &v) {
         f.execution.overrunFactor = *v.asDouble();
     }},
};

/** The sub-block names, in table order. */
std::vector<std::string_view>
faultSections()
{
    std::vector<std::string_view> sections;
    for (const FaultKey &row : kFaultKeys) {
        if (*row.section != '\0' &&
            (sections.empty() || sections.back() != row.section))
            sections.push_back(row.section);
    }
    return sections;
}

/** The keys allowed in `section` ("" = the faults object itself,
 *  whose keys include the sub-block names). */
std::vector<std::string_view>
faultKeys(std::string_view section)
{
    std::vector<std::string_view> keys;
    for (const FaultKey &row : kFaultKeys) {
        if (section == row.section)
            keys.push_back(row.key);
    }
    if (section.empty()) {
        for (std::string_view name : faultSections())
            keys.push_back(name);
    }
    return keys;
}

const FaultKey *
findFaultKey(std::string_view section, std::string_view key)
{
    for (const FaultKey &row : kFaultKeys) {
        if (section == row.section && key == row.key)
            return &row;
    }
    return nullptr;
}

bool
checkFaultValue(const FaultKey &row, const json::Value &v,
                std::string &why)
{
    const auto value = v.asDouble();
    if ((!row.integer || v.asUint64()) && value && *value >= row.lo &&
        *value <= row.hi)
        return true;
    why = std::string("faults.") + row.section +
        (*row.section != '\0' ? "." : "") + row.key + " " +
        (row.expects != nullptr
             ? std::string("must be ") + row.expects
             : mustBeIn(row.integer ? "an integer" : "a number", row.lo,
                        row.hi));
    return false;
}

bool
checkFaults(const json::Value &v, std::string &why)
{
    if (!v.isObject()) {
        why = "must be an object of fault sub-blocks, e.g. "
              "{\"measurement\": {\"bias_watts\": 0.002}}";
        return false;
    }
    const std::vector<std::string_view> sections = faultSections();
    for (const auto &[key, value] : v.members) {
        if (const FaultKey *row = findFaultKey("", key)) {
            if (!checkFaultValue(*row, value, why))
                return false;
            continue;
        }
        if (std::find(sections.begin(), sections.end(), key) ==
            sections.end()) {
            why = unknownKey("faults key \"" + key + "\"", faultKeys(""));
            return false;
        }
        if (!value.isObject()) {
            why = "faults." + key + " must be an object";
            return false;
        }
        for (const auto &[subKey, subValue] : value.members) {
            const FaultKey *row = findFaultKey(key, subKey);
            if (row == nullptr) {
                why = "faults." + key + ": " +
                    unknownKey("key \"" + subKey + "\"", faultKeys(key));
                return false;
            }
            if (!checkFaultValue(*row, subValue, why))
                return false;
        }
    }
    return true;
}

void
applyFaults(const json::Value &v, sim::ExperimentConfig &cfg)
{
    for (const FaultKey &row : kFaultKeys) {
        const json::Value *block =
            *row.section == '\0' ? &v : v.find(row.section);
        if (block == nullptr)
            continue;
        if (const json::Value *value = block->find(row.key))
            row.set(cfg.faults, *value);
    }
}

/** Axis-cell label: the active sub-blocks ("faults:adc+arrivals"). */
std::string
labelFaults(const json::Value &v)
{
    std::string active;
    for (std::string_view section : faultSections()) {
        const json::Value *block = v.find(std::string(section));
        if (block == nullptr || !block->isObject() ||
            block->members.empty())
            continue;
        if (!active.empty())
            active += '+';
        active += section;
    }
    return active.empty() ? std::string("no-faults")
                          : "faults:" + active;
}

/**
 * One experiment field. A row without `check` takes an unsigned
 * integer in [lo, hi] (any number in [lo, hi] when `number`); a row
 * with one takes what `check` accepts, which must be `expects`
 * unless `check` explains itself.
 */
struct FieldInfo
{
    const char *key;
    void (*apply)(const json::Value &v, sim::ExperimentConfig &cfg);
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool number = false;
    bool (*check)(const json::Value &v, std::string &why) = nullptr;
    const char *expects = "";
    /** Cell display label; nullptr = the value's raw text. */
    std::string (*label)(const json::Value &v) = nullptr;
};

using Config = sim::ExperimentConfig;

std::size_t
whole(const json::Value &v)
{
    return static_cast<std::size_t>(*v.asUint64());
}

const FieldInfo kFields[] = {
    {.key = "device",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.device = named(kDevices, v)->value;
     },
     .check = [](const json::Value &v, std::string &) {
         return named(kDevices, v) != nullptr;
     },
     .expects = "one of \"apollo4\", \"msp430\"",
     .label = [](const json::Value &v) {
         return app::deviceKindName(named(kDevices, v)->value);
     }},
    {.key = "environment",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.environment = named(kEnvironments, v)->value;
     },
     .check = [](const json::Value &v, std::string &) {
         return named(kEnvironments, v) != nullptr;
     },
     .expects = "one of \"more-crowded\", \"crowded\", \"less-crowded\", "
                "\"msp430\"",
     .label = [](const json::Value &v) {
         return trace::environmentName(named(kEnvironments, v)->value);
     }},
    {.key = "controller",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.controller = *policy::controllerKindFromLabel(*v.asString());
     },
     .check = [](const json::Value &v, std::string &) {
         const auto name = v.asString();
         return name && policy::controllerKindFromLabel(*name).has_value();
     },
     .expects = "one of \"QZ\", \"QZ-FCFS\", \"QZ-LCFS\", \"QZ-AvgSe2e\", "
                "\"NA\", \"AD\", \"CN\", \"THR\", \"PZO\", \"PZI\", "
                "\"Ideal\""},
    {.key = "policy",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.policyName = *v.asString();
     },
     .check = [](const json::Value &v, std::string &) {
         const auto name = v.asString();
         return name && policy::isRegisteredPolicy(*name);
     },
     .expects = "a registered policy name (\"sjf-ibo\", \"zygarde\", "
                "\"delgado-famaey\", \"greedy-fcfs\")"},
    {.key = "events",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.eventCount = whole(v);
     },
     .lo = 1,
     .hi = 10'000'000},
    {.key = "seed",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.seed = *v.asUint64();
     },
     .check = [](const json::Value &v, std::string &) {
         return v.asUint64().has_value();
     },
     .expects = "an unsigned 64-bit integer"},
    {.key = "cells",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.harvesterCells = static_cast<int>(whole(v));
     },
     .lo = 1,
     .hi = 64},
    {.key = "buffer",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.sim.bufferCapacity = whole(v);
     },
     .lo = 1,
     .hi = 1'000'000},
    {.key = "capture_period_ms",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.sim.capturePeriod = static_cast<Tick>(whole(v));
     },
     .lo = 1,
     .hi = 10'000'000},
    {.key = "task_window",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.system.taskWindow = static_cast<std::uint32_t>(whole(v));
     },
     .lo = 1,
     .hi = 4096},
    {.key = "arrival_window",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.system.arrivalWindow = static_cast<std::uint32_t>(whole(v));
     },
     .lo = 1,
     .hi = 65536},
    {.key = "buffer_threshold",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.bufferThreshold = *v.asDouble();
     },
     .hi = 1,
     .number = true},
    {.key = "power_threshold_fraction",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.powerThresholdFraction = *v.asDouble();
     },
     .hi = 1,
     .number = true},
    {.key = "use_pid",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.usePid = v.boolean;
     },
     .check = [](const json::Value &v, std::string &) { return v.isBool(); },
     .expects = "a boolean"},
    {.key = "use_circuit",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.useCircuit = v.boolean;
     },
     .check = [](const json::Value &v, std::string &) { return v.isBool(); },
     .expects = "a boolean"},
    {.key = "drain_s",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.sim.drainTicks = static_cast<Tick>(
             *v.asDouble() * static_cast<double>(kTicksPerSecond));
     },
     .hi = 10'000'000,
     .number = true},
    {.key = "jitter_sigma",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.sim.executionJitterSigma = *v.asDouble();
     },
     .hi = 10,
     .number = true},
    {.key = "checkpoint",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.checkpointPolicy = named(kCheckpoints, v)->value;
     },
     .check = [](const json::Value &v, std::string &) {
         return named(kCheckpoints, v) != nullptr;
     },
     .expects = "one of \"jit\", \"periodic\""},
    {.key = "checkpoint_interval_ms",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.checkpointIntervalTicks = static_cast<Tick>(whole(v));
     },
     .lo = 1,
     .hi = 10'000'000},
    {.key = "power_trace_csv",
     .apply = [](const json::Value &v, Config &cfg) {
         cfg.powerTraceCsv = *v.asString();
     },
     .check = [](const json::Value &v, std::string &) {
         const auto path = v.asString();
         return path && !path->empty();
     },
     .expects = "a non-empty file path string"},
    {.key = "pid",
     .apply = applyPid,
     .check = checkPid,
     .label = [](const json::Value &) { return std::string("pid"); }},
    {.key = "faults",
     .apply = applyFaults,
     .check = checkFaults,
     .label = labelFaults},
};

} // namespace

bool
knownField(const std::string &key)
{
    return findRow(kFields, key) != nullptr;
}

bool
validateField(const std::string &key, const json::Value &value,
              std::string &why)
{
    const FieldInfo *info = findRow(kFields, key);
    if (info == nullptr) {
        why = "unknown experiment field (known fields: " +
            describeFields() + ")";
        return false;
    }
    if (info->check == nullptr) {
        const auto n = value.asUint64();
        const auto x = value.asDouble();
        if (info->number ? x && *x >= info->lo && *x <= info->hi
                         : n && *n >= info->lo && *n <= info->hi)
            return true;
        why = mustBeIn(info->number ? "a number" : "an integer", info->lo,
                       info->hi);
        return false;
    }
    std::string detail;
    if (info->check(value, detail))
        return true;
    why = detail.empty() ? std::string("must be ") + info->expects
                         : detail;
    return false;
}

void
applyField(const std::string &key, const json::Value &value,
           sim::ExperimentConfig &config)
{
    const FieldInfo *info = findRow(kFields, key);
    if (info != nullptr)
        info->apply(value, config);
}

std::string
fieldLabel(const std::string &key, const json::Value &value)
{
    const FieldInfo *info = findRow(kFields, key);
    if (info != nullptr && info->label != nullptr)
        return info->label(value);
    if (value.isBool())
        return value.boolean ? "true" : "false";
    return value.text;
}

std::string
describeFields()
{
    std::string out;
    for (const FieldInfo &info : kFields) {
        if (!out.empty())
            out += ", ";
        out += info.key;
    }
    return out;
}

} // namespace fields

namespace {

using Errors = std::vector<SpecError>;

/** The path of member `key` of the object at `parent` ("" = the
 *  document root, whose members have bare paths). */
std::string
memberPath(const std::string &parent, const std::string &key)
{
    return parent.empty() ? key : parent + "." + key;
}

/**
 * One JSON value being read, at its path. The typed getters store a
 * value of the wanted type and report anything else at the path; a
 * number out of range is reported but still stored, so the
 * cross-reference checks see what the file said.
 */
struct Member
{
    const json::Value &value;
    std::string path;
    Errors &errors;

    /** Report at the path, or at "path.key" for a key this object
     *  lacks or holds a bad value under. */
    void fail(std::string message, const std::string &key = "") const
    {
        errors.push_back(
            {key.empty() ? path : memberPath(path, key), std::move(message)});
    }

    void typeMismatch(const char *wanted) const
    {
        fail(std::string("expected ") + wanted + ", got " +
             json::Value::kindName(value.kind));
    }

    bool text(std::string &out) const
    {
        const auto s = value.asString();
        if (s)
            out = *s;
        else
            typeMismatch("string");
        return s.has_value();
    }

    bool count(std::uint64_t &out, std::uint64_t lo = 0,
               std::uint64_t hi =
                   std::numeric_limits<std::uint64_t>::max()) const
    {
        const auto n = value.asUint64();
        if (!n) {
            fail("must be an unsigned integer");
            return false;
        }
        out = *n;
        if (*n < lo || *n > hi)
            fail(mustBeIn("an integer", lo, hi));
        return true;
    }

    /** Read each item of an array, at "path[i]". */
    template <typename Read>
    void items(Read &&read) const
    {
        if (!value.isArray())
            return typeMismatch("array");
        for (std::size_t i = 0; i < value.items.size(); ++i)
            read(Member{value.items[i],
                        path + "[" + std::to_string(i) + "]", errors});
    }
};

using Read = std::function<void(const Member &)>;

/** One allowed key of an object and how to read its value: into a
 *  string, a bool or a ranged number, or by a function. */
struct Key
{
    const char *key;
    Read read;

    Key(const char *key, Read read) : key(key), read(std::move(read)) {}
    Key(const char *key, std::string *out)
        : Key(key, [out](const Member &m) { m.text(*out); })
    {
    }
    Key(const char *key, bool *out)
        : Key(key, [out](const Member &m) {
              if (m.value.isBool())
                  *out = m.value.boolean;
              else
                  m.typeMismatch("bool");
          })
    {
    }
    Key(const char *key, std::uint64_t *out, std::uint64_t lo = 0,
        std::uint64_t hi = std::numeric_limits<std::uint64_t>::max())
        : Key(key, [=](const Member &m) { m.count(*out, lo, hi); })
    {
    }
    /** A number in [lo, hi], or in (lo, hi] when `openLow`. */
    Key(const char *key, double *out, double lo, double hi,
        bool openLow = false)
        : Key(key, [=](const Member &m) {
              const auto x = m.value.asDouble();
              if (!x)
                  return m.fail("must be a number");
              *out = *x;
              if (!(openLow ? *x > lo : *x >= lo) || *x > hi)
                  m.fail(mustBeIn("a number", lo, hi, openLow ? '(' : '['));
          })
    {
    }
};

using OtherKey = std::function<void(const std::string &, const Member &)>;

/**
 * Read an object: each member, in source order, goes to the reader of
 * its key at "path.key"; a key not in `keys` goes to `other`, or is
 * reported as unknown when there is none. A value that is not an
 * object is reported and read as nothing. Returns whether it was an
 * object.
 */
bool
readObject(const Member &object, std::initializer_list<Key> keys,
           const OtherKey &other = nullptr)
{
    if (!object.value.isObject()) {
        object.typeMismatch("object");
        return false;
    }
    std::vector<std::string_view> allowed;
    for (const Key &k : keys)
        allowed.push_back(k.key);
    for (const auto &[key, value] : object.value.members) {
        const Member member{value, memberPath(object.path, key),
                            object.errors};
        const auto match = std::find(allowed.begin(), allowed.end(), key);
        if (match != allowed.end())
            keys.begin()[match - allowed.begin()].read(member);
        else if (other)
            other(key, member);
        else
            member.fail(unknownKey("key", allowed));
    }
    return true;
}

/** An object of experiment-field overrides (besides `keys`). */
bool
readOverrides(const Member &object, std::vector<Override> &out,
              std::initializer_list<Key> keys = {})
{
    return readObject(object, keys,
                      [&](const std::string &field, const Member &m) {
                          std::string why;
                          if (!fields::validateField(field, m.value, why))
                              m.fail(why);
                          out.push_back({field, m.value, m.path});
                      });
}

void
readPopulation(const Member &entry, std::vector<PopulationSpec> &out)
{
    PopulationSpec population;
    population.path = entry.path;
    if (!readOverrides(entry, population.overrides,
                       {{"name", &population.name}}))
        return;
    // A mistyped name is already reported as a type mismatch.
    const json::Value *name = entry.value.find("name");
    if (name == nullptr)
        entry.fail("population needs a \"name\"", "name");
    else if (name->isString() && population.name.empty())
        entry.fail("population name must be a non-empty string", "name");
    out.push_back(std::move(population));
}

/** "range": {"from": N, "count": M} expands to N, N+1, ..., N+M-1. */
void
readRange(const Member &range, std::vector<json::Value> &values)
{
    const json::Value &v = range.value;
    const json::Value *from = v.find("from");
    const json::Value *count = v.find("count");
    const auto first = from ? from->asUint64() : std::nullopt;
    const std::uint64_t n = count ? count->asUint64().value_or(0) : 0;
    if (!first || n == 0 || n > 1'000'000 || v.members.size() != 2)
        return range.fail("must be {\"from\": N, \"count\": M} with "
                          "1 <= M <= 1000000");
    for (std::uint64_t k = 0; k < n; ++k)
        values.push_back(json::makeNumber(*first + k));
}

void
readAxis(const Member &entry, std::set<std::string> &swept,
         std::vector<SweepAxis> &out)
{
    SweepAxis axis;
    axis.path = entry.path;
    const auto values = [&](const Member &m) {
        if (m.value.isArray())
            axis.values = m.value.items;
        else
            m.typeMismatch("array");
    };
    if (!readObject(entry, {{"field", &axis.field},
                            {"values", values},
                            {"range", [&](const Member &m) {
                                 readRange(m, axis.values);
                             }}}))
        return;

    const json::Value *field = entry.value.find("field");
    const bool sawValues = entry.value.find("values") != nullptr;
    const bool sawRange = entry.value.find("range") != nullptr;
    if (field == nullptr)
        entry.fail("axis needs a \"field\"", "field");
    if (sawValues && sawRange)
        entry.fail("give either \"values\" or \"range\", not both");
    else if (!sawValues && !sawRange)
        entry.fail("axis needs \"values\" or \"range\"");
    // A missing field is reported above and a mistyped one as a type
    // mismatch; only a string field is looked up.
    const bool named = field != nullptr && field->isString();
    if (named && !fields::knownField(axis.field)) {
        entry.fail("unknown experiment field \"" + axis.field +
                       "\" (known fields: " + fields::describeFields() +
                       ")",
                   "field");
    } else if (named) {
        if (!swept.insert(axis.field).second)
            entry.fail("field \"" + axis.field +
                           "\" is swept by more than one axis",
                       "field");
        if (axis.values.empty())
            entry.fail("axis needs at least one value", "values");
        for (std::size_t k = 0; k < axis.values.size(); ++k) {
            std::string why;
            if (!fields::validateField(axis.field, axis.values[k], why))
                entry.fail(why, "values[" + std::to_string(k) + "]");
        }
    }
    out.push_back(std::move(axis));
}

void
readSweep(const Member &sweep, ScenarioSpec &spec)
{
    std::set<std::string> swept;
    readObject(sweep,
               {{"mode",
                 [&](const Member &m) {
                     const auto mode = m.value.asString();
                     if (mode == "cross")
                         spec.mode = SweepMode::Cross;
                     else if (mode == "zip")
                         spec.mode = SweepMode::Zip;
                     else
                         m.fail("must be \"cross\" or \"zip\"");
                 }},
                {"axes", [&](const Member &m) {
                     m.items([&](const Member &entry) {
                         readAxis(entry, swept, spec.axes);
                     });
                 }}});
}

void
readTrace(const Member &member, OutputSpec &output)
{
    TraceOutputSpec trace;
    const auto level = [&](const Member &m) {
        const auto name = m.value.asString();
        const auto parsed = name ? obs::parseObsLevel(*name) : std::nullopt;
        if (parsed)
            trace.level = *parsed;
        else
            m.fail("must be one of \"off\", \"counters\", \"decisions\", "
                   "\"full\"");
    };
    const auto format = [&](const Member &m) {
        if (m.text(trace.format) && trace.format != "jsonl" &&
            trace.format != "chrome" && trace.format != "btrace")
            m.fail("must be \"jsonl\", \"chrome\" or \"btrace\"");
    };
    if (!readObject(member, {{"path", &trace.path},
                             {"level", level},
                             {"format", format}}))
        return;
    if (trace.path.empty())
        member.fail("trace output needs a file path (\"-\" = stdout)",
                    "path");
    output.trace = std::move(trace);
}

void
readOutput(const Member &member, OutputSpec &output)
{
    const auto csv = [&](const Member &m) {
        const auto path = m.value.asString();
        if (path && !path->empty())
            output.csvPath = *path;
        else
            m.fail("must be a non-empty file path (\"-\" = stdout)");
    };
    readObject(member,
               {{"summary", &output.summary},
                {"csv", csv},
                {"trace", [&](const Member &m) { readTrace(m, output); }},
                {"rollup", &output.rollup},
                {"league", &output.league}});
}

/** The metrics a report term may name; `baseline` = takes one. */
struct ReportMetric
{
    const char *key;
    bool baseline;
};

const ReportMetric kReportMetrics[] = {
    {"discard_ratio", true},
    {"ibo_ratio", true},
    {"tx_share_pct", true},
    {"hq_share_pct", false},
};

/** A report term is an object of strings. */
struct TermKey
{
    const char *key;
    std::string ReportTerm::*text;
};

const TermKey kTermKeys[] = {
    {"metric", &ReportTerm::metric},
    {"subject", &ReportTerm::subject},
    {"baseline", &ReportTerm::baseline},
};

void
readTerm(const Member &entry, std::vector<ReportTerm> &out)
{
    ReportTerm term;
    term.path = entry.path;
    // An unknown key is reported as such, whatever its value.
    const auto read = [&](const std::string &key, const Member &m) {
        const TermKey *row = findRow(kTermKeys, key);
        if (row == nullptr) {
            m.fail(unknownKey("key", keysOf(kTermKeys)));
            return;
        }
        std::string text;
        if (m.text(text))
            term.*row->text = std::move(text);
    };
    if (!readObject(entry, {}, read))
        return;
    const ReportMetric *metric = findRow(kReportMetrics, term.metric);
    if (metric == nullptr) {
        // A mistyped metric is already reported as a type mismatch.
        const json::Value *named = entry.value.find("metric");
        if (named == nullptr || named->isString())
            entry.fail(unknownKey("metric \"" + term.metric + "\"",
                                  keysOf(kReportMetrics)),
                       "metric");
    } else if (metric->baseline && term.baseline.empty())
        entry.fail("metric \"" + term.metric +
                   "\" needs a baseline population");
    else if (!metric->baseline && !term.baseline.empty())
        entry.fail("metric \"" + term.metric + "\" takes no baseline",
                   "baseline");
    out.push_back(std::move(term));
}

/**
 * Count the conversions in a report-line format string. Only %% and
 * %[flags][width][.prec]f are allowed (what the report renderer
 * expands); anything else returns empty and fills `why`.
 */
std::optional<std::size_t>
countFormatConversions(const std::string &format, std::string &why)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < format.size(); ++i) {
        if (format[i] != '%')
            continue;
        if (i + 1 >= format.size()) {
            why = "stray '%' at end of format string";
            return std::nullopt;
        }
        if (format[i + 1] == '%') {
            ++i;
            continue;
        }
        std::size_t j = i + 1;
        while (j < format.size() &&
               (std::isdigit(static_cast<unsigned char>(format[j])) ||
                format[j] == '.' || format[j] == '-' ||
                format[j] == '+'))
            ++j;
        if (j >= format.size() || format[j] != 'f') {
            why = "only %% and %...f conversions are allowed";
            return std::nullopt;
        }
        if (j - i > 8) {
            why = "conversion specifier too long";
            return std::nullopt;
        }
        ++count;
        i = j;
    }
    return count;
}

void
readLine(const Member &entry, std::vector<ReportLine> &out)
{
    ReportLine line;
    if (!readObject(entry, {{"format", &line.format},
                            {"values", [&](const Member &m) {
                                 m.items([&](const Member &term) {
                                     readTerm(term, line.terms);
                                 });
                             }}}))
        return;
    std::string why;
    const auto conversions = countFormatConversions(line.format, why);
    if (!conversions)
        entry.fail(why, "format");
    else if (*conversions != line.terms.size())
        entry.fail("format has " + std::to_string(*conversions) +
                       " conversions but " +
                       std::to_string(line.terms.size()) + " values",
                   "format");
    out.push_back(std::move(line));
}

void
readReport(const Member &member, ReportSpec &report)
{
    const auto table = [&](const Member &m) {
        m.items([&](const Member &item) {
            std::string name;
            if (item.text(name))
                report.rows.push_back({std::move(name), item.path});
        });
    };
    const auto lines = [&](const Member &m) {
        m.items([&](const Member &entry) { readLine(entry, report.lines); });
    };
    if (!readObject(member, {{"banner", &report.banner},
                             {"table", table},
                             {"lines", lines}}))
        return;
    report.enabled = true;
    if (report.banner.empty())
        member.fail("report needs a non-empty banner", "banner");
    if (report.rows.empty())
        member.fail("report table needs at least one population row",
                    "table");
}

void
readCohort(const Member &entry, std::vector<FleetCohortSpec> &out)
{
    FleetCohortSpec cohort;
    cohort.path = entry.path;
    constexpr std::uint64_t kMaxDevices = 100'000'000;
    if (!readObject(entry, {{"population", &cohort.population},
                            {"name", &cohort.name},
                            {"devices", &cohort.devices, 1, kMaxDevices},
                            {"task_ms", &cohort.taskMs, 1, 10'000'000},
                            {"task_mw", &cohort.taskMw, 0.0, 10'000.0,
                             true}}))
        return;
    // Mistyped values are already reported as type mismatches.
    const json::Value *population = entry.value.find("population");
    if (population == nullptr ||
        (population->isString() && cohort.population.empty()))
        entry.fail("cohort needs a \"population\" reference",
                   "population");
    // The device count has no default.
    if (entry.value.find("devices") == nullptr)
        entry.fail(mustBeIn<std::uint64_t>("an integer", 1, kMaxDevices),
                   "devices");
    out.push_back(std::move(cohort));
}

void
readFleet(const Member &member, std::optional<FleetSpec> &out)
{
    FleetSpec fleet;
    const auto cohorts = [&](const Member &m) {
        m.items([&](const Member &entry) { readCohort(entry, fleet.cohorts); });
    };
    if (!readObject(member,
                    {{"shards", &fleet.shards, 1, 65536},
                     {"slab_s", &fleet.slabSeconds, 1, 86400},
                     {"horizon_s", &fleet.horizonSeconds},
                     {"rollup_s", &fleet.rollupSeconds},
                     {"solar_sample_s", &fleet.solarSampleSeconds, 1.0,
                      86400.0},
                     {"checkpoint_slabs", &fleet.checkpointSlabs, 1, 100000},
                     {"cohorts", cohorts}}))
        return;
    if (fleet.cohorts.empty())
        member.fail("fleet needs at least one cohort", "cohorts");
    out = std::move(fleet);
}

/**
 * The checks that relate one part of a read spec to another:
 * population names and the references to them, axis shadowing, zip
 * lengths, the run limit, the fleet's time grid and the fleet-vs-
 * run-matrix exclusions.
 */
void
checkReferences(const ScenarioSpec &spec, Errors &errors)
{
    const auto addError = [&](std::string path, std::string message) {
        errors.push_back({std::move(path), std::move(message)});
    };
    if (spec.populations.empty())
        addError("populations",
                 "at least one population is required");
    std::set<std::string> populations;
    for (const PopulationSpec &population : spec.populations) {
        if (!population.name.empty() &&
            !populations.insert(population.name).second)
            addError(population.path + ".name",
                     "duplicate population name \"" + population.name +
                         "\"");
    }

    // A population override of a swept field would silently pin
    // every cell to one value for that population.
    for (const SweepAxis &axis : spec.axes) {
        if (!fields::knownField(axis.field))
            continue;
        for (const PopulationSpec &population : spec.populations) {
            for (const Override &override : population.overrides) {
                if (override.field == axis.field)
                    addError(override.path,
                             "field \"" + axis.field +
                                 "\" is a sweep axis; the population "
                                 "override would shadow every swept "
                                 "value");
            }
        }
    }

    if (spec.mode == SweepMode::Zip && !spec.axes.empty()) {
        const SweepAxis &first = spec.axes.front();
        for (const SweepAxis &axis : spec.axes) {
            if (axis.values.size() != first.values.size()) {
                addError("sweep.axes",
                         "zip mode requires equal-length axes (axis \"" +
                             first.field + "\" has " +
                             std::to_string(first.values.size()) +
                             " values, \"" + axis.field + "\" has " +
                             std::to_string(axis.values.size()) + ")");
                break;
            }
        }
    }

    // Run-count limit, overflow-checked.
    std::uint64_t cellCount = 1;
    bool overflowed = false;
    if (spec.mode == SweepMode::Zip) {
        if (!spec.axes.empty())
            cellCount = spec.axes.front().values.size();
    } else {
        for (const SweepAxis &axis : spec.axes) {
            const std::uint64_t n = axis.values.size();
            if (n != 0 && cellCount > spec.maxRuns / n + 1) {
                overflowed = true;
                break;
            }
            cellCount *= n == 0 ? 1 : n;
        }
    }
    const std::uint64_t populationCount = spec.populations.size();
    if (spec.maxRuns != 0 &&
        (overflowed ||
         (populationCount != 0 &&
          cellCount > spec.maxRuns / populationCount)))
        addError("sweep",
                 "scenario expands to more than max_runs (" +
                     std::to_string(spec.maxRuns) +
                     ") runs; raise max_runs or shrink the sweep");

    for (const ReportRow &row : spec.report.rows) {
        if (populations.count(row.population) == 0)
            addError(row.path,
                     "unknown population \"" + row.population + "\"");
    }
    for (const ReportLine &line : spec.report.lines) {
        for (const ReportTerm &term : line.terms) {
            const ReportMetric *metric =
                findRow(kReportMetrics, term.metric);
            if (metric == nullptr)
                continue;
            if (populations.count(term.subject) == 0)
                addError(term.path + ".subject",
                         "unknown population \"" + term.subject + "\"");
            if (metric->baseline && !term.baseline.empty() &&
                populations.count(term.baseline) == 0)
                addError(term.path + ".baseline",
                         "unknown population \"" + term.baseline + "\"");
        }
    }

    if (!spec.fleet)
        return;
    const FleetSpec &fleet = *spec.fleet;
    if (fleet.horizonSeconds < fleet.slabSeconds ||
        fleet.horizonSeconds > 31557600)
        addError("fleet.horizon_s",
                 "must be an integer in [slab_s, 31557600]");
    if (fleet.slabSeconds == 0 || fleet.rollupSeconds < fleet.slabSeconds ||
        fleet.rollupSeconds % fleet.slabSeconds != 0)
        addError("fleet.rollup_s",
                 "must be a positive multiple of slab_s");
    std::set<std::string> cohorts;
    for (const FleetCohortSpec &cohort : fleet.cohorts) {
        if (!cohort.population.empty() &&
            populations.count(cohort.population) == 0)
            addError(cohort.path + ".population",
                     "unknown population \"" + cohort.population + "\"");
        const std::string &display =
            cohort.name.empty() ? cohort.population : cohort.name;
        if (!display.empty() && !cohorts.insert(display).second)
            addError(cohort.path + ".name",
                     "duplicate cohort name \"" + display + "\"");
    }

    // The fleet engine replaces the run matrix: sweep axes would be
    // silently ignored, so they are a hard error with the offending
    // JSON path.
    if (!spec.axes.empty())
        addError(spec.axes.front().path,
                 "sweep axes cannot be combined with a \"fleet\" block "
                 "(the fleet engine runs cohorts, not a run matrix)");
    if (spec.report.enabled)
        addError("report",
                 "figure reports compare run-matrix populations and are "
                 "not produced by the fleet engine");
    if (!spec.output.csvPath.empty())
        addError("output.csv",
                 "per-run CSV is not produced by the fleet engine");
    if (spec.output.league)
        addError("output.league",
                 "league tables rank run-matrix populations and are not "
                 "produced by the fleet engine");
}

} // namespace

Expected<ScenarioSpec>
parseScenario(const json::Value &root)
{
    Expected<ScenarioSpec> result;
    if (!root.isObject()) {
        result.errors.push_back(
            {"$", "scenario must be a JSON object, got " +
                      json::Value::kindName(root.kind)});
        return result;
    }

    ScenarioSpec spec;
    Errors errors;
    readObject(
        Member{root, "", errors},
        {{"schema_version",
          [&](const Member &m) {
              const auto version = m.value.asUint64();
              if (!version || *version == 0 || *version >= 1000)
                  return m.fail("must be a positive integer");
              spec.schemaVersion = static_cast<int>(*version);
              if (spec.schemaVersion != ScenarioSpec::kSchemaMajor)
                  m.fail("unsupported scenario schema_version " +
                         std::to_string(spec.schemaVersion) +
                         " (this build supports " +
                         std::to_string(ScenarioSpec::kSchemaMajor) +
                         ")");
          }},
         {"name", &spec.name},
         {"description", &spec.description},
         {"defaults",
          [&](const Member &m) { readOverrides(m, spec.defaults); }},
         {"populations",
          [&](const Member &m) {
              m.items([&](const Member &entry) {
                  readPopulation(entry, spec.populations);
              });
          }},
         {"sweep", [&](const Member &m) { readSweep(m, spec); }},
         {"max_runs",
          [&](const Member &m) {
              if (m.count(spec.maxRuns) && spec.maxRuns == 0)
                  m.fail("must be at least 1");
          }},
         {"output", [&](const Member &m) { readOutput(m, spec.output); }},
         {"report", [&](const Member &m) { readReport(m, spec.report); }},
         {"fleet", [&](const Member &m) { readFleet(m, spec.fleet); }}});

    if (root.find("populations") == nullptr)
        errors.push_back(
            {"populations", "scenario needs a \"populations\" array"});
    checkReferences(spec, errors);

    if (errors.empty())
        result.value = std::move(spec);
    result.errors = std::move(errors);
    return result;
}

Expected<ScenarioSpec>
parseScenarioText(const std::string &text)
{
    json::ParseError parseError;
    const std::optional<json::Value> root =
        json::parse(text, parseError);
    if (!root) {
        Expected<ScenarioSpec> result;
        result.errors.push_back(
            {"$", "JSON parse error: " + parseError.describe()});
        return result;
    }
    return parseScenario(*root);
}

Expected<ScenarioSpec>
loadScenarioFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        Expected<ScenarioSpec> result;
        result.errors.push_back(
            {"$", "cannot open scenario file: " + path});
        return result;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parseScenarioText(text.str());
}

} // namespace scenario
} // namespace quetzal
