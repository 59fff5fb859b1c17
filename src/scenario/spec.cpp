#include "scenario/spec.hpp"

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "policy/registry.hpp"
#include "trace/event_generator.hpp"

namespace quetzal {
namespace scenario {

namespace fields {
namespace {

std::optional<app::DeviceKind>
deviceFromName(const std::string &name)
{
    if (name == "apollo4")
        return app::DeviceKind::Apollo4;
    if (name == "msp430")
        return app::DeviceKind::Msp430;
    return std::nullopt;
}

std::optional<trace::EnvironmentPreset>
environmentFromName(const std::string &name)
{
    using E = trace::EnvironmentPreset;
    if (name == "more-crowded")
        return E::MoreCrowded;
    if (name == "crowded")
        return E::Crowded;
    if (name == "less-crowded")
        return E::LessCrowded;
    if (name == "msp430")
        return E::Msp430Short;
    return std::nullopt;
}

std::optional<app::CheckpointPolicy>
checkpointFromName(const std::string &name)
{
    if (name == "jit")
        return app::CheckpointPolicy::JustInTime;
    if (name == "periodic")
        return app::CheckpointPolicy::Periodic;
    return std::nullopt;
}

bool
uintInRange(const json::Value &v, std::uint64_t lo, std::uint64_t hi)
{
    const auto parsed = v.asUint64();
    return parsed && *parsed >= lo && *parsed <= hi;
}

bool
doubleInRange(const json::Value &v, double lo, double hi)
{
    const auto parsed = v.asDouble();
    return parsed && *parsed >= lo && *parsed <= hi;
}

/** The "pid" override: an object of gain overrides. */
bool
checkPid(const json::Value &v, std::string &why)
{
    if (!v.isObject()) {
        why = "must be an object of PID gains, e.g. "
              "{\"kp\": 5e-6, \"ki\": 1e-6, \"kd\": 1.0}";
        return false;
    }
    for (const auto &[key, gain] : v.members) {
        if (key != "kp" && key != "ki" && key != "kd") {
            why = "unknown PID gain \"" + key +
                "\" (allowed: kp, ki, kd)";
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
    if (const json::Value *kp = v.find("kp"))
        cfg.pid.kp = *kp->asDouble();
    if (const json::Value *ki = v.find("ki"))
        cfg.pid.ki = *ki->asDouble();
    if (const json::Value *kd = v.find("kd"))
        cfg.pid.kd = *kd->asDouble();
}

/** One numeric sub-field of the "faults" override. */
struct FaultNumberDesc
{
    const char *key;
    double lo;
    double hi;
    bool integer; ///< value must also be a whole unsigned number
};

/** Validate one "faults" sub-object of numeric fields. */
bool
checkFaultSection(const json::Value &v, const std::string &path,
                  std::initializer_list<FaultNumberDesc> allowed,
                  std::string &why)
{
    if (!v.isObject()) {
        why = path + " must be an object";
        return false;
    }
    for (const auto &[key, value] : v.members) {
        const FaultNumberDesc *match = nullptr;
        for (const FaultNumberDesc &desc : allowed) {
            if (key == desc.key) {
                match = &desc;
                break;
            }
        }
        if (match == nullptr) {
            why = path + ": unknown key \"" + key + "\" (allowed:";
            bool first = true;
            for (const FaultNumberDesc &desc : allowed) {
                why += first ? " " : ", ";
                why += desc.key;
                first = false;
            }
            why += ")";
            return false;
        }
        const bool fits = match->integer
            ? uintInRange(value, static_cast<std::uint64_t>(match->lo),
                          static_cast<std::uint64_t>(match->hi))
            : doubleInRange(value, match->lo, match->hi);
        if (!fits) {
            std::ostringstream range;
            range << path << "." << key << " must be "
                  << (match->integer ? "an integer" : "a number")
                  << " in [" << match->lo << ", " << match->hi << "]";
            why = range.str();
            return false;
        }
    }
    return true;
}

/** The "faults" override: the scenario surface of fault::FaultSpec. */
bool
checkFaults(const json::Value &v, std::string &why)
{
    if (!v.isObject()) {
        why = "must be an object of fault sub-blocks, e.g. "
              "{\"measurement\": {\"bias_watts\": 0.002}}";
        return false;
    }
    for (const auto &[key, value] : v.members) {
        if (key == "seed") {
            if (!value.asUint64()) {
                why = "faults.seed must be an unsigned 64-bit integer";
                return false;
            }
        } else if (key == "detect_error_s") {
            if (!doubleInRange(value, 1e-9, 1e6)) {
                why = "faults.detect_error_s must be a positive number";
                return false;
            }
        } else if (key == "mitigate_streak") {
            if (!uintInRange(value, 1, 1000)) {
                why = "faults.mitigate_streak must be an integer in "
                      "[1, 1000]";
                return false;
            }
        } else if (key == "measurement") {
            if (!checkFaultSection(value, "faults.measurement",
                                   {{"bias_watts", -10.0, 10.0, false},
                                    {"noise_sigma", 0.0, 10.0, false}},
                                   why))
                return false;
        } else if (key == "adc") {
            if (!checkFaultSection(
                    value, "faults.adc",
                    {{"stuck_high_mask", 0, 255, true},
                     {"stuck_low_mask", 0, 255, true},
                     {"flip_mask", 0, 255, true},
                     {"saturate_max", 0, 255, true}},
                    why))
                return false;
        } else if (key == "power_trace") {
            if (!checkFaultSection(
                    value, "faults.power_trace",
                    {{"dropouts_per_hour", 0.0, 3600.0, false},
                     {"dropout_seconds", 0.0, 3600.0, false},
                     {"spikes_per_hour", 0.0, 3600.0, false},
                     {"spike_seconds", 0.0, 3600.0, false},
                     {"spike_factor", 0.0, 100.0, false}},
                    why))
                return false;
        } else if (key == "arrivals") {
            if (!checkFaultSection(
                    value, "faults.arrivals",
                    {{"bursts_per_hour", 0.0, 3600.0, false},
                     {"burst_seconds", 0.0, 3600.0, false},
                     {"capture_jitter_ms", 0, 1'000'000, true}},
                    why))
                return false;
        } else if (key == "execution") {
            if (!checkFaultSection(
                    value, "faults.execution",
                    {{"overrun_probability", 0.0, 1.0, false},
                     {"overrun_factor", 1.0, 1000.0, false}},
                    why))
                return false;
        } else {
            why = "unknown faults key \"" + key +
                "\" (allowed: seed, detect_error_s, mitigate_streak, "
                "measurement, adc, power_trace, arrivals, execution)";
            return false;
        }
    }
    return true;
}

void
applyFaults(const json::Value &v, sim::ExperimentConfig &cfg)
{
    fault::FaultSpec &f = cfg.faults;
    if (const json::Value *x = v.find("seed"))
        f.seed = *x->asUint64();
    if (const json::Value *x = v.find("detect_error_s"))
        f.detectErrorSeconds = *x->asDouble();
    if (const json::Value *x = v.find("mitigate_streak"))
        f.mitigateStreak = static_cast<std::uint32_t>(*x->asUint64());
    if (const json::Value *m = v.find("measurement")) {
        if (const json::Value *x = m->find("bias_watts"))
            f.measurement.biasWatts = *x->asDouble();
        if (const json::Value *x = m->find("noise_sigma"))
            f.measurement.noiseSigma = *x->asDouble();
    }
    if (const json::Value *a = v.find("adc")) {
        if (const json::Value *x = a->find("stuck_high_mask"))
            f.adc.stuckHighMask =
                static_cast<std::uint8_t>(*x->asUint64());
        if (const json::Value *x = a->find("stuck_low_mask"))
            f.adc.stuckLowMask =
                static_cast<std::uint8_t>(*x->asUint64());
        if (const json::Value *x = a->find("flip_mask"))
            f.adc.flipMask = static_cast<std::uint8_t>(*x->asUint64());
        if (const json::Value *x = a->find("saturate_max"))
            f.adc.saturateMax =
                static_cast<std::uint8_t>(*x->asUint64());
    }
    if (const json::Value *p = v.find("power_trace")) {
        if (const json::Value *x = p->find("dropouts_per_hour"))
            f.powerTrace.dropoutsPerHour = *x->asDouble();
        if (const json::Value *x = p->find("dropout_seconds"))
            f.powerTrace.dropoutSeconds = *x->asDouble();
        if (const json::Value *x = p->find("spikes_per_hour"))
            f.powerTrace.spikesPerHour = *x->asDouble();
        if (const json::Value *x = p->find("spike_seconds"))
            f.powerTrace.spikeSeconds = *x->asDouble();
        if (const json::Value *x = p->find("spike_factor"))
            f.powerTrace.spikeFactor = *x->asDouble();
    }
    if (const json::Value *a = v.find("arrivals")) {
        if (const json::Value *x = a->find("bursts_per_hour"))
            f.arrivals.burstsPerHour = *x->asDouble();
        if (const json::Value *x = a->find("burst_seconds"))
            f.arrivals.burstSeconds = *x->asDouble();
        if (const json::Value *x = a->find("capture_jitter_ms"))
            f.arrivals.captureJitterMs =
                static_cast<Tick>(*x->asUint64());
    }
    if (const json::Value *e = v.find("execution")) {
        if (const json::Value *x = e->find("overrun_probability"))
            f.execution.overrunProbability = *x->asDouble();
        if (const json::Value *x = e->find("overrun_factor"))
            f.execution.overrunFactor = *x->asDouble();
    }
}

/** Axis-cell label: the active sub-blocks ("faults:adc+arrivals"). */
std::string
labelFaults(const json::Value &v)
{
    std::string active;
    if (v.isObject()) {
        for (const char *section :
             {"measurement", "adc", "power_trace", "arrivals",
              "execution"}) {
            const json::Value *block = v.find(section);
            if (block == nullptr || !block->isObject() ||
                block->members.empty())
                continue;
            if (!active.empty())
                active += '+';
            active += section;
        }
    }
    return active.empty() ? std::string("no-faults")
                          : "faults:" + active;
}

struct FieldInfo
{
    const char *key;
    /** Expectation text used in the validation error message. */
    const char *expects;
    bool (*check)(const json::Value &v, std::string &why);
    void (*apply)(const json::Value &v, sim::ExperimentConfig &cfg);
    /** Cell display label; nullptr = the value's raw text. */
    std::string (*label)(const json::Value &v);
};

const FieldInfo kFields[] = {
    {"device", "one of \"apollo4\", \"msp430\"",
     [](const json::Value &v, std::string &) {
         const auto name = v.asString();
         return name && deviceFromName(*name).has_value();
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.device = *deviceFromName(*v.asString());
     },
     [](const json::Value &v) {
         return app::deviceKindName(*deviceFromName(*v.asString()));
     }},
    {"environment",
     "one of \"more-crowded\", \"crowded\", \"less-crowded\", "
     "\"msp430\"",
     [](const json::Value &v, std::string &) {
         const auto name = v.asString();
         return name && environmentFromName(*name).has_value();
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.environment = *environmentFromName(*v.asString());
     },
     [](const json::Value &v) {
         return trace::environmentName(
             *environmentFromName(*v.asString()));
     }},
    {"controller",
     "one of \"QZ\", \"QZ-FCFS\", \"QZ-LCFS\", \"QZ-AvgSe2e\", "
     "\"NA\", \"AD\", \"CN\", \"THR\", \"PZO\", \"PZI\", \"Ideal\"",
     [](const json::Value &v, std::string &) {
         const auto name = v.asString();
         return name && policy::controllerKindFromLabel(*name).has_value();
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.controller = *policy::controllerKindFromLabel(*v.asString());
     },
     nullptr},
    {"policy",
     "a registered policy name (\"sjf-ibo\", \"zygarde\", "
     "\"delgado-famaey\", \"greedy-fcfs\")",
     [](const json::Value &v, std::string &) {
         const auto name = v.asString();
         return name && policy::isRegisteredPolicy(*name);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.policyName = *v.asString();
     },
     nullptr},
    {"events", "an integer in [1, 10000000]",
     [](const json::Value &v, std::string &) {
         return uintInRange(v, 1, 10'000'000);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.eventCount = static_cast<std::size_t>(*v.asUint64());
     },
     nullptr},
    {"seed", "an unsigned 64-bit integer",
     [](const json::Value &v, std::string &) {
         return v.asUint64().has_value();
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.seed = *v.asUint64();
     },
     nullptr},
    {"cells", "an integer in [1, 64]",
     [](const json::Value &v, std::string &) {
         return uintInRange(v, 1, 64);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.harvesterCells = static_cast<int>(*v.asUint64());
     },
     nullptr},
    {"buffer", "an integer in [1, 1000000]",
     [](const json::Value &v, std::string &) {
         return uintInRange(v, 1, 1'000'000);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.sim.bufferCapacity =
             static_cast<std::size_t>(*v.asUint64());
     },
     nullptr},
    {"capture_period_ms", "an integer in [1, 10000000]",
     [](const json::Value &v, std::string &) {
         return uintInRange(v, 1, 10'000'000);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.sim.capturePeriod = static_cast<Tick>(*v.asUint64());
     },
     nullptr},
    {"task_window", "an integer in [1, 4096]",
     [](const json::Value &v, std::string &) {
         return uintInRange(v, 1, 4096);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.system.taskWindow =
             static_cast<std::uint32_t>(*v.asUint64());
     },
     nullptr},
    {"arrival_window", "an integer in [1, 65536]",
     [](const json::Value &v, std::string &) {
         return uintInRange(v, 1, 65536);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.system.arrivalWindow =
             static_cast<std::uint32_t>(*v.asUint64());
     },
     nullptr},
    {"buffer_threshold", "a number in [0, 1]",
     [](const json::Value &v, std::string &) {
         return doubleInRange(v, 0.0, 1.0);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.bufferThreshold = *v.asDouble();
     },
     nullptr},
    {"power_threshold_fraction", "a number in [0, 1]",
     [](const json::Value &v, std::string &) {
         return doubleInRange(v, 0.0, 1.0);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.powerThresholdFraction = *v.asDouble();
     },
     nullptr},
    {"use_pid", "a boolean",
     [](const json::Value &v, std::string &) {
         return v.isBool();
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.usePid = v.boolean;
     },
     nullptr},
    {"use_circuit", "a boolean",
     [](const json::Value &v, std::string &) {
         return v.isBool();
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.useCircuit = v.boolean;
     },
     nullptr},
    {"drain_s", "a number in [0, 10000000]",
     [](const json::Value &v, std::string &) {
         return doubleInRange(v, 0.0, 10'000'000.0);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.sim.drainTicks = static_cast<Tick>(
             *v.asDouble() * static_cast<double>(kTicksPerSecond));
     },
     nullptr},
    {"jitter_sigma", "a number in [0, 10]",
     [](const json::Value &v, std::string &) {
         return doubleInRange(v, 0.0, 10.0);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.sim.executionJitterSigma = *v.asDouble();
     },
     nullptr},
    {"checkpoint", "one of \"jit\", \"periodic\"",
     [](const json::Value &v, std::string &) {
         const auto name = v.asString();
         return name && checkpointFromName(*name).has_value();
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.checkpointPolicy = *checkpointFromName(*v.asString());
     },
     nullptr},
    {"checkpoint_interval_ms", "an integer in [1, 10000000]",
     [](const json::Value &v, std::string &) {
         return uintInRange(v, 1, 10'000'000);
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.checkpointIntervalTicks =
             static_cast<Tick>(*v.asUint64());
     },
     nullptr},
    {"power_trace_csv", "a non-empty file path string",
     [](const json::Value &v, std::string &) {
         const auto path = v.asString();
         return path && !path->empty();
     },
     [](const json::Value &v, sim::ExperimentConfig &cfg) {
         cfg.powerTraceCsv = *v.asString();
     },
     nullptr},
    {"pid", "", checkPid, applyPid,
     [](const json::Value &) { return std::string("pid"); }},
    {"faults", "", checkFaults, applyFaults, labelFaults},
};

const FieldInfo *
lookup(const std::string &key)
{
    for (const FieldInfo &info : kFields) {
        if (key == info.key)
            return &info;
    }
    return nullptr;
}

} // namespace

bool
knownField(const std::string &key)
{
    return lookup(key) != nullptr;
}

bool
validateField(const std::string &key, const json::Value &value,
              std::string &why)
{
    const FieldInfo *info = lookup(key);
    if (info == nullptr) {
        why = "unknown experiment field (known fields: " +
            describeFields() + ")";
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
    const FieldInfo *info = lookup(key);
    if (info != nullptr)
        info->apply(value, config);
}

std::string
fieldLabel(const std::string &key, const json::Value &value)
{
    const FieldInfo *info = lookup(key);
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

void
addError(std::vector<SpecError> &errors, std::string path,
         std::string message)
{
    errors.push_back({std::move(path), std::move(message)});
}

std::string
typeMismatch(const json::Value &v, const char *wanted)
{
    return std::string("expected ") + wanted + ", got " +
        json::Value::kindName(v.kind);
}

} // namespace

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

std::vector<SpecError>
validateSpec(const ScenarioSpec &spec)
{
    std::vector<SpecError> errors;

    if (spec.schemaVersion != ScenarioSpec::kSchemaMajor)
        addError(errors, "schema_version",
                 "unsupported scenario schema_version " +
                     std::to_string(spec.schemaVersion) +
                     " (this build supports " +
                     std::to_string(ScenarioSpec::kSchemaMajor) + ")");

    auto checkOverride = [&](const Override &override) {
        std::string why;
        if (!fields::validateField(override.field, override.value,
                                   why))
            addError(errors, override.path, why);
    };

    for (const Override &override : spec.defaults)
        checkOverride(override);

    if (spec.populations.empty())
        addError(errors, "populations",
                 "at least one population is required");
    std::set<std::string> populationNames;
    for (std::size_t i = 0; i < spec.populations.size(); ++i) {
        const PopulationSpec &population = spec.populations[i];
        const std::string path = population.path.empty()
            ? "populations[" + std::to_string(i) + "]"
            : population.path;
        if (population.name.empty())
            addError(errors, path + ".name",
                     "population name must be a non-empty string");
        else if (!populationNames.insert(population.name).second)
            addError(errors, path + ".name",
                     "duplicate population name \"" + population.name +
                         "\"");
        for (const Override &override : population.overrides)
            checkOverride(override);
    }

    std::set<std::string> axisFields;
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        const SweepAxis &axis = spec.axes[i];
        const std::string path = axis.path.empty()
            ? "sweep.axes[" + std::to_string(i) + "]"
            : axis.path;
        std::string why;
        if (!fields::knownField(axis.field)) {
            addError(errors, path + ".field",
                     "unknown experiment field \"" + axis.field +
                         "\" (known fields: " +
                         fields::describeFields() + ")");
            continue;
        }
        if (!axisFields.insert(axis.field).second)
            addError(errors, path + ".field",
                     "field \"" + axis.field +
                         "\" is swept by more than one axis");
        if (axis.values.empty())
            addError(errors, path + ".values",
                     "axis needs at least one value");
        for (std::size_t k = 0; k < axis.values.size(); ++k) {
            if (!fields::validateField(axis.field, axis.values[k],
                                       why))
                addError(errors,
                         path + ".values[" + std::to_string(k) + "]",
                         why);
        }
        // A population override of a swept field would silently pin
        // every cell to one value for that population.
        for (const PopulationSpec &population : spec.populations) {
            for (const Override &override : population.overrides) {
                if (override.field == axis.field)
                    addError(errors, override.path,
                             "field \"" + axis.field +
                                 "\" is a sweep axis; the population "
                                 "override would shadow every swept "
                                 "value");
            }
        }
    }

    if (spec.mode == SweepMode::Zip && spec.axes.size() > 1) {
        const std::size_t length = spec.axes.front().values.size();
        for (const SweepAxis &axis : spec.axes) {
            if (axis.values.size() != length) {
                addError(errors, "sweep.axes",
                         "zip mode requires equal-length axes (axis "
                         "\"" + spec.axes.front().field + "\" has " +
                             std::to_string(length) + " values, \"" +
                             axis.field + "\" has " +
                             std::to_string(axis.values.size()) + ")");
                break;
            }
        }
    }

    if (spec.maxRuns == 0)
        addError(errors, "max_runs", "must be at least 1");

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
        addError(errors, "sweep",
                 "scenario expands to more than max_runs (" +
                     std::to_string(spec.maxRuns) +
                     ") runs; raise max_runs or shrink the sweep");

    // Report references and format strings.
    if (spec.report.enabled) {
        if (spec.report.banner.empty())
            addError(errors, "report.banner",
                     "report needs a non-empty banner");
        if (spec.report.rows.empty())
            addError(errors, "report.table",
                     "report table needs at least one population row");
        for (std::size_t i = 0; i < spec.report.rows.size(); ++i) {
            if (populationNames.count(spec.report.rows[i]) == 0)
                addError(errors,
                         "report.table[" + std::to_string(i) + "]",
                         "unknown population \"" + spec.report.rows[i] +
                             "\"");
        }
        for (std::size_t i = 0; i < spec.report.lines.size(); ++i) {
            const ReportLine &line = spec.report.lines[i];
            const std::string path = line.path.empty()
                ? "report.lines[" + std::to_string(i) + "]"
                : line.path;
            std::string why;
            const auto conversions =
                countFormatConversions(line.format, why);
            if (!conversions)
                addError(errors, path + ".format", why);
            else if (*conversions != line.terms.size())
                addError(errors, path + ".format",
                         "format has " + std::to_string(*conversions) +
                             " conversions but " +
                             std::to_string(line.terms.size()) +
                             " values");
            for (std::size_t k = 0; k < line.terms.size(); ++k) {
                const ReportTerm &term = line.terms[k];
                const std::string termPath = term.path.empty()
                    ? path + ".values[" + std::to_string(k) + "]"
                    : term.path;
                const bool wantsBaseline = term.metric ==
                        "discard_ratio" ||
                    term.metric == "ibo_ratio" ||
                    term.metric == "tx_share_pct";
                if (!wantsBaseline && term.metric != "hq_share_pct") {
                    addError(errors, termPath + ".metric",
                             "unknown metric \"" + term.metric +
                                 "\" (allowed: discard_ratio, "
                                 "ibo_ratio, tx_share_pct, "
                                 "hq_share_pct)");
                    continue;
                }
                if (populationNames.count(term.subject) == 0)
                    addError(errors, termPath + ".subject",
                             "unknown population \"" + term.subject +
                                 "\"");
                if (wantsBaseline) {
                    if (term.baseline.empty())
                        addError(errors, termPath,
                                 "metric \"" + term.metric +
                                     "\" needs a baseline population");
                    else if (populationNames.count(term.baseline) == 0)
                        addError(errors, termPath + ".baseline",
                                 "unknown population \"" +
                                     term.baseline + "\"");
                } else if (!term.baseline.empty()) {
                    addError(errors, termPath + ".baseline",
                             "metric \"hq_share_pct\" takes no "
                             "baseline");
                }
            }
        }
    }

    if (spec.output.trace) {
        const TraceOutputSpec &trace = *spec.output.trace;
        if (trace.path.empty())
            addError(errors, "output.trace.path",
                     "trace output needs a file path (\"-\" = stdout)");
        if (trace.format != "jsonl" && trace.format != "chrome" &&
            trace.format != "btrace")
            addError(errors, "output.trace.format",
                     "must be \"jsonl\", \"chrome\" or \"btrace\"");
    }

    if (spec.fleet) {
        const FleetSpec &fleet = *spec.fleet;
        if (fleet.shards < 1 || fleet.shards > 65536)
            addError(errors, "fleet.shards",
                     "must be an integer in [1, 65536]");
        if (fleet.slabSeconds < 1 || fleet.slabSeconds > 86400)
            addError(errors, "fleet.slab_s",
                     "must be an integer in [1, 86400]");
        if (fleet.horizonSeconds < fleet.slabSeconds ||
            fleet.horizonSeconds > 31557600)
            addError(errors, "fleet.horizon_s",
                     "must be an integer in [slab_s, 31557600]");
        if (fleet.rollupSeconds < fleet.slabSeconds ||
            fleet.slabSeconds == 0 ||
            fleet.rollupSeconds % fleet.slabSeconds != 0)
            addError(errors, "fleet.rollup_s",
                     "must be a positive multiple of slab_s");
        if (fleet.solarSampleSeconds < 1.0 ||
            fleet.solarSampleSeconds > 86400.0)
            addError(errors, "fleet.solar_sample_s",
                     "must be a number in [1, 86400]");
        if (fleet.checkpointSlabs < 1 ||
            fleet.checkpointSlabs > 100000)
            addError(errors, "fleet.checkpoint_slabs",
                     "must be an integer in [1, 100000]");
        if (fleet.cohorts.empty())
            addError(errors, "fleet.cohorts",
                     "fleet needs at least one cohort");
        std::set<std::string> cohortNames;
        for (std::size_t i = 0; i < fleet.cohorts.size(); ++i) {
            const FleetCohortSpec &cohort = fleet.cohorts[i];
            const std::string path = cohort.path.empty()
                ? "fleet.cohorts[" + std::to_string(i) + "]"
                : cohort.path;
            if (cohort.population.empty())
                addError(errors, path + ".population",
                         "cohort needs a \"population\" reference");
            else if (populationNames.count(cohort.population) == 0)
                addError(errors, path + ".population",
                         "unknown population \"" + cohort.population +
                             "\"");
            const std::string display = cohort.name.empty()
                ? cohort.population
                : cohort.name;
            if (!display.empty() &&
                !cohortNames.insert(display).second)
                addError(errors, path + ".name",
                         "duplicate cohort name \"" + display + "\"");
            if (cohort.devices < 1 ||
                cohort.devices > 100'000'000)
                addError(errors, path + ".devices",
                         "must be an integer in [1, 100000000]");
            if (cohort.taskMs < 1 || cohort.taskMs > 10'000'000)
                addError(errors, path + ".task_ms",
                         "must be an integer in [1, 10000000]");
            if (!(cohort.taskMw > 0.0) || cohort.taskMw > 10'000.0)
                addError(errors, path + ".task_mw",
                         "must be a number in (0, 10000]");
        }

        // The fleet engine replaces the run matrix: sweep axes would
        // be silently ignored, so they are a hard error with the
        // offending JSON path.
        if (!spec.axes.empty())
            addError(errors,
                     spec.axes.front().path.empty()
                         ? "sweep.axes"
                         : spec.axes.front().path,
                     "sweep axes cannot be combined with a \"fleet\" "
                     "block (the fleet engine runs cohorts, not a "
                     "run matrix)");
        if (spec.report.enabled)
            addError(errors, "report",
                     "figure reports compare run-matrix populations "
                     "and are not produced by the fleet engine");
        if (!spec.output.csvPath.empty())
            addError(errors, "output.csv",
                     "per-run CSV is not produced by the fleet "
                     "engine");
        if (spec.output.league)
            addError(errors, "output.league",
                     "league tables rank run-matrix populations and "
                     "are not produced by the fleet engine");
    }

    return errors;
}

namespace {

/** Collect every non-reserved key of `obj` as a field override. */
void
parseOverrides(const json::Value &obj, const std::string &basePath,
               const std::set<std::string> &reserved,
               std::vector<Override> &out)
{
    for (const auto &[key, value] : obj.members) {
        if (reserved.count(key) != 0)
            continue;
        out.push_back({key, value, basePath + "." + key});
    }
}

void
parseSweep(const json::Value &sweep, ScenarioSpec &spec,
           std::vector<SpecError> &errors)
{
    if (!sweep.isObject()) {
        addError(errors, "sweep", typeMismatch(sweep, "object"));
        return;
    }
    for (const auto &[key, value] : sweep.members) {
        if (key == "mode") {
            const auto mode = value.asString();
            if (mode && *mode == "cross")
                spec.mode = SweepMode::Cross;
            else if (mode && *mode == "zip")
                spec.mode = SweepMode::Zip;
            else
                addError(errors, "sweep.mode",
                         "must be \"cross\" or \"zip\"");
        } else if (key == "axes") {
            if (!value.isArray()) {
                addError(errors, "sweep.axes",
                         typeMismatch(value, "array"));
                continue;
            }
            for (std::size_t i = 0; i < value.items.size(); ++i) {
                const json::Value &entry = value.items[i];
                const std::string path =
                    "sweep.axes[" + std::to_string(i) + "]";
                if (!entry.isObject()) {
                    addError(errors, path,
                             typeMismatch(entry, "object"));
                    continue;
                }
                SweepAxis axis;
                axis.path = path;
                bool sawValues = false;
                bool sawRange = false;
                for (const auto &[axisKey, axisValue] :
                     entry.members) {
                    if (axisKey == "field") {
                        const auto field = axisValue.asString();
                        if (field)
                            axis.field = *field;
                        else
                            addError(errors, path + ".field",
                                     typeMismatch(axisValue,
                                                  "string"));
                    } else if (axisKey == "values") {
                        sawValues = true;
                        if (axisValue.isArray())
                            axis.values = axisValue.items;
                        else
                            addError(errors, path + ".values",
                                     typeMismatch(axisValue, "array"));
                    } else if (axisKey == "range") {
                        sawRange = true;
                        const json::Value *from =
                            axisValue.isObject()
                            ? axisValue.find("from")
                            : nullptr;
                        const json::Value *count =
                            axisValue.isObject()
                            ? axisValue.find("count")
                            : nullptr;
                        const std::uint64_t fromValue = from
                            ? from->asUint64().value_or(0)
                            : 0;
                        const std::uint64_t countValue = count
                            ? count->asUint64().value_or(0)
                            : 0;
                        if (!axisValue.isObject() || !from || !count ||
                            !from->asUint64() || countValue == 0 ||
                            countValue > 1'000'000 ||
                            axisValue.members.size() != 2) {
                            addError(errors, path + ".range",
                                     "must be {\"from\": N, \"count\": "
                                     "M} with 1 <= M <= 1000000");
                        } else {
                            for (std::uint64_t k = 0; k < countValue;
                                 ++k)
                                axis.values.push_back(
                                    json::makeNumber(fromValue + k));
                        }
                    } else {
                        addError(errors, path + "." + axisKey,
                                 "unknown key (allowed: field, "
                                 "values, range)");
                    }
                }
                if (axis.field.empty())
                    addError(errors, path + ".field",
                             "axis needs a \"field\"");
                if (sawValues && sawRange)
                    addError(errors, path,
                             "give either \"values\" or \"range\", "
                             "not both");
                else if (!sawValues && !sawRange)
                    addError(errors, path,
                             "axis needs \"values\" or \"range\"");
                spec.axes.push_back(std::move(axis));
            }
        } else {
            addError(errors, "sweep." + key,
                     "unknown key (allowed: mode, axes)");
        }
    }
}

void
parseTraceOutput(const json::Value &trace, ScenarioSpec &spec,
                 std::vector<SpecError> &errors)
{
    if (!trace.isObject()) {
        addError(errors, "output.trace", typeMismatch(trace, "object"));
        return;
    }
    TraceOutputSpec out;
    for (const auto &[key, value] : trace.members) {
        if (key == "path") {
            const auto path = value.asString();
            if (path)
                out.path = *path;
            else
                addError(errors, "output.trace.path",
                         typeMismatch(value, "string"));
        } else if (key == "level") {
            const auto name = value.asString();
            const auto level =
                name ? obs::parseObsLevel(*name) : std::nullopt;
            if (level)
                out.level = *level;
            else
                addError(errors, "output.trace.level",
                         "must be one of \"off\", \"counters\", "
                         "\"decisions\", \"full\"");
        } else if (key == "format") {
            const auto format = value.asString();
            if (format)
                out.format = *format;
            else
                addError(errors, "output.trace.format",
                         typeMismatch(value, "string"));
        } else {
            addError(errors, "output.trace." + key,
                     "unknown key (allowed: path, level, format)");
        }
    }
    spec.output.trace = std::move(out);
}

void
parseOutput(const json::Value &output, ScenarioSpec &spec,
            std::vector<SpecError> &errors)
{
    if (!output.isObject()) {
        addError(errors, "output", typeMismatch(output, "object"));
        return;
    }
    for (const auto &[key, value] : output.members) {
        if (key == "summary") {
            const auto enabled = value.asBool();
            if (enabled)
                spec.output.summary = *enabled;
            else
                addError(errors, "output.summary",
                         typeMismatch(value, "bool"));
        } else if (key == "csv") {
            const auto path = value.asString();
            if (path && !path->empty())
                spec.output.csvPath = *path;
            else
                addError(errors, "output.csv",
                         "must be a non-empty file path (\"-\" = "
                         "stdout)");
        } else if (key == "trace") {
            parseTraceOutput(value, spec, errors);
        } else if (key == "rollup") {
            const auto enabled = value.asBool();
            if (enabled)
                spec.output.rollup = *enabled;
            else
                addError(errors, "output.rollup",
                         typeMismatch(value, "bool"));
        } else if (key == "league") {
            const auto enabled = value.asBool();
            if (enabled)
                spec.output.league = *enabled;
            else
                addError(errors, "output.league",
                         typeMismatch(value, "bool"));
        } else {
            addError(errors, "output." + key,
                     "unknown key (allowed: summary, csv, trace, "
                     "rollup, league)");
        }
    }
}

void
parseReport(const json::Value &report, ScenarioSpec &spec,
            std::vector<SpecError> &errors)
{
    if (!report.isObject()) {
        addError(errors, "report", typeMismatch(report, "object"));
        return;
    }
    spec.report.enabled = true;
    for (const auto &[key, value] : report.members) {
        if (key == "banner") {
            const auto banner = value.asString();
            if (banner)
                spec.report.banner = *banner;
            else
                addError(errors, "report.banner",
                         typeMismatch(value, "string"));
        } else if (key == "table") {
            if (!value.isArray()) {
                addError(errors, "report.table",
                         typeMismatch(value, "array"));
                continue;
            }
            for (std::size_t i = 0; i < value.items.size(); ++i) {
                const auto name = value.items[i].asString();
                if (name)
                    spec.report.rows.push_back(*name);
                else
                    addError(errors,
                             "report.table[" + std::to_string(i) + "]",
                             typeMismatch(value.items[i], "string"));
            }
        } else if (key == "lines") {
            if (!value.isArray()) {
                addError(errors, "report.lines",
                         typeMismatch(value, "array"));
                continue;
            }
            for (std::size_t i = 0; i < value.items.size(); ++i) {
                const json::Value &entry = value.items[i];
                const std::string path =
                    "report.lines[" + std::to_string(i) + "]";
                if (!entry.isObject()) {
                    addError(errors, path,
                             typeMismatch(entry, "object"));
                    continue;
                }
                ReportLine line;
                line.path = path;
                for (const auto &[lineKey, lineValue] :
                     entry.members) {
                    if (lineKey == "format") {
                        const auto format = lineValue.asString();
                        if (format)
                            line.format = *format;
                        else
                            addError(errors, path + ".format",
                                     typeMismatch(lineValue,
                                                  "string"));
                    } else if (lineKey == "values") {
                        if (!lineValue.isArray()) {
                            addError(errors, path + ".values",
                                     typeMismatch(lineValue, "array"));
                            continue;
                        }
                        for (std::size_t k = 0;
                             k < lineValue.items.size(); ++k) {
                            const json::Value &termValue =
                                lineValue.items[k];
                            const std::string termPath = path +
                                ".values[" + std::to_string(k) + "]";
                            if (!termValue.isObject()) {
                                addError(errors, termPath,
                                         typeMismatch(termValue,
                                                      "object"));
                                continue;
                            }
                            ReportTerm term;
                            term.path = termPath;
                            for (const auto &[termKey, field] :
                                 termValue.members) {
                                const auto text = field.asString();
                                if (!text) {
                                    addError(errors,
                                             termPath + "." + termKey,
                                             typeMismatch(field,
                                                          "string"));
                                } else if (termKey == "metric") {
                                    term.metric = *text;
                                } else if (termKey == "subject") {
                                    term.subject = *text;
                                } else if (termKey == "baseline") {
                                    term.baseline = *text;
                                } else {
                                    addError(errors,
                                             termPath + "." + termKey,
                                             "unknown key (allowed: "
                                             "metric, subject, "
                                             "baseline)");
                                }
                            }
                            line.terms.push_back(std::move(term));
                        }
                    } else {
                        addError(errors, path + "." + lineKey,
                                 "unknown key (allowed: format, "
                                 "values)");
                    }
                }
                spec.report.lines.push_back(std::move(line));
            }
        } else {
            addError(errors, "report." + key,
                     "unknown key (allowed: banner, table, lines)");
        }
    }
}

void
parseFleet(const json::Value &fleetValue, ScenarioSpec &spec,
           std::vector<SpecError> &errors)
{
    if (!fleetValue.isObject()) {
        addError(errors, "fleet", typeMismatch(fleetValue, "object"));
        return;
    }
    FleetSpec fleet;
    for (const auto &[key, value] : fleetValue.members) {
        if (key == "shards") {
            if (value.asUint64())
                fleet.shards = *value.asUint64();
            else
                addError(errors, "fleet.shards",
                         "must be an unsigned integer");
        } else if (key == "slab_s") {
            if (value.asUint64())
                fleet.slabSeconds = *value.asUint64();
            else
                addError(errors, "fleet.slab_s",
                         "must be an unsigned integer");
        } else if (key == "horizon_s") {
            if (value.asUint64())
                fleet.horizonSeconds = *value.asUint64();
            else
                addError(errors, "fleet.horizon_s",
                         "must be an unsigned integer");
        } else if (key == "rollup_s") {
            if (value.asUint64())
                fleet.rollupSeconds = *value.asUint64();
            else
                addError(errors, "fleet.rollup_s",
                         "must be an unsigned integer");
        } else if (key == "solar_sample_s") {
            if (value.asDouble())
                fleet.solarSampleSeconds = *value.asDouble();
            else
                addError(errors, "fleet.solar_sample_s",
                         "must be a number");
        } else if (key == "checkpoint_slabs") {
            if (value.asUint64())
                fleet.checkpointSlabs = *value.asUint64();
            else
                addError(errors, "fleet.checkpoint_slabs",
                         "must be an unsigned integer");
        } else if (key == "cohorts") {
            if (!value.isArray()) {
                addError(errors, "fleet.cohorts",
                         typeMismatch(value, "array"));
                continue;
            }
            for (std::size_t i = 0; i < value.items.size(); ++i) {
                const json::Value &entry = value.items[i];
                const std::string path =
                    "fleet.cohorts[" + std::to_string(i) + "]";
                if (!entry.isObject()) {
                    addError(errors, path,
                             typeMismatch(entry, "object"));
                    continue;
                }
                FleetCohortSpec cohort;
                cohort.path = path;
                for (const auto &[cohortKey, cohortValue] :
                     entry.members) {
                    if (cohortKey == "population") {
                        const auto text = cohortValue.asString();
                        if (text)
                            cohort.population = *text;
                        else
                            addError(errors, path + ".population",
                                     typeMismatch(cohortValue,
                                                  "string"));
                    } else if (cohortKey == "name") {
                        const auto text = cohortValue.asString();
                        if (text)
                            cohort.name = *text;
                        else
                            addError(errors, path + ".name",
                                     typeMismatch(cohortValue,
                                                  "string"));
                    } else if (cohortKey == "devices") {
                        if (cohortValue.asUint64())
                            cohort.devices = *cohortValue.asUint64();
                        else
                            addError(errors, path + ".devices",
                                     "must be an unsigned integer");
                    } else if (cohortKey == "task_ms") {
                        if (cohortValue.asUint64())
                            cohort.taskMs = *cohortValue.asUint64();
                        else
                            addError(errors, path + ".task_ms",
                                     "must be an unsigned integer");
                    } else if (cohortKey == "task_mw") {
                        if (cohortValue.asDouble())
                            cohort.taskMw = *cohortValue.asDouble();
                        else
                            addError(errors, path + ".task_mw",
                                     "must be a number");
                    } else {
                        addError(errors, path + "." + cohortKey,
                                 "unknown key (allowed: population, "
                                 "name, devices, task_ms, task_mw)");
                    }
                }
                fleet.cohorts.push_back(std::move(cohort));
            }
        } else {
            addError(errors, "fleet." + key,
                     "unknown key (allowed: shards, slab_s, "
                     "horizon_s, rollup_s, solar_sample_s, "
                     "checkpoint_slabs, cohorts)");
        }
    }
    spec.fleet = std::move(fleet);
}

} // namespace

Expected<ScenarioSpec>
parseScenario(const json::Value &root)
{
    Expected<ScenarioSpec> result;
    std::vector<SpecError> errors;
    ScenarioSpec spec;

    if (!root.isObject()) {
        addError(errors, "$",
                 "scenario must be a JSON object, got " +
                     json::Value::kindName(root.kind));
        result.errors = std::move(errors);
        return result;
    }

    bool sawPopulations = false;
    for (const auto &[key, value] : root.members) {
        if (key == "schema_version") {
            const auto version = value.asInt64();
            if (version && *version > 0 && *version < 1000)
                spec.schemaVersion = static_cast<int>(*version);
            else
                addError(errors, "schema_version",
                         "must be a positive integer");
        } else if (key == "name") {
            const auto name = value.asString();
            if (name)
                spec.name = *name;
            else
                addError(errors, "name", typeMismatch(value, "string"));
        } else if (key == "description") {
            const auto text = value.asString();
            if (text)
                spec.description = *text;
            else
                addError(errors, "description",
                         typeMismatch(value, "string"));
        } else if (key == "defaults") {
            if (value.isObject())
                parseOverrides(value, "defaults", {}, spec.defaults);
            else
                addError(errors, "defaults",
                         typeMismatch(value, "object"));
        } else if (key == "populations") {
            sawPopulations = true;
            if (!value.isArray()) {
                addError(errors, "populations",
                         typeMismatch(value, "array"));
                continue;
            }
            for (std::size_t i = 0; i < value.items.size(); ++i) {
                const json::Value &entry = value.items[i];
                const std::string path =
                    "populations[" + std::to_string(i) + "]";
                if (!entry.isObject()) {
                    addError(errors, path,
                             typeMismatch(entry, "object"));
                    continue;
                }
                PopulationSpec population;
                population.path = path;
                if (const json::Value *name = entry.find("name")) {
                    const auto text = name->asString();
                    if (text)
                        population.name = *text;
                    else
                        addError(errors, path + ".name",
                                 typeMismatch(*name, "string"));
                } else {
                    addError(errors, path + ".name",
                             "population needs a \"name\"");
                }
                parseOverrides(entry, path, {"name"},
                               population.overrides);
                spec.populations.push_back(std::move(population));
            }
        } else if (key == "sweep") {
            parseSweep(value, spec, errors);
        } else if (key == "max_runs") {
            const auto limit = value.asUint64();
            if (limit)
                spec.maxRuns = *limit;
            else
                addError(errors, "max_runs",
                         "must be an unsigned integer");
        } else if (key == "output") {
            parseOutput(value, spec, errors);
        } else if (key == "report") {
            parseReport(value, spec, errors);
        } else if (key == "fleet") {
            parseFleet(value, spec, errors);
        } else {
            addError(errors, key,
                     "unknown key (allowed: schema_version, name, "
                     "description, defaults, populations, sweep, "
                     "max_runs, output, report, fleet)");
        }
    }

    if (!sawPopulations)
        addError(errors, "populations",
                 "scenario needs a \"populations\" array");

    const std::vector<SpecError> semantic = validateSpec(spec);
    errors.insert(errors.end(), semantic.begin(), semantic.end());

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
