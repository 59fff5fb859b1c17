/**
 * @file
 * End-to-end service-time estimation strategies (paper Eq. 1 and the
 * "Energy-aware S_e2e" sensitivity study of section 7.3).
 *
 * S_e2e(task) = max(t_exe, t_exe * P_exe / P_in): when harvestable
 * power exceeds the task's draw the task is compute-bound; otherwise
 * recharging dominates and service time scales with the power ratio.
 * Quetzal's energy-aware estimator evaluates this either through the
 * measurement circuit's ADC codes (the division-free Alg. 3 path) or
 * with exact floating point (reference). The averaging estimator —
 * the paper's "Avg. S_e2e" baseline — ignores input power and
 * predicts from historical observations instead.
 */

#ifndef QUETZAL_CORE_SERVICE_TIME_HPP
#define QUETZAL_CORE_SERVICE_TIME_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "core/task.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace core {

/**
 * One input-power measurement, carrying both the physical value and
 * the circuit's ADC code so either estimation path can run.
 */
struct PowerReading
{
    Watts watts = 0.0;       ///< true harvested power
    std::uint8_t code = 0;   ///< diode-voltage ADC code (V_D1)
};

/**
 * Strategy interface for predicting a task option's S_e2e.
 *
 * Estimates are pure in (option, power, internal history). A
 * scheduling round asks for each task's full-quality estimate at most
 * once (core::ServiceTerms) and keeps nothing across rounds, so an
 * estimator need not say what its estimates depend on.
 */
class ServiceTimeEstimator
{
  public:
    virtual ~ServiceTimeEstimator() = default;

    /**
     * Expected end-to-end seconds for one execution of the given
     * option under the given input power.
     */
    virtual double estimate(const DegradationOption &option,
                            const PowerReading &power) const = 0;

    /**
     * Feed back an observed end-to-end service time for an option
     * (no-op for stateless estimators).
     */
    virtual void
    recordObservation(const DegradationOption &option,
                      double observedSeconds)
    {
        (void)option;
        (void)observedSeconds;
    }

    /** Human-readable strategy name. */
    virtual std::string name() const = 0;

    /**
     * Checkpoint hook: one walk that saves or loads the estimator's
     * mutable history, by the archive's mode, so a resumed run
     * predicts exactly what the uninterrupted run would have. The
     * hook owns a length-prefixed blob of its own and applies what it
     * loaded only once the archive loaded(). Stateless estimators
     * (the energy-aware paths) keep the empty default.
     */
    virtual void state(util::wire::Archive &ar) { (void)ar; }
};

/**
 * The paper's energy-aware estimator: Eq. (1), scaled to the
 * *current* input power.
 */
class EnergyAwareEstimator : public ServiceTimeEstimator
{
  public:
    /**
     * @param useCircuit evaluate via ADC codes and Alg. 3 (the real
     *        device path) rather than exact floating point
     */
    explicit EnergyAwareEstimator(bool useCircuit = true);

    double estimate(const DegradationOption &option,
                    const PowerReading &power) const override;

    std::string name() const override;

  private:
    bool circuitPath;
};

/**
 * The "Avg. S_e2e" baseline (section 7.3): predicts each option's
 * service time as the mean of past observations, falling back to the
 * option's raw latency before any observation exists. Deliberately
 * blind to input power.
 */
class AverageServiceTimeEstimator : public ServiceTimeEstimator
{
  public:
    double estimate(const DegradationOption &option,
                    const PowerReading &power) const override;

    void recordObservation(const DegradationOption &option,
                           double observedSeconds) override;

    std::string name() const override;

    /** Walks the per-option observation history. */
    void state(util::wire::Archive &ar) override;

  private:
    /**
     * History is keyed by the option's cost identity (latency,
     * quantized power): distinct options in practice have distinct
     * costs, and this keeps the estimator usable from both the
     * estimate() path (which has only the option) and the feedback
     * path.
     */
    using Key = std::pair<Tick, long long>;

    static Key keyFor(const DegradationOption &option);

    std::map<Key, util::RunningStats> history;
};

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_SERVICE_TIME_HPP
