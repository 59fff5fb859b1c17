/**
 * @file
 * PID controller for prediction-error mitigation (paper section 4.3).
 *
 * Quetzal predicts per-job E[S] from historical quantities and
 * corrects systematic error with a PID controller on the
 * (observed - predicted) service-time error. A positive output
 * inflates future E[S] predictions (the buffer is probably fuller
 * than modeled, so degrade sooner); a negative output deflates them.
 * Implementation follows the standard discrete PID form the paper
 * cites [69]: trapezoidal integrator with anti-windup clamping and a
 * first-order low-pass filtered, measurement-free derivative.
 */

#ifndef QUETZAL_CORE_PID_HPP
#define QUETZAL_CORE_PID_HPP

namespace quetzal::util::wire {
class Archive;
}

namespace quetzal {
namespace core {

/** Gains and limits for a PidController. */
struct PidConfig
{
    double kp = 5e-6; ///< paper Table 1
    double ki = 1e-6; ///< paper Table 1
    double kd = 1.0;  ///< paper Table 1
    double derivativeTau = 1.0; ///< derivative low-pass time constant
    double outputMin = -5.0;    ///< seconds of E[S] deflation allowed
    double outputMax = 30.0;    ///< seconds of E[S] inflation allowed
    double integratorMin = -10.0;
    double integratorMax = 10.0;
};

/**
 * Discrete PID controller.
 */
class PidController
{
  public:
    explicit PidController(const PidConfig &config = {});

    /** Static configuration. */
    const PidConfig &config() const { return cfg; }

    /**
     * Advance the controller with a new error sample.
     * @param error  observed minus predicted value
     * @param dt     seconds since the previous update (> 0)
     * @return the new clamped output
     */
    double update(double error, double dt);

    /** Most recent output (0 before the first update). */
    double output() const { return lastOutput; }

    /** Number of updates applied. */
    unsigned long updates() const { return updateCount; }

    /** Loop state for checkpoint/restore (gains are configuration). */
    struct State
    {
        double integrator = 0.0;
        double differentiator = 0.0;
        double previousError = 0.0;
        double lastOutput = 0.0;
        unsigned long updateCount = 0;

        /** The wire layout: four doubles, varint update count. */
        void walk(util::wire::Archive &ar);
    };

    /** Snapshot the loop state (see State). */
    State exportState() const
    {
        return State{integrator, differentiator, previousError,
                     lastOutput, updateCount};
    }

    /** Restore a snapshot taken with exportState(). */
    void importState(const State &snapshot)
    {
        integrator = snapshot.integrator;
        differentiator = snapshot.differentiator;
        previousError = snapshot.previousError;
        lastOutput = snapshot.lastOutput;
        updateCount = snapshot.updateCount;
    }

  private:
    PidConfig cfg;
    double integrator = 0.0;
    double differentiator = 0.0;
    double previousError = 0.0;
    double lastOutput = 0.0;
    unsigned long updateCount = 0;
};

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_PID_HPP
