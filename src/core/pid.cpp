#include "core/pid.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace core {

PidController::PidController(const PidConfig &config) : cfg(config)
{
    if (cfg.outputMin > cfg.outputMax)
        util::fatal("PID output limits inverted");
    if (cfg.integratorMin > cfg.integratorMax)
        util::fatal("PID integrator limits inverted");
    if (cfg.derivativeTau < 0.0)
        util::fatal("PID derivative tau must be non-negative");
}

double
PidController::update(double error, double dt)
{
    if (dt <= 0.0)
        util::panic(util::msg("PID dt must be positive: ", dt));

    const double proportional = cfg.kp * error;

    // Trapezoidal integration with anti-windup clamping.
    integrator += 0.5 * cfg.ki * dt * (error + previousError);
    integrator = std::clamp(integrator, cfg.integratorMin,
                            cfg.integratorMax);

    // Band-limited derivative of the error signal.
    const double rawDerivative = (error - previousError) / dt;
    if (cfg.derivativeTau > 0.0) {
        const double alpha = dt / (cfg.derivativeTau + dt);
        differentiator += alpha * (rawDerivative - differentiator);
    } else {
        differentiator = rawDerivative;
    }
    const double derivative = cfg.kd * differentiator;

    previousError = error;
    ++updateCount;

    lastOutput = std::clamp(proportional + integrator + derivative,
                            cfg.outputMin, cfg.outputMax);
    return lastOutput;
}

void
PidController::State::walk(util::wire::Archive &ar)
{
    ar.real(integrator);
    ar.real(differentiator);
    ar.real(previousError);
    ar.real(lastOutput);
    ar.varint(updateCount);
}

} // namespace core
} // namespace quetzal
