/**
 * @file
 * Seeded disturbance signals for closed-loop property tests.
 *
 * The PID property suite (tests/core/test_pid_properties.cpp) drives
 * the controller with canonical control-theory disturbances — step,
 * ramp, and band-limited noise — rather than hand-written literals,
 * so every property is checked over families of inputs. Signals are
 * pure functions of (config, seed, sample index): evaluating sample
 * k twice, or out of order, gives the same value, matching the
 * repo-wide determinism contract.
 */

#ifndef QUETZAL_TESTS_SUPPORT_DISTURBANCE_HPP
#define QUETZAL_TESTS_SUPPORT_DISTURBANCE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/random.hpp"

namespace quetzal {
namespace fault {

/** Shape of a disturbance signal. */
enum class DisturbanceShape : std::uint8_t {
    Step,  ///< 0 before startIndex, amplitude from it onward
    Ramp,  ///< 0 before startIndex, then amplitude * k / rampLength
    Noise, ///< seeded Gaussian, sigma = amplitude
};

/** A disturbance signal over sample indices 0..length-1. */
struct Disturbance
{
    DisturbanceShape shape = DisturbanceShape::Step;
    double amplitude = 1.0;
    std::size_t startIndex = 0;   ///< first perturbed sample
    std::size_t rampLength = 1;   ///< samples to full amplitude (Ramp)
    std::uint64_t seed = 1;       ///< noise stream seed (Noise)
};

/**
 * Materialize `length` samples of the signal. Noise draws come from
 * a fresh Rng seeded from the disturbance, so equal configs yield
 * equal vectors.
 */
std::vector<double> disturbanceSamples(const Disturbance &signal,
                                       std::size_t length);

} // namespace fault
} // namespace quetzal

#endif // QUETZAL_TESTS_SUPPORT_DISTURBANCE_HPP
