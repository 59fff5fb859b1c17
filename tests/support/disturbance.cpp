#include "support/disturbance.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace quetzal {
namespace fault {

std::vector<double>
disturbanceSamples(const Disturbance &signal, std::size_t length)
{
    if (signal.shape == DisturbanceShape::Ramp && signal.rampLength == 0)
        util::panic("ramp disturbance needs rampLength > 0");

    std::vector<double> samples(length, 0.0);
    switch (signal.shape) {
      case DisturbanceShape::Step:
        for (std::size_t k = signal.startIndex; k < length; ++k)
            samples[k] = signal.amplitude;
        break;

      case DisturbanceShape::Ramp:
        for (std::size_t k = signal.startIndex; k < length; ++k) {
            const std::size_t into = k - signal.startIndex + 1;
            const double fraction = std::min(
                1.0, static_cast<double>(into) /
                    static_cast<double>(signal.rampLength));
            samples[k] = signal.amplitude * fraction;
        }
        break;

      case DisturbanceShape::Noise: {
        util::Rng rng(signal.seed);
        for (std::size_t k = signal.startIndex; k < length; ++k)
            samples[k] = rng.normal(0.0, signal.amplitude);
        break;
      }
    }
    return samples;
}

} // namespace fault
} // namespace quetzal
