#include "util/random.hpp"

#include <cmath>

#include "util/logging.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace util {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    for (auto &word : state) {
        word = mix64(seed);
        seed += 0x9e3779b97f4a7c15ull;
    }
}

Rng::result_type
Rng::operator()()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;

    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);

    return result;
}

double
Rng::uniform01()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic(msg("uniformInt bounds inverted: ", lo, " > ", hi));
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) {
        // Full 64-bit range requested.
        return static_cast<std::int64_t>((*this)());
    }
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = Rng::max() - Rng::max() % span;
    std::uint64_t draw;
    do {
        draw = (*this)();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % span);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform01() < p;
}

double
Rng::exponential(double mean)
{
    if (mean <= 0.0)
        panic(msg("exponential mean must be positive, got ", mean));
    double u;
    do {
        u = uniform01();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal()
{
    if (hasCachedNormal) {
        hasCachedNormal = false;
        return cachedNormal;
    }
    double u1;
    do {
        u1 = uniform01();
    } while (u1 <= 0.0);
    const double u2 = uniform01();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cachedNormal = radius * std::sin(angle);
    hasCachedNormal = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

Rng
Rng::fork()
{
    const std::uint64_t childSeed = (*this)() ^ 0xa5a5a5a5a5a5a5a5ull;
    return Rng(childSeed);
}

void
Rng::State::walk(wire::Archive &ar)
{
    for (std::uint64_t &word : words)
        ar.fixed64(word);
    ar.real(cachedNormal);
    ar.flag(hasCachedNormal);
}

} // namespace util
} // namespace quetzal
