/**
 * @file
 * Deterministic pseudo-random number generation for repeatable
 * experiments.
 *
 * The paper emphasizes precise repeatability of its experiments
 * (section 6.2 uses a secondary MCU purely to make event injection
 * repeatable). We get the same property in simulation by seeding
 * every stochastic component from an explicit 64-bit seed and using a
 * fixed, standard-library-independent generator (xoshiro256**), so
 * results are identical across platforms and standard libraries.
 */

#ifndef QUETZAL_UTIL_RANDOM_HPP
#define QUETZAL_UTIL_RANDOM_HPP

#include <array>
#include <cstdint>

namespace quetzal {
namespace util {

namespace wire {
class Archive;
}

/**
 * SplitMix64: one golden-ratio step, then the finalizer. A stateless
 * 64-bit hash for seeds and per-device keys; Rng seeding applies it
 * to seed, seed + step, seed + 2 * step, ...
 */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * xoshiro256** pseudo-random generator with SplitMix64 seeding.
 *
 * Satisfies the UniformRandomBitGenerator requirements, but the
 * distribution helpers below should be preferred over std
 * distributions (whose outputs are implementation-defined).
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Next raw 64-bit output. */
    result_type operator()();

    /** Uniform double in [0, 1). */
    double uniform01();

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with success probability p (clamped to [0,1]). */
    bool bernoulli(double p);

    /** Exponential variate with the given mean (> 0). */
    double exponential(double mean);

    /** Standard-normal variate (Box-Muller, cached pair). */
    double normal();

    /** Normal variate with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Log-normal variate parameterized by the mean and sigma of the
     * underlying normal (i.e. exp(N(mu, sigma))).
     */
    double lognormal(double mu, double sigma);

    /**
     * Fork an independent stream: derives a child generator whose
     * sequence is decorrelated from this one. Used to give each
     * stochastic subsystem (events, clouds, noise) its own stream so
     * adding draws to one does not perturb the others.
     */
    Rng fork();

    /**
     * Full generator state — the xoshiro words plus the Box-Muller
     * cache — so a checkpointed run resumes mid-sequence and every
     * later draw matches the uninterrupted run exactly.
     */
    struct State
    {
        std::array<std::uint64_t, 4> words = {};
        double cachedNormal = 0.0;
        bool hasCachedNormal = false;

        /** The wire layout: four fixed64 words, the cached normal,
         *  the cache flag. */
        void walk(wire::Archive &ar);
    };

    /** Snapshot the generator state (see State). */
    State exportState() const
    {
        return State{state, cachedNormal, hasCachedNormal};
    }

    /** Restore a snapshot taken with exportState(). */
    void importState(const State &snapshot)
    {
        state = snapshot.words;
        cachedNormal = snapshot.cachedNormal;
        hasCachedNormal = snapshot.hasCachedNormal;
    }

  private:
    std::array<std::uint64_t, 4> state;
    double cachedNormal = 0.0;
    bool hasCachedNormal = false;
};

} // namespace util
} // namespace quetzal

#endif // QUETZAL_UTIL_RANDOM_HPP
