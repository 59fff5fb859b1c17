/**
 * @file
 * Seeded fixture values: a uniform double in a range, drawn from
 * util::Rng. The programs only ever need uniform01(), so the ranged
 * draw lives here with the tests that use it.
 */

#ifndef QUETZAL_TESTS_SUPPORT_RANDOM_HPP
#define QUETZAL_TESTS_SUPPORT_RANDOM_HPP

#include "util/logging.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace util {

/** Uniform double in [lo, hi); one uniform01() draw. Requires
 *  lo <= hi. */
inline double
uniformIn(Rng &rng, double lo, double hi)
{
    if (lo > hi)
        panic(msg("uniform bounds inverted: ", lo, " > ", hi));
    return lo + (hi - lo) * rng.uniform01();
}

} // namespace util
} // namespace quetzal

#endif // QUETZAL_TESTS_SUPPORT_RANDOM_HPP
