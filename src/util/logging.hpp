/**
 * @file
 * Logging and error-termination helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a Quetzal bug; aborts), fatal() is for unrecoverable
 * user/configuration errors (clean exit with an error code), warn()
 * is the non-terminating status channel.
 */

#ifndef QUETZAL_UTIL_LOGGING_HPP
#define QUETZAL_UTIL_LOGGING_HPP

#include <sstream>
#include <string>

namespace quetzal {
namespace util {

/**
 * Terminate with an internal-error diagnostic. Call when an invariant
 * that no configuration should be able to violate has been violated.
 * Never returns.
 */
[[noreturn]] void panic(const std::string &message);

/**
 * Terminate with a user-error diagnostic (bad configuration, invalid
 * arguments). Never returns.
 */
[[noreturn]] void fatal(const std::string &message);

/** Print a warning about suspicious but survivable conditions. */
void warn(const std::string &message);

/**
 * Build a message from stream-insertable pieces, e.g.
 * `fatal(msg("bad cell count ", cells))`.
 */
template <typename... Args>
std::string
msg(Args &&...args)
{
    std::ostringstream out;
    ((out << args), ...);
    return out.str();
}

} // namespace util
} // namespace quetzal

#endif // QUETZAL_UTIL_LOGGING_HPP
