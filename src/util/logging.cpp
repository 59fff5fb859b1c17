#include "util/logging.hpp"

#include <cstdlib>
#include <iostream>

namespace quetzal {
namespace util {

void
panic(const std::string &message)
{
    std::cerr << "panic: " << message << std::endl;
    std::abort();
}

void
fatal(const std::string &message)
{
    std::cerr << "fatal: " << message << std::endl;
    std::exit(1);
}

void
warn(const std::string &message)
{
    std::cerr << "warn: " << message << std::endl;
}

} // namespace util
} // namespace quetzal
