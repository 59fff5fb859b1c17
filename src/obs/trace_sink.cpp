#include "obs/trace_sink.hpp"

namespace quetzal {
namespace obs {

namespace {

/** Set once the calling thread has destroyed its spare. Trivially
 *  destructible, so a sink destroyed after the spare still reads it. */
thread_local bool spareGone = false;

struct Spare
{
    std::vector<Event> log;

    ~Spare() { spareGone = true; }
};

/** The calling thread's spare log; nullptr once it is destroyed. */
std::vector<Event> *
spare()
{
    if (spareGone)
        return nullptr;
    thread_local Spare kept;
    return &kept.log;
}

} // namespace

VectorSink::VectorSink()
{
    if (std::vector<Event> *kept = spare()) {
        log.swap(*kept);
        log.clear();
    }
}

VectorSink::~VectorSink()
{
    std::vector<Event> *kept = spare();
    if (kept != nullptr && log.capacity() > kept->capacity())
        kept->swap(log);
}

} // namespace obs
} // namespace quetzal
