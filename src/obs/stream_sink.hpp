/**
 * @file
 * The former name of the btrace writer. BtraceWriter is the one
 * btrace TraceSink (obs/btrace.hpp); this alias keeps the old name
 * compiling for code that still includes this header.
 */

#ifndef QUETZAL_OBS_STREAM_SINK_HPP
#define QUETZAL_OBS_STREAM_SINK_HPP

#include "obs/btrace.hpp"

namespace quetzal {
namespace obs {

using StreamingBtraceSink = BtraceWriter;

} // namespace obs
} // namespace quetzal

#endif // QUETZAL_OBS_STREAM_SINK_HPP
