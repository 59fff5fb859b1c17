#include "obs/stream_sink.hpp"

#include <cassert>
#include <ostream>
#include <utility>

#include "util/logging.hpp"

namespace quetzal {
namespace obs {

StreamingBtraceSink::StreamingBtraceSink(std::ostream &stream,
                                         std::uint64_t runIndex,
                                         Options options)
    : out(stream), budget(options.maxInFlightBytes),
      encoder([this](std::string &&block) {
          enqueue(std::move(block));
      })
{
    encoder.beginRun(runIndex);
    flusher = std::thread([this] { flushLoop(); });
}

StreamingBtraceSink::~StreamingBtraceSink()
{
    finish();
}

void
StreamingBtraceSink::record(const Event &event)
{
    encoder.add(event);
}

void
StreamingBtraceSink::beginRun(std::uint64_t runIndex)
{
    encoder.beginRun(runIndex);
}

void
StreamingBtraceSink::enqueue(std::string &&block)
{
    std::unique_lock<std::mutex> lock(mutex);
    // queuedBytes, not the queue, is the in-flight measure: it still
    // counts the block the flusher has popped and is writing.
    if (queuedBytes + block.size() > budget && queuedBytes != 0) {
        // Deterministic backpressure: block until the flusher drains
        // below budget. Never drop, never reorder, never exceed it
        // (beyond a single oversized block with nothing else in
        // flight, which the budget floor in the ctor prevents for
        // normal chunk sizes).
        producerWaits.fetch_add(1, std::memory_order_release);
        producerCv.wait(lock, [this, &block] {
            return queuedBytes == 0 ||
                queuedBytes + block.size() <= budget;
        });
    }
    queuedBytes += block.size();
    if (queuedBytes > peakQueued)
        peakQueued = queuedBytes;
    // Bounded-memory invariant: in-flight bytes never exceed the
    // budget plus one block.
    assert(queuedBytes <= budget + block.size());
    queue.push_back(std::move(block));
    flusherCv.notify_one();
}

void
StreamingBtraceSink::flushLoop()
{
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
        flusherCv.wait(lock, [this] {
            return !queue.empty() || stopping;
        });
        if (queue.empty() && stopping)
            return;
        std::string block = std::move(queue.front());
        queue.pop_front();
        lock.unlock();
        out.write(block.data(),
                  static_cast<std::streamsize>(block.size()));
        const bool failed = !out;
        lock.lock();
        queuedBytes -= block.size();
        if (failed)
            writeFailed = true;
        producerCv.notify_one();
    }
}

void
StreamingBtraceSink::finish()
{
    if (finished)
        return;
    finished = true;
    encoder.finish();
    {
        std::unique_lock<std::mutex> lock(mutex);
        stopping = true;
    }
    flusherCv.notify_one();
    flusher.join();
    out.flush();
    bool failed = false;
    {
        std::unique_lock<std::mutex> lock(mutex);
        failed = writeFailed || !out;
    }
    if (failed)
        util::fatal("streaming btrace sink: writing the trace failed "
                    "(disk full or stream closed?)");
}

} // namespace obs
} // namespace quetzal
