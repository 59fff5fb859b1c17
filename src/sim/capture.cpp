/**
 * @file
 * The capture pipeline of Figure 1: periodic capture -> pixel diff ->
 * (for "different" frames) JPEG compress -> input-buffer insert.
 * Split from simulator.cpp for readability; these are Simulator
 * member definitions.
 */

#include "sim/simulator.hpp"

#include "fault/fault_injector.hpp"

namespace quetzal {
namespace sim {

void
Simulator::processCapture(Tick now)
{
    ++metrics.captures;

    // Ground truth from the event trace: an active event makes the
    // frame "different" from its predecessor; the second I/O pin of
    // the paper's rig marks it interesting (section 6.2).
    const trace::SensingEvent *event = captureCursor.eventAt(now);
    bool different = event != nullptr;
    const bool interesting = different && event->interesting;
    // Arrival-burst fault: the frame is forced past the diff filter
    // (uninteresting, but it still occupies a buffer slot).
    if (!different && cfg.faults != nullptr &&
        cfg.faults->forceCaptureDifferent(now))
        different = true;

    if (interesting)
        ++metrics.interestingCaptured;
    else if (different)
        ++metrics.uninterestingCaptured;

    if (cfg.observer != nullptr &&
        cfg.observer->wants(obs::EventKind::Capture)) {
        obs::Event obsEvent;
        obsEvent.kind = obs::EventKind::Capture;
        // The id this frame will get if it survives the diff filter.
        obsEvent.id = different ? nextInputId : 0;
        if (different)
            obsEvent.flags |= obs::kFlagDifferent;
        if (interesting)
            obsEvent.flags |= obs::kFlagInteresting;
        cfg.observer->record(obsEvent);
    }

    // Capture + diff cost is paid for every frame.
    device.drawInstantaneous(appModel.camera.captureEnergy());

    // Arrival-rate window: a 1 records "stored into the queue"
    // (section 5.1), i.e. the frame survived the diff pre-filter.
    system.recordCapture(different);

    if (!different)
        return;

    // All systems compress before buffering (section 6.4).
    device.drawInstantaneous(appModel.compression.energy());

    queueing::InputRecord record;
    record.id = nextInputId++;
    record.captureTick = now;
    record.enqueueTick = now;
    record.jobId = appModel.classifyJob;
    record.interesting = interesting;

    const bool stored = buffer.tryPush(record);
    if (stored) {
        ++metrics.storedInputs;
    } else {
        if (interesting)
            ++metrics.iboDropsInteresting;
        else
            ++metrics.iboDropsUninteresting;
        // Reactive policies treat drops as overflow pressure; the
        // incumbent's hook is a no-op, so this is byte-inert.
        controller.onInputDropped(system, buffer, record, now);
    }

    if (cfg.observer != nullptr) {
        const obs::EventKind kind = stored ? obs::EventKind::InputStored
                                           : obs::EventKind::InputDropped;
        if (cfg.observer->wants(kind)) {
            obs::Event obsEvent;
            obsEvent.kind = kind;
            obsEvent.id = record.id;
            obsEvent.value = static_cast<std::int64_t>(buffer.size());
            if (interesting)
                obsEvent.flags |= obs::kFlagInteresting;
            cfg.observer->record(obsEvent);
        }
    }
}

} // namespace sim
} // namespace quetzal
