#include "support/verify.hpp"

#include <cstring>
#include <deque>
#include <optional>

#include "core/service_time.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace policy {

namespace {

/** Bit-exact double rendering for decision fingerprints. */
std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** An input the harness is holding in flight. */
struct InFlight
{
    queueing::SlotId slot = 0;
    core::JobId jobId = 0;
    std::size_t dueRound = 0;
};

/**
 * The scripted walk shared by verifyPolicy and decisionStream. Both
 * outputs are optional so each entry point pays only for what it
 * needs.
 */
void
runWalk(core::SchedulingPolicy &policy, const VerifyOptions &options,
        VerifyReport *report, std::vector<std::string> *stream)
{
    // A miniature person-detection app: a degradable inference task,
    // a degradable radio task, classify spawning transmit. Small
    // enough to reason about, rich enough to exercise degradation,
    // spawns and multi-job ranking.
    core::TaskSystem system;
    const core::TaskId mlTask = system.addTask(
        "ml", {{"high", 1000, 20e-3}, {"low", 100, 10e-3}});
    const core::TaskId radioTask = system.addTask(
        "radio", {{"full", 800, 100e-3}, {"byte", 50, 100e-3}});
    const core::JobId transmitJob =
        system.addJob("transmit", {radioTask});
    const core::JobId classifyJob =
        system.addJob("classify", {mlTask}, transmitJob);

    queueing::InputBuffer buffer(options.bufferCapacity);
    core::EnergyAwareEstimator estimator(/*useCircuit=*/false);
    util::Rng rng(options.seed);

    const Joules capacity = 0.1;
    const Tick period = 1000;
    std::uint64_t nextId = 1;
    std::deque<InFlight> inFlight;

    for (std::size_t round = 0; round < options.rounds; ++round) {
        const Tick now = static_cast<Tick>(round + 1) * period;

        // Complete due in-flight work (release or spawn).
        while (!inFlight.empty() && inFlight.front().dueRound <= round) {
            const InFlight done = inFlight.front();
            inFlight.pop_front();
            const core::Job &job = system.job(done.jobId);
            const std::vector<bool> executed(job.tasks.size(), true);
            system.recordJobCompletion(job, executed);
            if (done.jobId == classifyJob && rng.bernoulli(0.5)) {
                buffer.retagSlot(done.slot, transmitJob, now);
                system.recordSpawn();
            } else {
                buffer.releaseSlot(done.slot);
            }
        }

        // Arrivals: 0-2 fresh captures this round.
        const std::int64_t arrivals = rng.uniformInt(0, 2);
        for (std::int64_t a = 0; a < arrivals; ++a) {
            queueing::InputRecord record;
            record.id = nextId++;
            record.captureTick = now;
            record.enqueueTick = now;
            record.jobId = classifyJob;
            record.interesting = rng.bernoulli(0.5);
            system.recordCapture(true);
            if (!buffer.tryPush(record))
                policy.onBufferOverflow(system, buffer, record, now);
        }

        // Observable state for this round's decision.
        const Joules stored = capacity * rng.uniform01();
        const Watts watts = rng.uniform(5e-3, 50e-3);
        const core::PowerReading power = system.measureInputPower(watts);
        const core::PolicyContext ctx{system, buffer, estimator, power,
                                      0.0, {stored, capacity, now}};

        const auto decision = policy.rank(ctx);
        if (!decision) {
            if (stream)
                stream->push_back("idle");
            continue;
        }
        if (report)
            ++report->decisions;

        auto violate = [&](const std::string &what) {
            if (report) {
                report->violations.push_back(
                    util::msg("round ", round, ": ", what));
            }
        };

        // The slot must name a resident, schedulable record of the
        // decision's job.
        bool resident = false;
        bool schedulable = false;
        bool jobMatches = false;
        buffer.forEachFifo([&](queueing::SlotId slot,
                               const queueing::InputRecord &rec) {
            if (slot != decision->slot)
                return;
            resident = true;
            schedulable = !rec.inFlight;
            jobMatches = rec.jobId == decision->jobId;
        });
        if (!resident) {
            violate(util::msg("decision names non-resident slot ",
                              decision->slot));
        } else if (!schedulable) {
            violate(util::msg("decision names in-flight slot ",
                              decision->slot,
                              " (would double-release it)"));
        } else if (!jobMatches) {
            violate(util::msg("decision job ", decision->jobId,
                              " does not match slot ", decision->slot,
                              "'s record"));
        }
        if (decision->energyBoundJoules < 0.0 ||
            decision->energyBoundJoules > stored + 1e-12) {
            violate(util::msg("energy bound ",
                              decision->energyBoundJoules,
                              " J exceeds stored energy ", stored, " J"));
        }

        const core::Job &job = system.job(
            decision->jobId < system.jobCount() ? decision->jobId : 0);
        const auto adapted = policy.admit(ctx, job);
        if (!adapted.optionPerTask.empty() &&
            adapted.optionPerTask.size() != job.tasks.size()) {
            violate(util::msg("option vector size ",
                              adapted.optionPerTask.size(), " for a ",
                              job.tasks.size(), "-task job"));
        }
        for (std::size_t i = 0;
             i < adapted.optionPerTask.size() && i < job.tasks.size();
             ++i) {
            const core::Task &task = system.task(job.tasks[i]);
            if (adapted.optionPerTask[i] >= task.optionCount()) {
                violate(util::msg("option index ",
                                  adapted.optionPerTask[i], " for task ",
                                  task.name(), " (", task.optionCount(),
                                  " options)"));
            }
        }
        if (adapted.predictedServiceSeconds < 0.0) {
            violate(util::msg("negative service prediction ",
                              adapted.predictedServiceSeconds));
        }

        if (stream) {
            std::string line = util::msg(
                "job=", decision->jobId, " slot=", decision->slot,
                " es=", doubleBits(decision->expectedServiceSeconds),
                " bound=", doubleBits(decision->energyBoundJoules),
                " pred=", doubleBits(adapted.predictedServiceSeconds),
                " ibo=", adapted.iboPredicted,
                " deg=", adapted.degraded, " opts=");
            for (const std::size_t o : adapted.optionPerTask)
                line += static_cast<char>('0' + (o % 10));
            stream->push_back(std::move(line));
        }

        // Take the slot in flight only when doing so is legal; a
        // violating decision must not corrupt the walk itself.
        if (resident && schedulable) {
            buffer.markInFlight(decision->slot);
            InFlight holding;
            holding.slot = decision->slot;
            holding.jobId = decision->jobId;
            holding.dueRound = round + options.serviceRounds;
            inFlight.push_back(holding);
        }
    }
}

} // namespace

VerifyReport
verifyPolicy(core::SchedulingPolicy &policy,
             const VerifyOptions &options)
{
    VerifyReport report;
    runWalk(policy, options, &report, nullptr);
    return report;
}

std::vector<std::string>
decisionStream(core::SchedulingPolicy &policy,
               const VerifyOptions &options)
{
    std::vector<std::string> stream;
    runWalk(policy, options, nullptr, &stream);
    return stream;
}

} // namespace policy
} // namespace quetzal
