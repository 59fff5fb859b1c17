/**
 * @file
 * Quickstart: the Quetzal public API on a hand-rolled system, no
 * simulator — exactly what a firmware integrator would write.
 *
 *  1. Register tasks with quality-ordered degradation options (they
 *     are profiled through the measurement circuit automatically).
 *  2. Group tasks into jobs; one degradable task per job.
 *  3. Each scheduling round: hand the controller the input buffer
 *     and the measured input power; run the job it returns at the
 *     options it picked; report completion.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "policy/registry.hpp"

int
main()
{
    using namespace quetzal;

    // --- 1. Describe the application ---------------------------------
    core::TaskSystem system;
    const core::TaskId detect = system.addTask(
        "detect", {{"cnn-large", 600, 18e-3},   // 600 ms @ 18 mW
                   {"cnn-small", 90, 12e-3}});  //  90 ms @ 12 mW
    const core::TaskId report = system.addTask(
        "report", {{"full-payload", 700, 120e-3},
                   {"summary-byte", 45, 120e-3}});
    const queueing::JobId reportJob = system.addJob("report",
                                                    {report});
    const queueing::JobId detectJob =
        system.addJob("detect", {detect}, reportJob);

    // --- 2. Instantiate Quetzal --------------------------------------
    auto quetzal = policy::makeController(policy::ControllerKind::Quetzal);
    queueing::InputBuffer buffer(10);

    // --- 3. Feed it a synthetic burst at falling input power ---------
    std::printf("%-6s %-8s %-10s %-14s %-9s %s\n", "step", "P_in",
                "job", "options", "E[S](s)", "IBO?");
    std::uint64_t nextId = 1;
    Tick now = 0;
    const Watts powers[] = {60e-3, 40e-3, 20e-3, 8e-3, 3e-3, 3e-3,
                            3e-3, 12e-3, 30e-3, 60e-3};
    for (int step = 0; step < 10; ++step) {
        // One capture per second enters the queue during the burst.
        system.recordCapture(true);
        queueing::InputRecord input;
        input.id = nextId++;
        input.captureTick = now;
        input.enqueueTick = now;
        input.jobId = detectJob;
        buffer.tryPush(input);

        const auto selection =
            quetzal->selectJob(system, buffer, powers[step]);
        if (!selection) {
            std::printf("%-6d (nothing queued)\n", step);
            continue;
        }
        const core::Job &job = system.job(selection->jobId);

        std::string options;
        for (std::size_t i = 0; i < job.tasks.size(); ++i) {
            const auto &task = system.task(job.tasks[i]);
            options += task.option(selection->optionPerTask[i]).name;
        }
        std::printf("%-6d %-8.0f %-10s %-14s %-9.2f %s\n", step,
                    powers[step] * 1e3, job.name.c_str(),
                    options.c_str(),
                    selection->predictedServiceSeconds,
                    selection->iboPredicted ? "yes -> adapt" : "no");

        // Pretend the job ran: consume the input, spawn the report
        // stage for every detection, close the loop.
        buffer.markInFlight(selection->slot);
        if (job.id == detectJob) {
            buffer.retagSlot(selection->slot, reportJob, now);
            system.recordSpawn();
        } else {
            buffer.releaseSlot(selection->slot);
        }
        quetzal->onJobComplete(
            system, *selection,
            core::ExecutedVec(job.tasks.size(), true),
            selection->predictedServiceSeconds);
        now += kTicksPerSecond;
    }

    std::printf("\nAs input power falls, the scheduler's E[S] grows "
                "and the IBO engine degrades the\nreport payload "
                "first, then the detector — and recovers when power "
                "returns.\n");
    std::printf("degraded jobs: %llu of %llu, IBO predictions: %llu\n",
                static_cast<unsigned long long>(
                    quetzal->stats().degradedJobs),
                static_cast<unsigned long long>(
                    quetzal->stats().jobsCompleted),
                static_cast<unsigned long long>(
                    quetzal->stats().iboPredictions));
    return 0;
}
