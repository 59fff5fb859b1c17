/**
 * @file
 * ApplicationModel: everything the simulator needs to run one of the
 * example applications on top of a core::TaskSystem — the registered
 * task/job ids, the capture-side cost models, and the accuracy
 * characterization used to resolve classification outcomes against
 * ground truth (the paper's I/O-pin methodology, section 6.2).
 */

#ifndef QUETZAL_APP_APPLICATION_HPP
#define QUETZAL_APP_APPLICATION_HPP

#include <cstddef>
#include <vector>

#include "app/camera.hpp"
#include "app/compression.hpp"
#include "app/ml_model.hpp"
#include "core/job.hpp"
#include "core/task.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace app {

/** A built application bound to a TaskSystem. */
struct ApplicationModel
{
    /** @name Registered ids */
    /// @{
    core::TaskId inferenceTask = 0; ///< degradable classify task
    core::TaskId radioTask = 0;     ///< degradable transmit task
    queueing::JobId classifyJob = 0;
    queueing::JobId transmitJob = 0;
    /// @}

    /**
     * @name Cached task positions
     * Position of the inference/radio task within its job's task
     * list, resolved once at build time so per-completion code never
     * scans the task list.
     */
    /// @{
    std::size_t inferenceTaskPos = 0;
    std::size_t radioTaskPos = 0;

    /** Resolve the cached positions against the registered jobs;
     *  panics naming a task its job does not list. */
    void
    resolveTaskPositions(const core::Job &classify,
                         const core::Job &transmit)
    {
        inferenceTaskPos = positionIn(classify, inferenceTask);
        radioTaskPos = positionIn(transmit, radioTask);
    }
    /// @}

    /**
     * Accuracy characterization, parallel to the inference task's
     * quality-ordered options.
     */
    std::vector<MlModel> inferenceModels;

    /** Capture-side cost models (charged per frame, section 6.4). */
    CameraModel camera;
    CompressionModel compression;

    /** Bytes of one buffered (compressed) input. */
    std::size_t storedInputBytes = 0;

    /**
     * Resolve a classification outcome: draws against the option's
     * false-negative rate for interesting inputs and false-positive
     * rate for uninteresting ones.
     * @return true when the input is classified positive (will be
     *         passed to the transmit job)
     */
    bool
    classifyPositive(util::Rng &rng, std::size_t inferenceOption,
                     bool interesting) const
    {
        const MlModel &model = inferenceModels.at(inferenceOption);
        if (interesting)
            return !rng.bernoulli(model.falseNegativeRate);
        return rng.bernoulli(model.falsePositiveRate);
    }

  private:
    static std::size_t
    positionIn(const core::Job &job, core::TaskId task)
    {
        for (std::size_t i = 0; i < job.tasks.size(); ++i) {
            if (job.tasks[i] == task)
                return i;
        }
        util::panic(util::msg("job '", job.name, "' does not run task ",
                              task));
    }
};

} // namespace app
} // namespace quetzal

#endif // QUETZAL_APP_APPLICATION_HPP
