/**
 * @file
 * The job model (paper sections 3.1 and 5.2).
 *
 * A *job* is a programmer-defined sequence of tasks that processes
 * one buffered input. The paper requires each job to contain at most
 * one degradable task, which is responsible for preventing IBOs for
 * the whole job. A job may *spawn* another job by re-inserting its
 * input into the input buffer tagged for the successor (e.g. the
 * inference job spawns the transmission job for positively classified
 * images).
 */

#ifndef QUETZAL_CORE_JOB_HPP
#define QUETZAL_CORE_JOB_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "queueing/input_buffer.hpp"

namespace quetzal {
namespace core {

using queueing::JobId;

/** A registered job. */
struct Job
{
    JobId id = 0;
    std::string name;
    /** Ordered task sequence. */
    std::vector<TaskId> tasks;
    /**
     * Index (into `tasks`) of the degradable task, if any. Populated
     * at registration; at most one per job (paper section 5.2).
     */
    std::optional<std::size_t> degradableIndex;
    /**
     * Successor job the input is re-inserted for when this job's
     * outcome is positive (application-defined), if any.
     */
    std::optional<JobId> onPositive;
};

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_JOB_HPP
