/**
 * @file
 * The policy-invariant verification harness.
 *
 * Drives any core::SchedulingPolicy through a deterministic,
 * seeded workload walk (arrivals, energy levels, harvest power,
 * in-flight executions, spawns, overflows) and checks the contract
 * every registered policy must honor:
 *
 *  - a returned decision names a resident, schedulable buffer slot
 *    whose record matches the decision's job (scheduling an
 *    in-flight slot would make the simulator release it twice),
 *  - a declared energy bound never exceeds the stored energy the
 *    policy observed,
 *  - admission returns a well-formed option vector (empty or one
 *    entry per task, every index in range) and a non-negative
 *    service prediction.
 *
 * decisionStream() exposes the same walk as a bit-exact fingerprint
 * sequence, which is how the test suite checks that decisions are a
 * pure function of observable state (two fresh instances of the same
 * policy produce identical streams for the same seed).
 */

#ifndef QUETZAL_TESTS_SUPPORT_VERIFY_HPP
#define QUETZAL_TESTS_SUPPORT_VERIFY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheduler.hpp"

namespace quetzal {
namespace policy {

/** Walk parameters (defaults give a few hundred decisions). */
struct VerifyOptions
{
    std::uint64_t seed = 1;
    std::size_t rounds = 300;
    std::size_t bufferCapacity = 6;
    /** Rounds a scheduled input stays in flight before completing. */
    std::size_t serviceRounds = 2;
};

/** Outcome of one verification walk. */
struct VerifyReport
{
    /** Human-readable violation descriptions (empty when clean). */
    std::vector<std::string> violations;
    /** Decisions the policy produced over the walk. */
    std::size_t decisions = 0;

    bool ok() const { return violations.empty(); }
};

/** Run the invariant walk against a policy. */
VerifyReport verifyPolicy(core::SchedulingPolicy &policy,
                          const VerifyOptions &options = {});

/**
 * The walk's decision fingerprints (one string per round, bit-exact
 * doubles), for purity/determinism comparisons.
 */
std::vector<std::string> decisionStream(core::SchedulingPolicy &policy,
                                        const VerifyOptions &options = {});

} // namespace policy
} // namespace quetzal

#endif // QUETZAL_TESTS_SUPPORT_VERIFY_HPP
