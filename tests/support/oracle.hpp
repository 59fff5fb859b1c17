/**
 * @file
 * Closed-form M/D/1/K queueing oracle for the input buffer.
 *
 * The paper's runtime *predicts* overflows one job ahead with
 * Little's Law (littles_law.hpp); this module predicts the
 * *steady-state* behavior of the whole capture pipeline from first
 * principles, so tests have an analytical ground truth to check
 * the simulator against.
 *
 * Model: Poisson arrivals at rate lambda (captured frames surviving
 * the diff filter), deterministic service time E[S] (classification
 * of one input), and K total slots — the input buffer, whose
 * in-flight record still occupies its slot (input_buffer.hpp), so K
 * counts the job in service.
 *
 * Derivation (DESIGN.md section 12.4): with a_j the Poisson pmf of
 * arrivals during one service, the queue length embedded at
 * departure epochs is a Markov chain on {0..K-1}:
 *
 *     from 0:     next = min(j, K-1)        (idle, wait for arrival)
 *     from i>=1:  next = min(i-1+j, K-1)
 *
 * Solving pi P = pi and renormalizing over the idle periods gives
 * the time-average occupancy distribution
 *
 *     p_j = pi_j / (pi_0 + rho)  for j < K,
 *     p_K = 1 - 1/(pi_0 + rho)   (PASTA: also the drop probability),
 *
 * from which L = sum j p_j and, via Little's Law, the mean sojourn
 * W = L / (lambda (1 - p_K)).
 *
 * Because the queue-length process is oblivious to which waiting
 * input a free server picks, the same prediction holds for FCFS and
 * LCFS service orders — a property the conformance tests pin.
 *
 * simulateQueue() is the oracle's adversary: a seeded event-driven
 * mini-simulation of the same M/D/1/K system over the *real*
 * InputBuffer, used by tests to cross-check both this algebra and
 * the buffer's accounting.
 */

#ifndef QUETZAL_TESTS_SUPPORT_ORACLE_HPP
#define QUETZAL_TESTS_SUPPORT_ORACLE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace quetzal {
namespace queueing {

/** The three parameters of the M/D/1/K model. */
struct OracleInput
{
    double arrivalsPerSecond = 1.0; ///< lambda > 0
    double serviceSeconds = 1.0;    ///< deterministic E[S] > 0
    std::size_t capacity = 10;      ///< K >= 1, in-service slot included
};

/** Steady-state prediction for one OracleInput. */
struct OraclePrediction
{
    double utilization = 0.0;         ///< rho = lambda * E[S]
    /** P(an arrival finds the buffer full) = expected IBO fraction. */
    double blockingProbability = 0.0;
    double expectedOccupancy = 0.0;   ///< L, time-average slots held
    /** Accepted arrivals per second: lambda * (1 - P_block). */
    double effectiveThroughput = 0.0;
    /** Mean sojourn (arrival to departure) of accepted inputs, s. */
    double expectedSojournSeconds = 0.0;
    /** Time-average P(occupancy == j), j = 0..K (size K+1). */
    std::vector<double> occupancyDistribution;
};

/**
 * Solve the M/D/1/K model exactly.
 *
 * Inputs must be positive (capacity >= 1); panics otherwise. For
 * rho > 50 the Poisson pmf underflows doubles and the saturated
 * limit (pi_0 -> 0) is returned instead; it is exact to double
 * precision there.
 */
OraclePrediction predictOccupancy(const OracleInput &input);

/** Service order for the mini queue simulation. */
enum class QueueDiscipline { Fcfs, Lcfs };

/** One seeded M/D/1/K simulation run over a real InputBuffer. */
struct QueueSimConfig
{
    OracleInput model;
    QueueDiscipline discipline = QueueDiscipline::Fcfs;
    std::uint64_t seed = 1;
    /** Simulated span measured *after* the warm-up. */
    double horizonSeconds = 10000.0;
    /** Initial transient excluded from every statistic. */
    double warmupSeconds = 0.0;
};

/** Measured statistics of one simulateQueue() run. */
struct QueueSimResult
{
    std::uint64_t arrivals = 0; ///< post-warm-up arrivals
    std::uint64_t drops = 0;    ///< arrivals rejected by tryPush
    std::uint64_t served = 0;   ///< post-warm-up departures
    double meanOccupancy = 0.0; ///< time average of buffer size
    double dropFraction = 0.0;  ///< drops / arrivals (0 when none)
    /** Mean arrival-to-departure time of post-warm-up departures. */
    double meanSojournSeconds = 0.0;
    /** Fraction of time at each occupancy 0..K (size K+1). */
    std::vector<double> occupancyTimeFraction;
};

/**
 * Event-driven M/D/1/K run over queueing::InputBuffer. Deterministic
 * for a given config (seeded inter-arrival draws are the only
 * randomness). Panics on non-positive rates, spans, or capacity.
 */
QueueSimResult simulateQueue(const QueueSimConfig &config);

} // namespace queueing
} // namespace quetzal

#endif // QUETZAL_TESTS_SUPPORT_ORACLE_HPP
