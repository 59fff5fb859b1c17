#include "support/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "queueing/input_buffer.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace queueing {

namespace {

void
checkModel(const OracleInput &input)
{
    if (input.arrivalsPerSecond <= 0.0 || input.serviceSeconds <= 0.0)
        util::panic("oracle: rates and service time must be positive");
    if (input.capacity == 0)
        util::panic("oracle: capacity must be >= 1");
}

/**
 * Stationary distribution of the departure-embedded chain on
 * {0..K-1}. aj[j] is the Poisson(rho) pmf of arrivals during one
 * service, valid for j < K (the clipped tail mass is derived from
 * the cumulative sum).
 */
std::vector<double>
embeddedStationary(const std::vector<double> &aj, std::size_t k)
{
    // Transition matrix of min-clipped Poisson jumps.
    std::vector<std::vector<double>> p(k, std::vector<double>(k, 0.0));
    for (std::size_t i = 0; i < k; ++i) {
        // From state 0 the server idles until an arrival, then that
        // arrival's service leaves min(j, K-1) behind — the same
        // jump law as from state 1.
        const std::size_t base = i == 0 ? 0 : i - 1;
        double tail = 1.0;
        for (std::size_t m = base; m + 1 < k; ++m) {
            const double prob = aj[m - base];
            p[i][m] = prob;
            tail -= prob;
        }
        p[i][k - 1] = std::max(0.0, tail);
    }

    // Solve pi P = pi, sum pi = 1: K-1 balance equations plus the
    // normalization row, by Gaussian elimination with partial
    // pivoting (K is a buffer size — tiny).
    std::vector<std::vector<double>> a(k, std::vector<double>(k + 1, 0.0));
    for (std::size_t j = 0; j + 1 < k; ++j) {
        for (std::size_t i = 0; i < k; ++i)
            a[j][i] = p[i][j] - (i == j ? 1.0 : 0.0);
        a[j][k] = 0.0;
    }
    for (std::size_t i = 0; i < k; ++i)
        a[k - 1][i] = 1.0;
    a[k - 1][k] = 1.0;

    for (std::size_t col = 0; col < k; ++col) {
        std::size_t pivot = col;
        for (std::size_t row = col + 1; row < k; ++row)
            if (std::abs(a[row][col]) > std::abs(a[pivot][col]))
                pivot = row;
        std::swap(a[col], a[pivot]);
        if (std::abs(a[col][col]) < 1e-300)
            util::panic("oracle: singular embedded-chain system");
        for (std::size_t row = 0; row < k; ++row) {
            if (row == col)
                continue;
            const double factor = a[row][col] / a[col][col];
            for (std::size_t c = col; c <= k; ++c)
                a[row][c] -= factor * a[col][c];
        }
    }

    std::vector<double> pi(k, 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
        pi[i] = std::max(0.0, a[i][k] / a[i][i]);
        total += pi[i];
    }
    for (double &v : pi)
        v /= total;
    return pi;
}

} // namespace

OraclePrediction
predictOccupancy(const OracleInput &input)
{
    checkModel(input);
    const std::size_t k = input.capacity;
    const double rho = input.arrivalsPerSecond * input.serviceSeconds;

    OraclePrediction out;
    out.utilization = rho;
    out.occupancyDistribution.assign(k + 1, 0.0);

    if (rho > 50.0) {
        // Saturated limit: exp(-rho) underflows the pmf, and the
        // embedded chain sits at K-1 with probability 1 (pi_0 -> 0
        // faster than any polynomial). Exact to double precision.
        out.blockingProbability = 1.0 - 1.0 / rho;
        out.occupancyDistribution[k - 1] = 1.0 / rho;
        out.occupancyDistribution[k] = out.blockingProbability;
        out.expectedOccupancy =
            static_cast<double>(k) - 1.0 / rho;
        out.effectiveThroughput = 1.0 / input.serviceSeconds;
        out.expectedSojournSeconds =
            out.expectedOccupancy * input.serviceSeconds;
        return out;
    }

    // Poisson(rho) pmf of arrivals during one deterministic service.
    std::vector<double> aj(k, 0.0);
    aj[0] = std::exp(-rho);
    for (std::size_t j = 1; j < k; ++j)
        aj[j] = aj[j - 1] * rho / static_cast<double>(j);

    const std::vector<double> pi = embeddedStationary(aj, k);

    // Renormalize departure-epoch probabilities into time averages:
    // a cycle holds one service (length E[S]) plus, from state 0,
    // an idle wait of mean 1/lambda, giving the pi_0 + rho divisor.
    const double divisor = pi[0] + rho;
    for (std::size_t j = 0; j < k; ++j)
        out.occupancyDistribution[j] = pi[j] / divisor;
    const double blocked = std::max(0.0, 1.0 - 1.0 / divisor);
    out.occupancyDistribution[k] = blocked;
    out.blockingProbability = blocked;

    double mean = 0.0;
    for (std::size_t j = 0; j <= k; ++j)
        mean += static_cast<double>(j) * out.occupancyDistribution[j];
    out.expectedOccupancy = mean;
    out.effectiveThroughput =
        input.arrivalsPerSecond * (1.0 - blocked);
    out.expectedSojournSeconds = mean / out.effectiveThroughput;
    return out;
}

QueueSimResult
simulateQueue(const QueueSimConfig &config)
{
    checkModel(config.model);
    if (config.horizonSeconds <= 0.0 || config.warmupSeconds < 0.0)
        util::panic("oracle: simulation span must be positive");

    const double lambda = config.model.arrivalsPerSecond;
    const double service = config.model.serviceSeconds;
    const std::size_t k = config.model.capacity;
    const double begin = config.warmupSeconds;
    const double end = config.warmupSeconds + config.horizonSeconds;
    constexpr double kNever = 1e300;

    util::Rng rng(config.seed);
    InputBuffer buffer(k);
    std::unordered_map<std::uint64_t, double> arrivalTime;

    QueueSimResult out;
    out.occupancyTimeFraction.assign(k + 1, 0.0);
    double sojournTotal = 0.0;

    double now = 0.0;
    double nextArrival = rng.exponential(1.0 / lambda);
    double nextDeparture = kNever;
    bool serverBusy = false;
    std::uint64_t servingId = 0;
    queueing::SlotId servingSlot = 0;
    std::uint64_t nextId = 1;

    const auto beginService = [&]() {
        if (serverBusy)
            return;
        const auto slot = config.discipline == QueueDiscipline::Lcfs
            ? buffer.newestSchedulable()
            : buffer.oldestSchedulable();
        if (!slot)
            return;
        servingSlot = *slot;
        servingId = buffer.markInFlight(servingSlot).id;
        serverBusy = true;
        nextDeparture = now + service;
    };

    while (now < end) {
        const double eventTime = std::min(nextArrival, nextDeparture);
        const double stepEnd = std::min(eventTime, end);

        // Time-weighted statistics over the measured overlap.
        const double lo = std::max(now, begin);
        const double hi = std::min(stepEnd, end);
        if (hi > lo)
            out.occupancyTimeFraction[buffer.size()] += hi - lo;

        now = stepEnd;
        if (eventTime > end)
            break;

        if (nextDeparture <= nextArrival) {
            // Departure first: a simultaneous arrival sees the slot.
            buffer.releaseSlot(servingSlot);
            serverBusy = false;
            nextDeparture = kNever;
            if (now >= begin) {
                ++out.served;
                sojournTotal += now - arrivalTime.at(servingId);
            }
            arrivalTime.erase(servingId);
            beginService();
        } else {
            if (now >= begin)
                ++out.arrivals;
            InputRecord record;
            record.id = nextId++;
            // The buffer requires rising ids and capture ticks that
            // never fall; the id doubles as the capture tick.
            record.captureTick = static_cast<Tick>(record.id);
            record.enqueueTick = record.captureTick;
            record.jobId = 0;
            if (buffer.tryPush(record)) {
                arrivalTime[record.id] = now;
                beginService();
            } else if (now >= begin) {
                ++out.drops;
            }
            nextArrival = now + rng.exponential(1.0 / lambda);
        }
    }

    for (double &share : out.occupancyTimeFraction)
        share /= config.horizonSeconds;
    double mean = 0.0;
    for (std::size_t j = 0; j <= k; ++j)
        mean += static_cast<double>(j) * out.occupancyTimeFraction[j];
    out.meanOccupancy = mean;
    out.dropFraction = out.arrivals == 0
        ? 0.0
        : static_cast<double>(out.drops) /
            static_cast<double>(out.arrivals);
    out.meanSojournSeconds = out.served == 0
        ? 0.0
        : sojournTotal / static_cast<double>(out.served);
    return out;
}

} // namespace queueing
} // namespace quetzal
