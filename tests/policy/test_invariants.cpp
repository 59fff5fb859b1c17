/**
 * @file
 * Policy-invariant property suite. Two halves:
 *
 *  1. Every row of the controller table — the paper's Quetzal
 *     variants and baselines as well as the registered zoo —
 *     survives the verify.hpp walk with zero violations and produces
 *     bit-identical decision streams from fresh instances (decisions
 *     are a pure function of observable state).
 *  2. The harness itself is demonstrated sharp: deliberately broken
 *     policies — scheduling an in-flight slot, overclaiming the
 *     energy bound, mismatching the slot's job, malformed option
 *     vectors, negative predictions, hidden mutable state — are each
 *     flagged with the expected violation class.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "policy/registry.hpp"
#include "policy/zoo.hpp"
#include "support/verify.hpp"

namespace quetzal {
namespace policy {
namespace {

std::string
joined(const std::vector<std::string> &violations)
{
    std::string out;
    for (const std::string &v : violations)
        out += v + "\n";
    return out;
}

/** The walk's threshold rows switch inside its 5-50 mW harvest:
 *  ZGO at 35 mW (datasheet 100 mW), ZGI at 21 mW (trace max 60 mW). */
const energy::PowerTrace kWalkTrace = energy::PowerTrace::constant(60e-3);

std::unique_ptr<core::SchedulingPolicy>
rowPolicy(const ControllerRow &row)
{
    PolicyOptions options;
    options.datasheetMaxPower = 100e-3;
    options.powerTrace = &kWalkTrace;
    return row.makePolicy(options);
}

bool
anyContains(const std::vector<std::string> &violations,
            const std::string &needle)
{
    for (const std::string &v : violations) {
        if (v.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

TEST(PolicyInvariants, EveryTableRowPassesTheWalk)
{
    for (const ControllerRow &row : controllerRows()) {
        SCOPED_TRACE(row.label);
        const auto policy = rowPolicy(row);
        const VerifyReport report = verifyPolicy(*policy);
        EXPECT_TRUE(report.ok()) << joined(report.violations);
        // A walk that never exercised the policy proves nothing.
        EXPECT_GT(report.decisions, 50u);
    }
}

TEST(PolicyInvariants, EveryTableRowPassesAlternateWalks)
{
    VerifyOptions options;
    options.seed = 99;
    options.rounds = 200;
    options.bufferCapacity = 3;  // tighter buffer, more overflows
    options.serviceRounds = 4;   // longer in-flight windows
    for (const ControllerRow &row : controllerRows()) {
        SCOPED_TRACE(row.label);
        const auto policy = rowPolicy(row);
        const VerifyReport report = verifyPolicy(*policy, options);
        EXPECT_TRUE(report.ok()) << joined(report.violations);
    }
}

TEST(PolicyInvariants, DecisionsArePureFunctionsOfObservableState)
{
    for (const ControllerRow &row : controllerRows()) {
        SCOPED_TRACE(row.label);
        // Two fresh instances replay the identical walk: any hidden
        // state not derived from observations diverges the streams.
        const auto first = rowPolicy(row);
        const auto second = rowPolicy(row);
        const std::vector<std::string> a = decisionStream(*first);
        const std::vector<std::string> b = decisionStream(*second);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b);
    }
}

TEST(PolicyInvariants, DecisionStreamsRespondToTheSeed)
{
    // Sanity check on the harness: different walks must actually
    // differ, or the purity test above would be vacuous.
    VerifyOptions other;
    other.seed = 2;
    const auto a = makePolicy("sjf-ibo");
    const auto b = makePolicy("sjf-ibo");
    EXPECT_NE(decisionStream(*a), decisionStream(*b, other));
}

// --- Deliberately broken policies: the harness must flag each. -----

/** Schedules the FIFO head even while it is in flight. */
class DoubleReleasePolicy : public core::SchedulingPolicy
{
  public:
    std::string name() const override { return "broken-in-flight"; }

    std::optional<core::SchedulerDecision>
    rank(const core::PolicyContext &ctx) override
    {
        std::optional<core::SchedulerDecision> decision;
        ctx.buffer.forEachFifo([&](queueing::SlotId slot,
                                   const queueing::InputRecord &rec) {
            if (decision)
                return;
            core::SchedulerDecision d;
            d.jobId = rec.jobId;
            d.slot = slot;
            decision = d;
        });
        return decision;
    }

    core::AdaptationDecision
    admit(const core::PolicyContext &, const core::Job &) override
    {
        return {};
    }
};

/** Declares an energy bound above the observed stored energy. */
class OverclaimPolicy : public GreedyFcfsPolicy
{
  public:
    std::string name() const override { return "broken-overclaim"; }

    std::optional<core::SchedulerDecision>
    rank(const core::PolicyContext &ctx) override
    {
        auto decision = GreedyFcfsPolicy::rank(ctx);
        if (decision)
            decision->energyBoundJoules =
                ctx.runtime.storedEnergy * 2.0 + 1.0;
        return decision;
    }
};

/** Names a job other than the one in the chosen slot's record. */
class WrongJobPolicy : public GreedyFcfsPolicy
{
  public:
    std::string name() const override { return "broken-wrong-job"; }

    std::optional<core::SchedulerDecision>
    rank(const core::PolicyContext &ctx) override
    {
        auto decision = GreedyFcfsPolicy::rank(ctx);
        if (decision)
            decision->jobId =
                (decision->jobId + 1) % ctx.system.jobCount();
        return decision;
    }
};

/** Admits with an out-of-range degradation option index. */
class BadOptionPolicy : public GreedyFcfsPolicy
{
  public:
    std::string name() const override { return "broken-option"; }

    core::AdaptationDecision
    admit(const core::PolicyContext &, const core::Job &job) override
    {
        core::AdaptationDecision decision;
        decision.optionPerTask.assign(job.tasks.size(), 99);
        return decision;
    }
};

/** Predicts a negative service time. */
class NegativePredictionPolicy : public GreedyFcfsPolicy
{
  public:
    std::string name() const override { return "broken-negative"; }

    core::AdaptationDecision
    admit(const core::PolicyContext &, const core::Job &) override
    {
        core::AdaptationDecision decision;
        decision.predictedServiceSeconds = -1.0;
        return decision;
    }
};

/** Decisions depend on a process-global counter, not observations. */
class HiddenStatePolicy : public GreedyFcfsPolicy
{
  public:
    std::string name() const override { return "broken-hidden"; }

    std::optional<core::SchedulerDecision>
    rank(const core::PolicyContext &ctx) override
    {
        // Modulus chosen not to divide the walk length, so the
        // counter's phase differs between two consecutive walks.
        if (++counter() % 7 == 0)
            return std::nullopt;
        return GreedyFcfsPolicy::rank(ctx);
    }

  private:
    static int &counter()
    {
        static int value = 0;
        return value;
    }
};

TEST(PolicyInvariants, HarnessFlagsInFlightScheduling)
{
    DoubleReleasePolicy broken;
    const VerifyReport report = verifyPolicy(broken);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(anyContains(report.violations, "in-flight slot"))
        << joined(report.violations);
}

TEST(PolicyInvariants, HarnessFlagsEnergyBoundOverclaim)
{
    OverclaimPolicy broken;
    const VerifyReport report = verifyPolicy(broken);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(anyContains(report.violations, "energy bound"))
        << joined(report.violations);
}

TEST(PolicyInvariants, HarnessFlagsJobSlotMismatch)
{
    WrongJobPolicy broken;
    const VerifyReport report = verifyPolicy(broken);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(anyContains(report.violations, "does not match"))
        << joined(report.violations);
}

TEST(PolicyInvariants, HarnessFlagsOutOfRangeOptions)
{
    BadOptionPolicy broken;
    const VerifyReport report = verifyPolicy(broken);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(anyContains(report.violations, "option index"))
        << joined(report.violations);
}

TEST(PolicyInvariants, HarnessFlagsNegativePredictions)
{
    NegativePredictionPolicy broken;
    const VerifyReport report = verifyPolicy(broken);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(
        anyContains(report.violations, "negative service prediction"))
        << joined(report.violations);
}

TEST(PolicyInvariants, PurityCheckCatchesHiddenState)
{
    // The counter is shared across instances, so the second stream
    // starts from a different parity than the first: exactly the
    // divergence the registered-policy purity test would report.
    HiddenStatePolicy first;
    HiddenStatePolicy second;
    EXPECT_NE(decisionStream(first), decisionStream(second));
}

} // namespace
} // namespace policy
} // namespace quetzal
