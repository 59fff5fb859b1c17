/**
 * @file
 * Mutated QZCK restore: every checkpointed component refuses damaged
 * bytes without crashing, and a Simulator resume dies naming the
 * section it could not restore.
 *
 *  - The TaskSystem, Controller and FaultInjector blobs and the
 *    policy/estimator hook blobs, each cut at every byte offset, are
 *    refused; the uncut blob restores. Components without nested
 *    hooks are left untouched by a refused load.
 *  - A TaskSystem blob re-encoded with a tracker cursor or fill level
 *    outside its configured window, or with a word count that differs
 *    from it, is refused: restored, it would index past the tracker's
 *    storage on the next recorded capture.
 *  - An IBO policy blob with more option settings than tasks, or an
 *    option index its task does not have, is refused under a named
 *    section.
 *  - A Simulator resume from a truncated, over-long, mismatched or
 *    out-of-range blob exits with the named diagnostic, also when its
 *    buffer records repeat an id or lie ahead of the next input id,
 *    or its IBO engine holds an option index out of range.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "../core/core_test_fixtures.hpp"
#include "core/runtime.hpp"
#include "fault/fault_injector.hpp"
#include "policy/registry.hpp"
#include "queueing/input_buffer.hpp"
#include "sim/device.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "util/random.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace sim {
namespace {

using core::testing_fixtures::makeSmallSystem;
using core::testing_fixtures::pushInput;
using Walk = std::function<void(util::wire::Archive &)>;

std::string
saved(const Walk &walk)
{
    std::string out;
    util::wire::Archive ar(out);
    walk(ar);
    return out;
}

bool
loads(const std::string &bytes, const Walk &walk)
{
    util::wire::Archive ar{util::wire::Reader(bytes)};
    walk(ar);
    return ar.loaded();
}

/**
 * Cut `blob` at every offset and load each prefix into a fresh
 * object (`fresh` builds one and returns its walk). Every prefix must
 * be refused and the whole blob must load. With `untouched`, a
 * refused load must also leave the object's saved bytes as they were.
 */
void
expectEveryCutRefused(const std::string &blob,
                      const std::function<Walk()> &fresh,
                      bool untouched = true)
{
    ASSERT_FALSE(blob.empty());
    for (std::size_t cut = 0; cut < blob.size(); ++cut) {
        const Walk walk = fresh();
        const std::string before = saved(walk);
        EXPECT_FALSE(loads(blob.substr(0, cut), walk)) << "cut " << cut;
        if (untouched) {
            EXPECT_EQ(saved(walk), before) << "cut " << cut;
        }
    }
    const Walk walk = fresh();
    EXPECT_TRUE(loads(blob, walk));
    EXPECT_EQ(saved(walk), blob);
}

// --- TaskSystem --------------------------------------------------------

core::SystemConfig
eightPeriodConfig()
{
    core::SystemConfig config;
    config.arrivalWindow = 8;
    return config;
}

/** A small system with arrival and execution history. */
core::testing_fixtures::SmallSystem
busySystem()
{
    auto s = makeSmallSystem(eightPeriodConfig());
    for (int i = 0; i < 12; ++i)
        s.system->recordCapture(i % 3 != 0);
    const core::Job &classify = s.system->job(s.classifyJob);
    for (int i = 0; i < 5; ++i)
        s.system->recordJobCompletion(classify, {i % 2 == 0});
    return s;
}

/**
 * TaskSystem's blob decoded into the public state walks, so a test
 * can re-encode it with one field changed. Load pre-sizes every
 * snapshot to the fixture's windows.
 */
struct SystemImage
{
    hw::PowerMonitorCircuit::State circuit;
    queueing::ArrivalRateTracker::State arrivals;
    std::vector<queueing::BitVectorWindow::State> windows;

    explicit SystemImage(const std::string &blob)
    {
        arrivals.counts.resize(eightPeriodConfig().arrivalWindow);
        windows.resize(2);
        for (queueing::BitVectorWindow::State &window : windows) {
            window.windowBits = eightPeriodConfig().taskWindow;
            window.words.resize(1);
        }
        EXPECT_TRUE(loads(blob, [this](util::wire::Archive &ar) {
            walk(ar);
        }));
    }

    void
    walk(util::wire::Archive &ar)
    {
        circuit.walk(ar);
        arrivals.walk(ar);
        ar.check(ar.count(windows.size()) == windows.size());
        for (queueing::BitVectorWindow::State &window : windows)
            window.walk(ar);
    }

    std::string
    bytes()
    {
        return saved([this](util::wire::Archive &ar) { walk(ar); });
    }
};

Walk
freshSystemWalk()
{
    auto s = std::make_shared<core::testing_fixtures::SmallSystem>(
        makeSmallSystem(eightPeriodConfig()));
    return [s](util::wire::Archive &ar) { s->system->checkpoint(ar); };
}

std::string
busySystemBlob()
{
    auto s = busySystem();
    return saved([&s](util::wire::Archive &ar) { s.system->checkpoint(ar); });
}

TEST(CheckpointRestore, TaskSystemRefusesEveryTruncation)
{
    expectEveryCutRefused(busySystemBlob(), freshSystemWalk);
}

TEST(CheckpointRestore, TaskSystemImageRoundTrips)
{
    // The re-encoder below is only as good as its layout.
    const std::string blob = busySystemBlob();
    EXPECT_EQ(SystemImage(blob).bytes(), blob);
}

TEST(CheckpointRestore, TaskSystemRefusesTrackerStateOutsideItsWindow)
{
    const std::string blob = busySystemBlob();
    const std::vector<std::function<void(SystemImage &)>> mutations = {
        // The fill level that crashed recordInsertion().
        [](SystemImage &image) { image.arrivals.filledPeriods = 100000; },
        [](SystemImage &image) { image.arrivals.cursor = 8; },
        [](SystemImage &image) { image.windows[0].cursor = 64; },
        [](SystemImage &image) { image.windows[1].filledBits = 65; },
        // A window of a different size: one word too many, or none.
        [](SystemImage &image) { image.windows[0].words.push_back(0); },
        [](SystemImage &image) { image.windows[1].words.clear(); },
    };
    for (std::size_t i = 0; i < mutations.size(); ++i) {
        SystemImage image(blob);
        mutations[i](image);
        const std::string mutated = image.bytes();
        ASSERT_NE(mutated, blob) << "mutation " << i;
        const Walk walk = freshSystemWalk();
        const std::string before = saved(walk);
        EXPECT_FALSE(loads(mutated, walk)) << "mutation " << i;
        EXPECT_EQ(saved(walk), before) << "mutation " << i;
    }
}

// --- Controller and its hooks ------------------------------------------

/** The rows whose controllers hold state in every hook: the IBO
 *  engine's options, the Avg. S_e2e history, zygarde's pressure. */
std::vector<const policy::ControllerRow *>
statefulRows()
{
    return {&policy::policyRow("sjf-ibo"),
            &policy::controllerRow(policy::ControllerKind::QuetzalAvgSe2e),
            &policy::policyRow("zygarde")};
}

/** A controller of `row` after a few decisions, completions and
 *  drops, so its counters, PID loop and hooks all hold state. */
std::unique_ptr<core::Controller>
busyController(const policy::ControllerRow &row)
{
    auto s = makeSmallSystem();
    auto controller = policy::makeController(row);
    queueing::InputBuffer buffer(4);
    for (std::uint64_t id = 0; id < 4; ++id)
        pushInput(buffer, s, id, 0, s.classifyJob);
    queueing::InputRecord dropped;
    dropped.id = 9;
    dropped.jobId = s.classifyJob;
    controller->onInputDropped(*s.system, buffer, dropped, 0);
    for (int round = 0; round < 3; ++round) {
        const auto selection =
            controller->selectJob(*s.system, buffer, 20e-3);
        if (!selection)
            break;
        controller->onTaskComplete(*s.system, s.mlTask, 0, 1.5);
        controller->onJobComplete(*s.system, *selection, {true}, 1.5);
    }
    return controller;
}

/** The configuration every controller blob below is checked against:
 *  busyController's task set. */
const core::TaskSystem &
smallSystem()
{
    static const auto s = makeSmallSystem();
    return *s.system;
}

/** Walk of a freshly built controller (or one of its hooks). */
std::function<Walk()>
freshController(const policy::ControllerRow &row,
                void (*walkOf)(core::Controller &, util::wire::Archive &))
{
    return [&row, walkOf] {
        std::shared_ptr<core::Controller> controller =
            policy::makeController(row);
        return Walk([controller, walkOf](util::wire::Archive &ar) {
            walkOf(*controller, ar);
        });
    };
}

void
wholeController(core::Controller &controller, util::wire::Archive &ar)
{
    controller.checkpoint(smallSystem(), ar);
}

void
policyHook(core::Controller &controller, util::wire::Archive &ar)
{
    controller.policy().state(smallSystem(), ar);
}

void
estimatorHook(core::Controller &controller, util::wire::Archive &ar)
{
    controller.estimator().state(ar);
}

TEST(CheckpointRestore, ControllerRefusesEveryTruncation)
{
    for (const policy::ControllerRow *row : statefulRows()) {
        SCOPED_TRACE(row->label);
        auto controller = busyController(*row);
        const std::string blob = saved([&](util::wire::Archive &ar) {
            wholeController(*controller, ar);
        });
        // A cut inside the policy blob can follow a complete estimator
        // blob, which the estimator hook has then already applied.
        expectEveryCutRefused(blob, freshController(*row, wholeController),
                              false);
    }
}

TEST(CheckpointRestore, HooksRefuseEveryTruncation)
{
    for (const policy::ControllerRow *row : statefulRows()) {
        SCOPED_TRACE(row->label);
        auto controller = busyController(*row);
        const std::string policyBlob = saved([&](util::wire::Archive &ar) {
            policyHook(*controller, ar);
        });
        const std::string estimatorBlob =
            saved([&](util::wire::Archive &ar) {
                estimatorHook(*controller, ar);
            });
        EXPECT_FALSE(policyBlob.empty() && estimatorBlob.empty());
        if (!policyBlob.empty())
            expectEveryCutRefused(policyBlob,
                                  freshController(*row, policyHook));
        if (!estimatorBlob.empty())
            expectEveryCutRefused(estimatorBlob,
                                  freshController(*row, estimatorHook));
    }
}

/** The section a load of `bytes` through `walk` fails under, or "". */
std::string
refusal(const std::string &bytes, const Walk &walk)
{
    util::wire::Archive ar{util::wire::Reader(bytes)};
    walk(ar);
    return ar.loaded() ? "" : ar.failure();
}

TEST(CheckpointRestore, IboOptionsMustFitTheTaskSystem)
{
    // The IBO engine's blob: a count, then one option index per task.
    // The small system has two tasks of two options each.
    const auto sjfIbo = freshController(policy::policyRow("sjf-ibo"),
                                        policyHook);
    EXPECT_EQ(refusal(std::string("\x02\x00\x01", 3), sjfIbo()), "");
    EXPECT_EQ(refusal(std::string("\x02\x00\x09", 3), sjfIbo()),
              "IBO option index out of range");
    EXPECT_EQ(refusal(std::string("\x02\x02\x00", 3), sjfIbo()),
              "IBO option index out of range");
    EXPECT_EQ(refusal(std::string("\x03\x00\x00\x00", 4), sjfIbo()),
              "IBO option count exceeds task count");

    // Through the whole controller, the failure keeps the hook's
    // section: the policy blob is the controller blob's last field,
    // behind its one-byte length prefix.
    const Walk controller =
        freshController(policy::policyRow("sjf-ibo"), wholeController)();
    std::string blob = saved(controller);
    ASSERT_EQ(blob.substr(blob.size() - 2), std::string("\x01\x00", 2));
    blob.replace(blob.size() - 2, 2, std::string("\x03\x02\x00\x09", 4));
    EXPECT_EQ(refusal(blob, controller), "IBO option index out of range");
}

// --- FaultInjector -----------------------------------------------------

constexpr Tick kHour = 3600 * kTicksPerSecond;

fault::FaultSpec
noisySpec()
{
    fault::FaultSpec spec;
    spec.measurement.noiseSigma = 0.1;
    spec.powerTrace.dropoutsPerHour = 6.0;
    spec.powerTrace.dropoutSeconds = 20.0;
    spec.arrivals.burstsPerHour = 5.0;
    spec.arrivals.burstSeconds = 15.0;
    spec.arrivals.captureJitterMs = 50;
    spec.execution.overrunProbability = 0.3;
    spec.execution.overrunFactor = 1.5;
    return spec;
}

TEST(CheckpointRestore, FaultInjectorRefusesEveryTruncation)
{
    fault::FaultInjector busy(noisySpec(), 7);
    busy.prepare(kHour);
    for (Tick t = 0; t < kHour; t += 60 * kTicksPerSecond) {
        busy.onTick(t);
        (void)busy.perturbMeasuredPower(0.01);
        (void)busy.captureJitter();
        (void)busy.perturbExecutionTicks(1000);
        busy.observePrediction(1.0, 4.0, 0.0);
    }
    const std::string blob =
        saved([&](util::wire::Archive &ar) { busy.checkpoint(ar); });
    expectEveryCutRefused(blob, [] {
        auto injector = std::make_shared<fault::FaultInjector>(noisySpec(), 7);
        injector->prepare(kHour);
        return Walk([injector](util::wire::Archive &ar) {
            injector->checkpoint(ar);
        });
    });
}

// --- Simulator resume diagnostics --------------------------------------

ExperimentConfig
faultedRun()
{
    ExperimentConfig config;
    config.eventCount = 60;
    config.seed = 7;
    config.sim.drainTicks = 30 * kTicksPerSecond;
    config.faults.seed = 11;
    config.faults.measurement.noiseSigma = 0.1;
    config.faults.execution.overrunProbability = 0.2;
    config.faults.execution.overrunFactor = 1.8;
    return config;
}

std::string
firstCheckpoint(ExperimentConfig config)
{
    std::string blob;
    config.sim.checkpointEveryCaptures = 10;
    config.sim.checkpointStop = true;
    config.sim.checkpointSink = [&blob](std::string &&state, Tick) {
        blob = std::move(state);
    };
    (void)runExperiment(config);
    return blob;
}

void
resume(ExperimentConfig config, const std::string &blob)
{
    config.sim.resumeState = &blob;
    (void)runExperiment(config);
}

/**
 * The head of a state blob, decoded in walkCheckpoint's order: the
 * loop clocks, device and input buffer (re-encodable after a patch;
 * varints are canonical, so unpatched fields keep their bytes), then
 * the fields up to the next input id, which are only read.
 */
struct BlobHead
{
    Tick clocks[3] = {};
    Device::State device;
    queueing::InputBuffer::State buffer;
    std::size_t bytes = 0; ///< encoded size of clocks, device, buffer
    std::uint64_t nextInputId = 0;

    explicit BlobHead(const std::string &blob)
    {
        util::wire::Archive in{util::wire::Reader(blob)};
        walk(in);
        bytes = encode().size();
        Metrics metrics;
        metrics.walk(in);
        util::Rng::State rng;
        rng.walk(in); // outcome stream
        rng.walk(in); // jitter stream
        std::size_t cursor = 0;
        in.varint(cursor); // schedule power cursor
        in.varint(cursor); // capture cursor
        double carry = 0.0;
        in.real(carry);
        in.varint(nextInputId);
        EXPECT_TRUE(in.ok()) << in.failure();
    }

    void
    walk(util::wire::Archive &ar)
    {
        for (Tick &clock : clocks)
            ar.varint(clock);
        device.walk(ar);
        buffer.walk(ar);
    }

    std::string
    encode()
    {
        return saved([this](util::wire::Archive &ar) { walk(ar); });
    }
};

/** The first checkpoint of `config`'s run that buffers two inputs. */
std::string
checkpointWithTwoBufferedInputs(ExperimentConfig config)
{
    std::string blob;
    config.sim.checkpointEveryCaptures = 10;
    config.sim.checkpointSink = [&blob](std::string &&state, Tick) {
        if (blob.empty() && BlobHead(state).buffer.records.size() >= 2)
            blob = std::move(state);
    };
    (void)runExperiment(config);
    return blob;
}

/** `blob` with its input buffer rewritten by `patch`. */
std::string
withBuffer(const std::string &blob,
           const std::function<void(BlobHead &)> &patch)
{
    BlobHead head(blob);
    patch(head);
    return head.encode() + blob.substr(head.bytes);
}

using CheckpointRestoreDeathTest = ::testing::Test;

TEST(CheckpointRestoreDeathTest, ResumeNamesTheSectionItCouldNotRestore)
{
    const std::string blob = firstCheckpoint(faultedRun());
    ASSERT_FALSE(blob.empty());

    EXPECT_EXIT(resume(faultedRun(), blob.substr(0, blob.size() / 2)),
                ::testing::ExitedWithCode(1),
                "checkpoint restore failed: malformed or mismatched "
                "state \\(");
    EXPECT_EXIT(resume(faultedRun(), blob + '\0'),
                ::testing::ExitedWithCode(1), "\\(trailing bytes\\)");

    ExperimentConfig clean = faultedRun();
    clean.faults = fault::FaultSpec{};
    EXPECT_EXIT(resume(clean, blob), ::testing::ExitedWithCode(1),
                "\\(fault-runtime presence\\)");

    // The device phase byte follows the three loop clocks and two
    // doubles; no phase has value 9.
    util::wire::Reader in(blob);
    std::uint64_t clock = 0;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(in.getVarint(clock));
    std::string badPhase = blob;
    badPhase[blob.size() - in.remaining() + 16] = '\x09';
    EXPECT_EXIT(resume(faultedRun(), badPhase),
                ::testing::ExitedWithCode(1), "\\(device state\\)");

    // A longer run has inputs waiting in its buffer at some of its
    // checkpoints.
    ExperimentConfig longRun = faultedRun();
    longRun.eventCount = 2000;
    const std::string buffered = checkpointWithTwoBufferedInputs(longRun);
    ASSERT_FALSE(buffered.empty());

    // Two buffer records sharing an id: re-pushing them would panic.
    const std::string sharedId = withBuffer(buffered, [](BlobHead &head) {
        head.buffer.records[1].id = head.buffer.records[0].id;
    });
    EXPECT_EXIT(resume(longRun, sharedId),
                ::testing::ExitedWithCode(1), "\\(buffer record order\\)");

    // The newest record holds the id the next stored capture takes.
    const std::string aheadOfNextId =
        withBuffer(buffered, [](BlobHead &head) {
            head.buffer.records.back().id = head.nextInputId;
            head.buffer.maxPushedId = head.nextInputId;
        });
    EXPECT_EXIT(resume(longRun, aheadOfNextId),
                ::testing::ExitedWithCode(1),
                "\\(buffer record id past next input id\\)");

    // Without faults the blob ends with the Controller blob, whose
    // last field is the IBO engine's policy blob {2: radio option at
    // blob[-2]}, then the fault-runtime presence flag. Radio option 9
    // would panic in the next admit; the resume refuses it instead.
    std::string options = firstCheckpoint(clean);
    ASSERT_EQ(options.substr(options.size() - 5, 2), "\x03\x02");
    options[options.size() - 2] = '\x09';
    EXPECT_EXIT(resume(clean, options), ::testing::ExitedWithCode(1),
                "\\(IBO option index out of range\\)");
}

} // namespace
} // namespace sim
} // namespace quetzal
