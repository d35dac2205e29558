/// @file
/// Theta autopilot contract tests: the TuneCurve safety artifact, the
/// ThetaController ladder walk, the Admission theta-floor merge, and
/// the stats-counter plumbing the controller reads.
///
///  - TuneCurve::fromPoints validates and sorts; the loss bound is
///    prefix-conservative (stops at the FIRST measured violation, even
///    when noise dips a later point back under budget).
///  - ThetaController construction fails loudly on unusable configs;
///    tick() walks one rung per decision with hysteresis, differences
///    cumulative counters, and rate-limits itself.
///  - Admission::mergedTheta never lowers a request's own theta and
///    preserves the "server default" sentinel when no floor binds.
///  - Admission panics on use before attachStats() — the regression
///    test for the PR 5 declaration-order hazard (stats references
///    taken in the constructor read uninitialized members when the
///    owning server declared Admission first).
///  - ServingStats::counters() agrees with snapshot() without paying
///    for the percentile reduction.
///  - ShedTruncatedWindow: deadline-met COUNTS and goodput() RATES
///    diverge when a window ends in sheds, because the wall-clock
///    denominator runs to the window's last event. Paired A/B load
///    comparisons must compare counts (bench_autopilot_ramp
///    does).

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "memo/threshold_tuner.hh"
#include "serve/admission.hh"
#include "serve/stats.hh"
#include "serve/theta_controller.hh"

namespace nlfm
{
namespace
{

memo::TunePoint
point(double theta, double reuse, double loss)
{
    memo::TunePoint p;
    p.theta = theta;
    p.reuse = reuse;
    p.accuracyLoss = loss;
    return p;
}

// ------------------------------------------------------------ TuneCurve

TEST(TuneCurve, FromPointsSortsByTheta)
{
    const memo::TunePoint unsorted[] = {point(0.3, 0.3, 2.0),
                                        point(0.0, 0.05, 0.0),
                                        point(0.1, 0.1, 1.0)};
    const memo::TuneCurve curve = memo::TuneCurve::fromPoints(unsorted);
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_DOUBLE_EQ(curve.points()[0].theta, 0.0);
    EXPECT_DOUBLE_EQ(curve.points()[1].theta, 0.1);
    EXPECT_DOUBLE_EQ(curve.points()[2].theta, 0.3);
}

TEST(TuneCurve, FromPointsRejectsMalformedSweeps)
{
    EXPECT_THROW(memo::TuneCurve::fromPoints({}),
                 std::invalid_argument);

    const memo::TunePoint duplicate[] = {point(0.1, 0.1, 1.0),
                                         point(0.1, 0.2, 2.0)};
    EXPECT_THROW(memo::TuneCurve::fromPoints(duplicate),
                 std::invalid_argument);

    const memo::TunePoint negative_theta[] = {point(-0.1, 0.1, 1.0)};
    EXPECT_THROW(memo::TuneCurve::fromPoints(negative_theta),
                 std::invalid_argument);

    const memo::TunePoint negative_reuse[] = {point(0.1, -0.1, 1.0)};
    EXPECT_THROW(memo::TuneCurve::fromPoints(negative_reuse),
                 std::invalid_argument);
}

TEST(TuneCurve, MaxThetaForLossIsPrefixConservative)
{
    // Loss dips back under budget at theta 0.3 — measurement noise.
    // The bound must still stop at the first violation (0.2).
    const memo::TunePoint points[] = {point(0.0, 0.05, 0.0),
                                      point(0.1, 0.1, 1.0),
                                      point(0.2, 0.2, 6.0),
                                      point(0.3, 0.3, 2.0)};
    const memo::TuneCurve curve = memo::TuneCurve::fromPoints(points);

    const auto bound = curve.maxThetaForLoss(5.0);
    ASSERT_TRUE(bound.has_value());
    EXPECT_LT(*bound, 0.2);
    EXPECT_GE(*bound, 0.1);

    // Budget below even the smallest swept point: no safe theta.
    const memo::TunePoint hot[] = {point(0.0, 0.05, 7.0),
                                   point(0.1, 0.1, 8.0)};
    EXPECT_FALSE(memo::TuneCurve::fromPoints(hot)
                     .maxThetaForLoss(5.0)
                     .has_value());
}

TEST(TuneCurve, LadderForLossIsTheQualifyingPrefix)
{
    const memo::TunePoint points[] = {point(0.0, 0.05, 0.0),
                                      point(0.1, 0.1, 1.0),
                                      point(0.2, 0.2, 3.0),
                                      point(0.3, 0.3, 9.0),
                                      point(0.4, 0.4, 2.0)};
    const memo::TuneCurve curve = memo::TuneCurve::fromPoints(points);

    // Theta 0 is "floor off", not a rung; 0.3 violates; 0.4 is past
    // the violation and must not reappear.
    const std::vector<double> ladder = curve.ladderForLoss(5.0);
    ASSERT_EQ(ladder.size(), 2u);
    EXPECT_DOUBLE_EQ(ladder[0], 0.1);
    EXPECT_DOUBLE_EQ(ladder[1], 0.2);
}

TEST(TuneCurve, InterpolatesAndClampsLossAndReuse)
{
    const memo::TunePoint points[] = {point(0.1, 0.1, 1.0),
                                      point(0.3, 0.3, 5.0)};
    const memo::TuneCurve curve = memo::TuneCurve::fromPoints(points);

    EXPECT_DOUBLE_EQ(curve.lossAt(0.2), 3.0);
    EXPECT_DOUBLE_EQ(curve.reuseAt(0.2), 0.2);
    // Clamped outside the swept range.
    EXPECT_DOUBLE_EQ(curve.lossAt(0.0), 1.0);
    EXPECT_DOUBLE_EQ(curve.lossAt(1.0), 5.0);
    EXPECT_DOUBLE_EQ(curve.reuseAt(1.0), 0.3);
}

// ------------------------------------------------------ ThetaController

serve::ThetaAutopilotOptions
autopilotOptions()
{
    const memo::TunePoint points[] = {point(0.0, 0.05, 0.0),
                                      point(0.1, 0.1, 1.0),
                                      point(0.2, 0.2, 2.0),
                                      point(0.3, 0.3, 4.0)};
    serve::ThetaAutopilotOptions options;
    options.enabled = true;
    options.curve = memo::TuneCurve::fromPoints(points);
    options.maxAccuracyLoss = 5.0;
    options.controlIntervalMs = 0.0; // every tick decides (tests)
    return options;
}

serve::ThetaSignals
pressureSignals(std::uint64_t shed)
{
    serve::ThetaSignals signals;
    signals.occupancy = 1.0;
    signals.queueDepth = 4;
    signals.shed = shed;
    return signals;
}

/// Slack snapshot. Counters are CUMULATIVE in the real driver, so a
/// slack tick after sheds repeats the shed count it has already seen.
serve::ThetaSignals
slackSignals(std::uint64_t shed = 0)
{
    serve::ThetaSignals signals;
    signals.occupancy = 0.1;
    signals.queueDepth = 0;
    signals.shed = shed;
    return signals;
}

TEST(ThetaController, ConstructionRejectsUnusableConfigs)
{
    // Disabled: the servers only construct a controller when enabled.
    serve::ThetaAutopilotOptions disabled = autopilotOptions();
    disabled.enabled = false;
    EXPECT_THROW(serve::ThetaController(disabled, 0.05),
                 std::invalid_argument);

    serve::ThetaAutopilotOptions no_curve = autopilotOptions();
    no_curve.curve = memo::TuneCurve{};
    EXPECT_THROW(serve::ThetaController(no_curve, 0.05),
                 std::invalid_argument);

    serve::ThetaAutopilotOptions inverted = autopilotOptions();
    inverted.lowerOccupancy = 0.99;
    inverted.raiseOccupancy = 0.50;
    EXPECT_THROW(serve::ThetaController(inverted, 0.05),
                 std::invalid_argument);

    // Every qualifying rung sits at or below the serving default: the
    // controller would have nothing to trade.
    EXPECT_THROW(serve::ThetaController(autopilotOptions(), 0.3),
                 std::invalid_argument);
    // Budget admits no rung at all.
    serve::ThetaAutopilotOptions hot = autopilotOptions();
    hot.maxAccuracyLoss = 0.5;
    EXPECT_THROW(serve::ThetaController(hot, 0.05),
                 std::invalid_argument);
}

TEST(ThetaController, WalksOneRungPerDecisionAndSaturates)
{
    // Base 0.05 drops no rungs: ladder = {0.1, 0.2, 0.3}.
    serve::ThetaController controller(autopilotOptions(), 0.05);
    EXPECT_EQ(controller.rungs(), 3u);
    EXPECT_DOUBLE_EQ(controller.floor(), 0.0);
    EXPECT_FALSE(controller.saturated());

    // Each pressure tick (a NEW shed each time) climbs exactly one
    // rung.
    EXPECT_TRUE(controller.tick(pressureSignals(1)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.1);
    EXPECT_TRUE(controller.tick(pressureSignals(2)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.2);
    EXPECT_TRUE(controller.tick(pressureSignals(3)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.3);
    EXPECT_TRUE(controller.saturated());

    // Saturated: further pressure cannot move the floor.
    EXPECT_FALSE(controller.tick(pressureSignals(4)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.3);

    // Slack unwinds one rung per decision, down to "floor off". The
    // cumulative shed count stays at 4 — no NEW sheds.
    EXPECT_TRUE(controller.tick(slackSignals(4)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.2);
    EXPECT_TRUE(controller.tick(slackSignals(4)));
    EXPECT_TRUE(controller.tick(slackSignals(4)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.0);
    EXPECT_FALSE(controller.tick(slackSignals(4)));

    // The high-water mark survives the unwind.
    EXPECT_DOUBLE_EQ(controller.maxFloorSeen(), 0.3);
}

TEST(ThetaController, BaseThetaDropsNonBindingRungs)
{
    // Base 0.15: the 0.1 rung can never bind and is dropped.
    serve::ThetaController controller(autopilotOptions(), 0.15);
    EXPECT_EQ(controller.rungs(), 2u);
    controller.tick(pressureSignals(1));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.2);
}

TEST(ThetaController, HysteresisDeadBandHoldsTheFloor)
{
    serve::ThetaController controller(autopilotOptions(), 0.05);
    ASSERT_TRUE(controller.tick(pressureSignals(1)));

    // Occupancy between lowerOccupancy and raiseOccupancy, no events,
    // empty queue: neither raise nor lower.
    serve::ThetaSignals between;
    between.occupancy = 0.8;
    between.queueDepth = 0;
    between.shed = 1; // cumulative, unchanged since the last decision
    EXPECT_FALSE(controller.tick(between));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.1);

    // Full occupancy but an empty queue is not pressure either: the
    // pool is busy, not backed up.
    serve::ThetaSignals busy = between;
    busy.occupancy = 1.0;
    EXPECT_FALSE(controller.tick(busy));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.1);
}

TEST(ThetaController, DifferencesCumulativeCounters)
{
    serve::ThetaController controller(autopilotOptions(), 0.05);

    // Tick 1 sees cumulative shed=5: pressure, climb.
    ASSERT_TRUE(controller.tick(pressureSignals(5)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.1);

    // Tick 2 sees the SAME cumulative count under otherwise slack
    // conditions: no new sheds since the last decision, so the floor
    // steps back down. A controller comparing absolutes would read 5
    // sheds as standing pressure forever.
    serve::ThetaSignals slack = slackSignals();
    slack.shed = 5;
    EXPECT_TRUE(controller.tick(slack));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.0);
}

TEST(ThetaController, SurvivesMidFlightStatsReset)
{
    serve::ThetaController controller(autopilotOptions(), 0.05);

    // Establish a non-zero counter baseline.
    ASSERT_TRUE(controller.tick(pressureSignals(5)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.1);

    // Server::resetStats() mid-flight: the cumulative counters the
    // controller reads drop BELOW its baseline. The unsigned
    // difference 0 - 5 would wrap to ~2^64 "new sheds" and hold the
    // floor up under genuinely slack conditions; the guard rebaselines
    // from zero instead, so this tick reads 0 new sheds and unwinds.
    EXPECT_TRUE(controller.tick(slackSignals(0)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.0);
}

TEST(ThetaController, CountsPostResetEventsAsPressure)
{
    serve::ThetaController controller(autopilotOptions(), 0.05);
    ASSERT_TRUE(controller.tick(pressureSignals(5)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.1);

    // Reset AND 2 new sheds since: the counter is below the baseline
    // but not zero. Rebaselining from zero counts those 2 sheds as the
    // window's pressure — they really happened after the reset.
    serve::ThetaSignals pressure = pressureSignals(2);
    pressure.deadlineMissed = 3;
    EXPECT_TRUE(controller.tick(pressure));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.2);

    // Same wrap guard for the deadline-miss counter: 0 is below the
    // baseline of 3, so a wrap would read ~2^64 misses and climb; the
    // guard reads 0 and unwinds.
    EXPECT_TRUE(controller.tick(slackSignals(2)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.1);
}

TEST(ThetaController, RateLimitsDecisions)
{
    serve::ThetaAutopilotOptions options = autopilotOptions();
    options.controlIntervalMs = 3600 * 1000.0; // one decision per hour
    serve::ThetaController controller(options, 0.05);

    EXPECT_TRUE(controller.tick(pressureSignals(1)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.1);
    // Immediate re-tick under more pressure: inside the interval, no
    // decision.
    EXPECT_FALSE(controller.tick(pressureSignals(2)));
    EXPECT_DOUBLE_EQ(controller.floor(), 0.1);
}

// ------------------------------------------------- Admission theta merge

serve::Admission
makeAdmission(double default_theta)
{
    serve::AdmissionConfig config;
    config.queueCapacity = 4;
    config.slots = 2;

    serve::AdmissionModel model;
    model.inputLabel = "test input";
    model.inputWidth = 3;
    model.defaultTheta = default_theta;

    std::vector<serve::AdmissionModel> models;
    models.push_back(std::move(model));
    return serve::Admission(std::move(config), std::move(models));
}

TEST(AdmissionThetaFloor, MergedThetaNeverLowersAndKeepsSentinel)
{
    serve::Admission admission = makeAdmission(0.05);
    serve::Request sentinel; // theta = -1.0, "server default"
    serve::Request explicit_low;
    explicit_low.theta = 0.1;
    serve::Request explicit_high;
    explicit_high.theta = 0.5;

    // No floor: every request passes through verbatim, sentinel
    // included (the memo engine resolves the default; admission must
    // not).
    EXPECT_DOUBLE_EQ(admission.thetaFloor(0), 0.0);
    EXPECT_DOUBLE_EQ(admission.mergedTheta(0, sentinel), -1.0);
    EXPECT_DOUBLE_EQ(admission.mergedTheta(0, explicit_low), 0.1);

    // Floor below what the request (or the default) already asks for:
    // still verbatim.
    admission.setThetaFloor(0, 0.03);
    EXPECT_DOUBLE_EQ(admission.mergedTheta(0, sentinel), -1.0);
    EXPECT_DOUBLE_EQ(admission.mergedTheta(0, explicit_low), 0.1);

    // Floor above the model default binds sentinel requests...
    admission.setThetaFloor(0, 0.2);
    EXPECT_DOUBLE_EQ(admission.thetaFloor(0), 0.2);
    EXPECT_DOUBLE_EQ(admission.mergedTheta(0, sentinel), 0.2);
    // ...and explicit requests below it, but never lowers one above it.
    EXPECT_DOUBLE_EQ(admission.mergedTheta(0, explicit_low), 0.2);
    EXPECT_DOUBLE_EQ(admission.mergedTheta(0, explicit_high), 0.5);

    // Floor removed: verbatim again.
    admission.setThetaFloor(0, 0.0);
    EXPECT_DOUBLE_EQ(admission.mergedTheta(0, sentinel), -1.0);
}

TEST(AdmissionThetaFloor, SubmitWithoutAttachStatsPanics)
{
    // The PR 5 regression this API closed: stats wired at construction
    // bound references to members that, depending on the owning
    // server's declaration order, were not constructed yet. Stats are
    // now late-bound, and using admission before attachStats() is a
    // loud panic instead of an uninitialized read.
    EXPECT_DEATH(
        {
            serve::Admission admission = makeAdmission(0.05);
            serve::Request request;
            request.input.assign(1, std::vector<float>(3, 0.f));
            admission.submit(0, std::move(request));
        },
        "attachStats");
}

TEST(AdmissionThetaFloor, AttachStatsTwicePanics)
{
    EXPECT_DEATH(
        {
            serve::Admission admission = makeAdmission(0.05);
            serve::ServingStats stats;
            admission.attachStats(stats, {&stats});
            admission.attachStats(stats, {&stats});
        },
        "called twice");
}

TEST(AdmissionThetaFloor, AttachStatsWrongSinkCountPanics)
{
    EXPECT_DEATH(
        {
            serve::Admission admission = makeAdmission(0.05);
            serve::ServingStats aggregate;
            serve::ServingStats per_model;
            // One model, two per-model sinks.
            admission.attachStats(aggregate,
                                  {&per_model, &per_model});
        },
        "sink count");
}

// --------------------------------------------------------- stats plumbing

serve::Response
completedResponse(double latency_ms, bool met)
{
    serve::Response response;
    response.steps = 4;
    response.latencyMs = latency_ms;
    response.queueMs = latency_ms / 2;
    response.serviceMs = latency_ms / 2;
    response.reuseFraction = 0.25;
    response.deadlineMet = met;
    return response;
}

TEST(ServingStatsCounters, CountersMatchSnapshotCounts)
{
    serve::ServingStats stats;
    stats.start();
    stats.record(completedResponse(10.0, true));
    stats.record(completedResponse(20.0, false));
    stats.record(completedResponse(30.0, true));
    stats.recordShed(serve::ShedReason::Expired);
    stats.recordShed(serve::ShedReason::PredictedMiss);

    const serve::StatsCounters counters = stats.counters();
    EXPECT_EQ(counters.completed, 3u);
    EXPECT_EQ(counters.deadlineMet, 2u);
    EXPECT_EQ(counters.deadlineMissed(), 1u);
    EXPECT_EQ(counters.shed, 2u);
    EXPECT_EQ(counters.shedPredicted, 1u);

    const serve::StatsSnapshot snapshot = stats.snapshot();
    EXPECT_EQ(snapshot.completed, counters.completed);
    EXPECT_EQ(snapshot.deadlineMet, counters.deadlineMet);
    EXPECT_EQ(snapshot.shed, counters.shed);
    EXPECT_EQ(snapshot.shedPredicted, counters.shedPredicted);
}

TEST(ServingStatsCounters, ShedTruncatedWindow)
{
    // Two windows with IDENTICAL deadline-met counts. Window B ends in
    // a shed long after its last completion; a shed ends the measured
    // interval like a completion does, so B's wall-clock denominator
    // is longer and its goodput() RATE is lower than A's even though
    // no additional request was served or missed. Paired A/B load
    // comparisons (bench_autopilot_ramp) must therefore
    // compare deadline-met COUNTS; rates divide by each arm's own
    // wall.
    serve::ServingStats a;
    a.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    a.record(completedResponse(5.0, true));
    a.record(completedResponse(5.0, true));

    serve::ServingStats b;
    b.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    b.record(completedResponse(5.0, true));
    b.record(completedResponse(5.0, true));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    b.recordShed(serve::ShedReason::Expired);

    const serve::StatsSnapshot sa = a.snapshot();
    const serve::StatsSnapshot sb = b.snapshot();
    ASSERT_EQ(sa.deadlineMet, sb.deadlineMet);
    EXPECT_GT(sb.wallSeconds, sa.wallSeconds);
    EXPECT_GT(sa.goodput(), sb.goodput());
}

} // namespace
} // namespace nlfm
