#include <gtest/gtest.h>

#include <cmath>

#include "control/controllers.h"
#include "control/utility.h"
#include "tests/queueing.h"

namespace wlm {
namespace {

// ----------------------------------------------------------- PiController

TEST(PiControllerTest, ZeroErrorZeroOutput) {
  PiController pi(1.0, 1.0, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(pi.Update(0.0, 1.0), 0.0);
}

TEST(PiControllerTest, IntegratesPersistentError) {
  PiController pi(0.0, 1.0, -10.0, 10.0);
  for (int i = 0; i < 5; ++i) pi.Update(1.0, 1.0);
  EXPECT_NEAR(pi.output(), 5.0, 1e-9);
}

TEST(PiControllerTest, OutputClamped) {
  PiController pi(10.0, 0.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(pi.Update(100.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(pi.Update(-100.0, 1.0), 0.0);
}

TEST(PiControllerTest, AntiWindupFreezesIntegral) {
  PiController pi(0.0, 1.0, 0.0, 1.0);
  for (int i = 0; i < 100; ++i) pi.Update(1.0, 1.0);
  // Integral must not have run away past what the clamp can use.
  EXPECT_LE(pi.integral(), 2.0);
  // Recovery after the error flips should be fast, not delayed by windup.
  int steps = 0;
  while (pi.output() > 0.5 && steps < 10) {
    pi.Update(-1.0, 1.0);
    ++steps;
  }
  EXPECT_LT(steps, 5);
}

TEST(PiControllerTest, ResetClears) {
  PiController pi(1.0, 1.0, -10.0, 10.0);
  pi.Update(2.0, 1.0);
  pi.Reset();
  EXPECT_DOUBLE_EQ(pi.output(), 0.0);
  EXPECT_DOUBLE_EQ(pi.integral(), 0.0);
}

TEST(PiControllerTest, ClosedLoopConvergesOnLinearPlant) {
  // Plant: measurement = 10 - 8 * u. Goal: measurement = 4 -> u* = 0.75.
  // Gains chosen inside the discrete-time stability region
  // (ki * dt * plant_gain < 2).
  PiController pi(0.02, 0.3, 0.0, 1.0);
  double u = 0.0;
  double measurement = 10.0;
  for (int i = 0; i < 200; ++i) {
    double error = measurement - 4.0;  // positive -> need more throttle
    u = pi.Update(error, 0.25);
    measurement = 10.0 - 8.0 * u;
  }
  EXPECT_NEAR(u, 0.75, 0.02);
  EXPECT_NEAR(measurement, 4.0, 0.2);
}

// ------------------------------------------- DiminishingStepController

TEST(StepControllerTest, MovesTowardErrorDirection) {
  DiminishingStepController step(0.2, 0.0, 1.0);
  EXPECT_NEAR(step.Update(1.0), 0.2, 1e-9);
  EXPECT_NEAR(step.Update(1.0), 0.4, 1e-9);
}

TEST(StepControllerTest, StepHalvesOnSignFlip) {
  DiminishingStepController step(0.4, 0.0, 1.0);
  step.Update(1.0);   // 0.4
  step.Update(-1.0);  // flip: step 0.2 -> 0.2
  EXPECT_NEAR(step.output(), 0.2, 1e-9);
  EXPECT_NEAR(step.step(), 0.2, 1e-9);
  step.Update(1.0);  // flip again: step 0.1 -> 0.3
  EXPECT_NEAR(step.output(), 0.3, 1e-9);
}

TEST(StepControllerTest, DeadbandFreezes) {
  DiminishingStepController step(0.2, 0.0, 1.0);
  step.Update(1.0);
  double before = step.output();
  step.Update(0.01, /*deadband=*/0.05);
  EXPECT_DOUBLE_EQ(step.output(), before);
}

TEST(StepControllerTest, ConvergesToFixedPoint) {
  // Plant: measurement = 10 - 8*u, goal 4 -> u* = 0.75.
  DiminishingStepController step(0.4, 0.0, 1.0);
  double u = 0.0;
  for (int i = 0; i < 50; ++i) {
    double measurement = 10.0 - 8.0 * u;
    u = step.Update(measurement - 4.0, 0.05);
  }
  EXPECT_NEAR(u, 0.75, 0.05);
}

// ---------------------------------------------- BlackBoxLinearController

TEST(BlackBoxTest, ProbesUntilModelReady) {
  BlackBoxLinearController bb(0.0, 1.0, 0.1);
  EXPECT_FALSE(bb.model_ready());
  bb.Update(10.0, 4.0);  // first observation: probing
  EXPECT_FALSE(bb.model_ready());
}

TEST(BlackBoxTest, LearnsLinearPlantAndJumpsToGoal) {
  BlackBoxLinearController bb(0.0, 1.0, 0.1);
  double u = 0.0;
  double measurement = 10.0;
  int converged_at = -1;
  for (int i = 0; i < 30; ++i) {
    u = bb.Update(measurement, 4.0);
    measurement = 10.0 - 8.0 * u;
    if (converged_at < 0 && std::abs(measurement - 4.0) < 0.1) {
      converged_at = i;
    }
  }
  EXPECT_TRUE(bb.model_ready());
  EXPECT_NEAR(bb.slope(), -8.0, 0.5);
  EXPECT_NEAR(bb.intercept(), 10.0, 0.5);
  EXPECT_NEAR(u, 0.75, 0.02);
  // Model-based control should converge fast once two probes exist.
  EXPECT_GE(converged_at, 0);
  EXPECT_LT(converged_at, 6);
}

TEST(BlackBoxTest, ClampsInfeasibleGoal) {
  BlackBoxLinearController bb(0.0, 1.0, 0.2);
  double u = 0.0;
  double measurement = 10.0;
  for (int i = 0; i < 20; ++i) {
    u = bb.Update(measurement, -100.0);  // unreachable goal
    measurement = 10.0 - 8.0 * u;
  }
  EXPECT_DOUBLE_EQ(u, 1.0);
}

// -------------------------------------------------------------- Utility

TEST(SloUtilityTest, HalfAtTarget) {
  SloUtility u(10.0, SloUtility::Sense::kLowerIsBetter);
  EXPECT_NEAR(u.Evaluate(10.0), 0.5, 1e-9);
}

TEST(SloUtilityTest, LowerIsBetterOrientation) {
  SloUtility u(10.0, SloUtility::Sense::kLowerIsBetter);
  EXPECT_GT(u.Evaluate(5.0), 0.8);
  EXPECT_LT(u.Evaluate(20.0), 0.2);
}

TEST(SloUtilityTest, HigherIsBetterOrientation) {
  SloUtility u(100.0, SloUtility::Sense::kHigherIsBetter);
  EXPECT_GT(u.Evaluate(150.0), 0.8);
  EXPECT_LT(u.Evaluate(50.0), 0.2);
}

TEST(SloUtilityTest, ImportanceScalesWeighted) {
  SloUtility u(10.0, SloUtility::Sense::kLowerIsBetter, 3.0);
  EXPECT_NEAR(u.Weighted(10.0), 1.5, 1e-9);
}

TEST(TotalUtilityTest, SumsWeighted) {
  std::vector<SloUtility> slos = {
      SloUtility(10.0, SloUtility::Sense::kLowerIsBetter, 1.0),
      SloUtility(5.0, SloUtility::Sense::kHigherIsBetter, 2.0),
  };
  double total = TotalUtility(slos, {10.0, 5.0});
  EXPECT_NEAR(total, 0.5 + 1.0, 1e-9);
}

// ------------------------------------------------------- EconomicModel

TEST(EconomicTest, SharesProportionalToWealth) {
  std::vector<WorkloadBid> bids = {{3.0, 0.5, 0.5}, {1.0, 0.5, 0.5}};
  auto alloc = EconomicEquilibrium(bids);
  EXPECT_NEAR(alloc[0].cpu_share, 0.75, 1e-9);
  EXPECT_NEAR(alloc[1].cpu_share, 0.25, 1e-9);
  EXPECT_NEAR(alloc[0].io_share, 0.75, 1e-9);
}

TEST(EconomicTest, PreferencesShiftSpending) {
  // Bidder 0 only wants CPU; bidder 1 only wants IO: each gets all of its
  // preferred resource.
  std::vector<WorkloadBid> bids = {{1.0, 1.0, 0.0}, {1.0, 0.0, 1.0}};
  auto alloc = EconomicEquilibrium(bids);
  EXPECT_NEAR(alloc[0].cpu_share, 1.0, 1e-9);
  EXPECT_NEAR(alloc[0].io_share, 0.0, 1e-9);
  EXPECT_NEAR(alloc[1].io_share, 1.0, 1e-9);
}

TEST(EconomicTest, SharesSumToOne) {
  std::vector<WorkloadBid> bids = {{2.0, 0.7, 0.3}, {5.0, 0.2, 0.8},
                                   {1.0, 0.5, 0.5}};
  auto alloc = EconomicEquilibrium(bids);
  double cpu = 0.0, io = 0.0;
  for (const auto& a : alloc) {
    cpu += a.cpu_share;
    io += a.io_share;
  }
  EXPECT_NEAR(cpu, 1.0, 1e-9);
  EXPECT_NEAR(io, 1.0, 1e-9);
}

TEST(EconomicTest, ZeroWealthGetsNothing) {
  std::vector<WorkloadBid> bids = {{0.0, 0.5, 0.5}, {1.0, 0.5, 0.5}};
  auto alloc = EconomicEquilibrium(bids);
  EXPECT_DOUBLE_EQ(alloc[0].cpu_share, 0.0);
  EXPECT_NEAR(alloc[1].cpu_share, 1.0, 1e-9);
}

// ------------------------------------------------------------- Queueing

TEST(QueueingTest, ErlangCBounds) {
  EXPECT_DOUBLE_EQ(ErlangC(4, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ErlangC(4, 4.0), 1.0);   // at saturation
  double p = ErlangC(4, 2.0);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(QueueingTest, Mm1MatchesClosedForm) {
  // M/M/1: R = 1/(mu - lambda).
  EXPECT_NEAR(Mm1MeanResponse(2.0, 5.0), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(Mm1PsMeanResponse(2.0, 5.0), 1.0 / 3.0, 1e-9);
}

TEST(QueueingTest, MmcUnstableReturnsHuge) {
  EXPECT_GT(MmcMeanResponse(10.0, 1.0, 4), 1e12);
}

TEST(QueueingTest, MoreServersReduceWait) {
  double w2 = MmcMeanWait(3.0, 2.0, 2);
  double w4 = MmcMeanWait(3.0, 2.0, 4);
  EXPECT_GT(w2, w4);
  EXPECT_GE(w4, 0.0);
}

TEST(QueueingTest, MmcResponseAtLeastService) {
  EXPECT_GE(MmcMeanResponse(1.0, 2.0, 4), 0.5);
}

TEST(QueueingTest, ClosedMvaSaturates) {
  // service 1s, no think time, 1 server: throughput caps at 1/s.
  double x1 = ClosedMvaThroughput(1, 1.0, 0.0, 1);
  double x10 = ClosedMvaThroughput(10, 1.0, 0.0, 1);
  EXPECT_NEAR(x1, 1.0, 1e-9);
  EXPECT_NEAR(x10, 1.0, 1e-9);
}

TEST(QueueingTest, ClosedMvaThinkTimeReducesLoad) {
  double busy = ClosedMvaThroughput(4, 1.0, 0.0, 1);
  double thinky = ClosedMvaThroughput(4, 1.0, 10.0, 1);
  EXPECT_GT(busy, thinky);
  // With long think time, throughput ~ n / (think + service).
  EXPECT_NEAR(thinky, 4.0 / 11.0, 0.05);
}

}  // namespace
}  // namespace wlm
