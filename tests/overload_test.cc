/// Overload-protection suite: unit coverage for the four control
/// primitives (retry budgets, CoDel queue discipline, circuit breaker,
/// brownout), the OverloadController facade that composes them, and
/// manager-level wiring — arrival sheds, deadline shedding, LIFO flip,
/// retry-budget and deadline-aware retry denial, and the observability
/// surface (events, metrics) every decision must land on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "characterization/static_classifier.h"
#include "execution/timeout_escalation.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "overload/brownout.h"
#include "overload/circuit_breaker.h"
#include "overload/codel_queue.h"
#include "overload/overload_controller.h"
#include "overload/retry_budget.h"
#include "overload/warmup.h"
#include "scheduling/queue_schedulers.h"
#include "tests/wlm_test_util.h"

namespace wlm {
namespace {

// ------------------------------------------------------- RetryBudgetPool

TEST(RetryBudgetTest, BucketsStartFullAndDenyWhenDrained) {
  RetryBudgetOptions options;
  options.capacity = 3.0;
  options.refill_per_second = 0.0;
  RetryBudgetPool pool(options);
  EXPECT_TRUE(pool.TryAcquire("oltp", 0.0));
  EXPECT_TRUE(pool.TryAcquire("oltp", 0.0));
  EXPECT_TRUE(pool.TryAcquire("oltp", 0.0));
  EXPECT_FALSE(pool.TryAcquire("oltp", 0.0));
  EXPECT_EQ(pool.granted(), 3);
  EXPECT_EQ(pool.denied(), 1);
  EXPECT_DOUBLE_EQ(pool.Tokens("oltp", 0.0), 0.0);
}

TEST(RetryBudgetTest, RefillsContinuouslyOnTheSimClock) {
  RetryBudgetOptions options;
  options.capacity = 2.0;
  options.refill_per_second = 1.0;
  RetryBudgetPool pool(options);
  EXPECT_TRUE(pool.TryAcquire("bi", 0.0));
  EXPECT_TRUE(pool.TryAcquire("bi", 0.0));
  // Half a token at t=0.5: not enough for a whole retry.
  EXPECT_FALSE(pool.TryAcquire("bi", 0.5));
  // A full token has accrued by t=1.6 (the denied call refilled to 0.5).
  EXPECT_TRUE(pool.TryAcquire("bi", 1.6));
  // Refill saturates at capacity, not beyond.
  EXPECT_DOUBLE_EQ(pool.Tokens("bi", 100.0), 2.0);
}

TEST(RetryBudgetTest, PerWorkloadCapacityOverrides) {
  RetryBudgetOptions options;
  options.capacity = 4.0;
  options.refill_per_second = 0.0;
  options.per_workload_capacity["oltp"] = 1.0;
  RetryBudgetPool pool(options);
  EXPECT_TRUE(pool.TryAcquire("oltp", 0.0));
  EXPECT_FALSE(pool.TryAcquire("oltp", 0.0));
  EXPECT_DOUBLE_EQ(pool.Tokens("reporting", 0.0), 4.0);
}

TEST(RetryBudgetTest, WorkloadsDrawFromIndependentBuckets) {
  RetryBudgetOptions options;
  options.capacity = 1.0;
  options.refill_per_second = 0.0;
  RetryBudgetPool pool(options);
  EXPECT_TRUE(pool.TryAcquire("a", 0.0));
  EXPECT_FALSE(pool.TryAcquire("a", 0.0));
  EXPECT_TRUE(pool.TryAcquire("b", 0.0));
}

// ------------------------------------------------------ CodelQueuePolicy

CodelOptions FastCodel() {
  CodelOptions options;
  options.queue_capacity = 16;
  options.target_seconds = 0.1;
  options.interval_seconds = 0.5;
  options.lifo_after_sheds = 2;
  return options;
}

TEST(CodelTest, HealthyQueueNeverSheds) {
  CodelQueuePolicy codel(FastCodel());
  for (int i = 0; i < 50; ++i) {
    CodelQueuePolicy::Decision d =
        codel.Observe(0.1 * i, /*oldest_sojourn=*/0.05, /*depth=*/4);
    EXPECT_FALSE(d.shed);
    EXPECT_FALSE(d.lifo);
  }
  EXPECT_FALSE(codel.dropping());
  EXPECT_EQ(codel.shed_count(), 0);
}

TEST(CodelTest, ShedsOnlyAfterSojournExceedsTargetForAFullInterval) {
  CodelQueuePolicy codel(FastCodel());
  // Above target at t=1.0 starts the interval clock; no shed before
  // t=1.5 even though the sojourn stays high.
  EXPECT_FALSE(codel.Observe(1.0, 0.3, 8).shed);
  EXPECT_FALSE(codel.Observe(1.2, 0.5, 8).shed);
  EXPECT_TRUE(codel.Observe(1.5, 0.8, 8).shed);
  EXPECT_TRUE(codel.dropping());
}

TEST(CodelTest, DropIntervalShrinksWithTheSquareRootControlLaw) {
  CodelQueuePolicy codel(FastCodel());
  EXPECT_FALSE(codel.Observe(1.0, 0.3, 8).shed);
  ASSERT_TRUE(codel.Observe(1.5, 0.8, 8).shed);  // first drop, next at +0.5/sqrt(2)
  const double second_gap = 0.5 / std::sqrt(2.0);
  EXPECT_FALSE(codel.Observe(1.5 + second_gap - 0.01, 0.8, 8).shed);
  EXPECT_TRUE(codel.Observe(1.5 + second_gap + 0.01, 0.8, 8).shed);
  EXPECT_EQ(codel.shed_count(), 2);
}

TEST(CodelTest, RecoveryBelowTargetEndsTheDroppingEpisode) {
  CodelQueuePolicy codel(FastCodel());
  EXPECT_FALSE(codel.Observe(1.0, 0.3, 8).shed);
  ASSERT_TRUE(codel.Observe(1.5, 0.8, 8).shed);
  // Sojourn back under target: episode over, and a fresh interval is
  // required before any further shedding.
  EXPECT_FALSE(codel.Observe(1.6, 0.05, 2).shed);
  EXPECT_FALSE(codel.dropping());
  EXPECT_FALSE(codel.Observe(1.7, 0.3, 8).shed);
  EXPECT_FALSE(codel.Observe(2.1, 0.3, 8).shed);
  EXPECT_TRUE(codel.Observe(2.3, 0.3, 8).shed);
}

TEST(CodelTest, RecommendsLifoAfterEnoughShedsInOneEpisode) {
  CodelQueuePolicy codel(FastCodel());  // lifo_after_sheds = 2
  EXPECT_FALSE(codel.Observe(1.0, 0.5, 8).lifo);
  EXPECT_FALSE(codel.Observe(1.5, 0.5, 8).lifo);  // shed #1
  CodelQueuePolicy::Decision d = codel.Observe(2.5, 0.5, 8);
  EXPECT_TRUE(d.shed);  // shed #2
  EXPECT_TRUE(d.lifo);
  // Healthy queue reverts to FIFO.
  EXPECT_FALSE(codel.Observe(2.6, 0.01, 1).lifo);
}

// -------------------------------------------------------- CircuitBreaker

CircuitBreakerOptions FastBreaker() {
  CircuitBreakerOptions options;
  options.window_seconds = 10.0;
  options.min_samples = 4;
  options.trip_rate = 0.5;
  options.open_seconds = 2.0;
  options.half_open_probes = 2;
  options.close_rate = 0.0;
  return options;
}

TEST(CircuitBreakerTest, TripsOnlyWithMinSamplesAndTripRate) {
  CircuitBreaker breaker(FastBreaker());
  breaker.RecordOutcome(0.1, true);
  breaker.RecordOutcome(0.2, true);
  breaker.RecordOutcome(0.3, true);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);  // < min_samples
  breaker.RecordOutcome(0.4, false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);  // 3/4 >= 0.5
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_FALSE(breaker.AllowAdmission(0.5));
}

TEST(CircuitBreakerTest, HealthyTrafficNeverTrips) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 20; ++i) breaker.RecordOutcome(0.1 * i, i % 4 == 0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowAdmission(2.0));
}

TEST(CircuitBreakerTest, CoolDownThenProbeBatchClosesOnHealthyProbes) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(0.1 * (i + 1), true);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowAdmission(1.0));  // still cooling down
  // Cool-down elapsed: half-open, exactly half_open_probes admissions.
  EXPECT_TRUE(breaker.AllowAdmission(2.5));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowAdmission(2.6));
  EXPECT_FALSE(breaker.AllowAdmission(2.7));  // probe batch exhausted
  breaker.RecordOutcome(3.0, false);
  breaker.RecordOutcome(3.1, false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, ViolatedProbesReopenTheBreaker) {
  CircuitBreaker breaker(FastBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(0.1 * (i + 1), true);
  ASSERT_TRUE(breaker.AllowAdmission(2.5));  // -> half-open
  breaker.RecordOutcome(3.0, true);
  breaker.RecordOutcome(3.1, false);  // 1/2 > close_rate 0.0
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  EXPECT_FALSE(breaker.AllowAdmission(3.2));
}

TEST(CircuitBreakerTest, TransitionListenerSeesTheFullCycle) {
  CircuitBreaker breaker(FastBreaker());
  std::vector<CircuitBreaker::State> transitions;
  breaker.set_transition_listener(
      [&transitions](CircuitBreaker::State, CircuitBreaker::State state,
                     const std::string&) { transitions.push_back(state); });
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(0.1 * (i + 1), true);
  ASSERT_TRUE(breaker.AllowAdmission(2.5));
  ASSERT_TRUE(breaker.AllowAdmission(2.6));
  breaker.RecordOutcome(3.0, false);
  breaker.RecordOutcome(3.1, false);
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0], CircuitBreaker::State::kOpen);
  EXPECT_EQ(transitions[1], CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(transitions[2], CircuitBreaker::State::kClosed);
}

/// Two workloads' breakers behind one controller, each beside a copy of
/// the outcome window it should hold: samples recorded outside half-open,
/// none older than the window or beyond the sample cap, none from before
/// the last close.
class BreakerModel {
 public:
  explicit BreakerModel(OverloadController* controller)
      : controller_(controller) {}

  void Record(const std::string& workload, double now, bool violated) {
    CircuitBreaker* breaker = controller_->breaker(workload);
    const CircuitBreaker::State before = breaker->state();
    controller_->RecordOutcome(workload, now, violated);
    std::deque<std::pair<double, bool>>& window = windows_[workload];
    if (before == CircuitBreaker::State::kHalfOpen) {
      if (breaker->state() == CircuitBreaker::State::kClosed) window.clear();
      return;
    }
    window.emplace_back(now, violated);
    const CircuitBreakerOptions& options =
        controller_->options().breaker_options;
    while (window.front().first < now - options.window_seconds) {
      window.pop_front();
    }
    while (static_cast<int>(window.size()) > options.window_sample_capacity) {
      window.pop_front();
    }
  }

  /// Both breakers' running counts against a recount of the copies.
  void Check(const std::string& step) {
    bool any_open = false;
    for (const char* workload : {"a", "b"}) {
      const CircuitBreaker* breaker = controller_->breaker(workload);
      const std::deque<std::pair<double, bool>>& window = windows_[workload];
      double rate = 0.0;
      if (!window.empty()) {
        const auto violated = std::ranges::count_if(
            window, [](const auto& sample) { return sample.second; });
        rate = static_cast<double>(violated) /
               static_cast<double>(window.size());
      }
      EXPECT_EQ(breaker->ViolationRate(), rate) << step << " " << workload;
      any_open |= breaker->state() == CircuitBreaker::State::kOpen;
    }
    EXPECT_EQ(controller_->AnyBreakerOpen(), any_open) << step;
  }

 private:
  OverloadController* controller_;
  std::map<std::string, std::deque<std::pair<double, bool>>> windows_;
};

TEST(CircuitBreakerTest, RunningCountsMatchARecountThroughEveryTransition) {
  OverloadOptions options;
  options.enabled = true;
  options.brownout = false;
  options.breaker_options.window_seconds = 10.0;
  options.breaker_options.min_samples = 8;
  options.breaker_options.trip_rate = 0.5;
  options.breaker_options.open_seconds = 2.0;
  options.breaker_options.half_open_probes = 2;
  options.breaker_options.close_rate = 0.0;
  ASSERT_EQ(options.breaker_options.window_sample_capacity, 256);
  OverloadController controller(options);
  BreakerModel model(&controller);
  using State = CircuitBreaker::State;
  CircuitBreaker* a = controller.breaker("a");
  CircuitBreaker* b = controller.breaker("b");
  model.Check("empty");

  // Window expiry: three violations under min_samples age out.
  for (int i = 0; i < 3; ++i) model.Record("a", 0.1 * i, true);
  model.Check("three violations");
  model.Record("a", 10.5, false);
  model.Check("expired");

  // The sample cap: 300 samples inside one window, a third of the first
  // hundred violated, so the trim drops violated samples too.
  for (int i = 0; i < 300; ++i) {
    model.Record("a", 11.0 + 0.01 * i, i < 100 && i % 3 == 0);
    model.Check("cap " + std::to_string(i));
  }
  ASSERT_EQ(a->state(), State::kClosed);

  // Trip "a" once its window has aged out: eight violations.
  for (int i = 0; i < 8; ++i) model.Record("a", 30.0 + 0.1 * i, true);
  ASSERT_EQ(a->state(), State::kOpen);
  model.Check("a open");
  // Trip "b" too; then "a" cools down to half-open.
  for (int i = 0; i < 8; ++i) model.Record("b", 31.0 + 0.1 * i, true);
  ASSERT_EQ(b->state(), State::kOpen);
  model.Check("both open");
  ASSERT_TRUE(a->AllowAdmission(33.0));
  ASSERT_EQ(a->state(), State::kHalfOpen);
  model.Check("a half-open");
  // Healthy probes close "a", clearing its window.
  ASSERT_TRUE(a->AllowAdmission(33.1));
  model.Record("a", 33.2, false);
  model.Record("a", 33.3, false);
  ASSERT_EQ(a->state(), State::kClosed);
  model.Check("a closed");
  // "b" probes badly and re-opens; then it closes on a second batch.
  ASSERT_TRUE(b->AllowAdmission(34.0));
  model.Record("b", 34.1, true);
  model.Record("b", 34.2, false);
  ASSERT_EQ(b->state(), State::kOpen);
  model.Check("b re-opened");
  ASSERT_TRUE(b->AllowAdmission(36.5));
  model.Check("b half-open again");
  model.Record("b", 36.6, false);
  model.Record("b", 36.7, false);
  ASSERT_EQ(b->state(), State::kClosed);
  model.Check("all closed");
  model.Record("b", 36.8, true);
  model.Check("after close");
}

// ---------------------------------------------------- BrownoutController

TEST(BrownoutTest, StepsUpOnViolationRateAndDownOnRecovery) {
  BrownoutOptions options;
  options.enter_rate = 0.5;
  options.exit_rate = 0.1;
  options.dwell_seconds = 1.0;
  options.max_level = 3;
  BrownoutController brownout(options);
  EXPECT_EQ(brownout.Update(0.0, 0.8, false), 1);
  // Dwell: a second step inside 1s is refused.
  EXPECT_EQ(brownout.Update(0.5, 0.9, false), 1);
  EXPECT_EQ(brownout.Update(1.1, 0.9, false), 2);
  // Mid-band rate (between exit and enter): level holds.
  EXPECT_EQ(brownout.Update(2.2, 0.3, false), 2);
  EXPECT_EQ(brownout.Update(3.3, 0.05, false), 1);
  EXPECT_EQ(brownout.Update(4.4, 0.05, false), 0);
  EXPECT_EQ(brownout.steps(), 4);
}

TEST(BrownoutTest, QueuePressureAloneTriggersAndLevelIsCapped) {
  BrownoutOptions options;
  options.dwell_seconds = 0.0;
  options.max_level = 2;
  BrownoutController brownout(options);
  EXPECT_EQ(brownout.Update(0.0, 0.0, true), 1);
  EXPECT_EQ(brownout.Update(1.0, 0.0, true), 2);
  EXPECT_EQ(brownout.Update(2.0, 0.0, true), 2);  // capped
}

TEST(BrownoutTest, ShedsStrictlyBelowTheLevel) {
  BrownoutOptions options;
  options.dwell_seconds = 0.0;
  BrownoutController brownout(options);
  ASSERT_EQ(brownout.Update(0.0, 1.0, false), 1);
  EXPECT_TRUE(brownout.ShouldShed(static_cast<int>(BusinessPriority::kBackground)));
  EXPECT_FALSE(brownout.ShouldShed(static_cast<int>(BusinessPriority::kLow)));
  EXPECT_FALSE(brownout.ShouldShed(static_cast<int>(BusinessPriority::kCritical)));
}

// -------------------------------------------------- OverloadController

OverloadOptions SmallOverload() {
  OverloadOptions options;
  options.enabled = true;
  options.codel.queue_capacity = 4;
  options.breaker_options = FastBreaker();
  options.brownout_options.dwell_seconds = 0.0;
  return options;
}

TEST(OverloadControllerTest, ArrivalGateOrdersQueueFullBrownoutBreaker) {
  OverloadController controller(SmallOverload());
  EXPECT_EQ(controller.EvaluateArrival("oltp", 2, 0.0, 0), "");
  EXPECT_EQ(controller.EvaluateArrival("oltp", 2, 0.0, 4), "queue_full");
  // Trip the oltp breaker: only oltp arrivals are refused.
  for (int i = 0; i < 4; ++i) {
    controller.RecordOutcome("oltp", 0.1 * (i + 1), true);
  }
  EXPECT_EQ(controller.EvaluateArrival("oltp", 2, 0.5, 0), "breaker_open");
  EXPECT_EQ(controller.EvaluateArrival("bi", 2, 0.5, 0), "");
  // Brownout at level 1 sheds background arrivals of every workload.
  controller.OnSample(1.0, /*queue_depth=*/4);
  EXPECT_EQ(controller.EvaluateArrival("bi", 0, 1.0, 0), "brownout");
  EXPECT_EQ(controller.EvaluateArrival("bi", 2, 1.0, 0), "");
}

TEST(OverloadControllerTest, GlobalViolationRateDrivesBrownoutSteps) {
  OverloadController controller(SmallOverload());
  int stepped = 0;
  int last_level = 0;
  controller.set_transition_listener(
      [&](OverloadController::TransitionKind kind, const std::string&,
          int level, const std::string&) {
        if (kind == OverloadController::TransitionKind::kBrownoutStepped) {
          ++stepped;
          last_level = level;
        }
      });
  for (int i = 0; i < 8; ++i) controller.RecordOutcome("bi", 0.1, true);
  EXPECT_DOUBLE_EQ(controller.GlobalViolationRate(), 1.0);
  controller.OnSample(1.0, /*queue_depth=*/0);
  EXPECT_EQ(stepped, 1);
  EXPECT_EQ(last_level, 1);
  EXPECT_EQ(controller.brownout_level(), 1);
}

TEST(OverloadControllerTest, SilentOutcomeWindowUnlatchesBrownout) {
  OverloadOptions options = SmallOverload();
  options.outcome_window_seconds = 2.0;
  OverloadController controller(options);
  for (int i = 0; i < 8; ++i) controller.RecordOutcome("bi", 0.1, true);
  controller.OnSample(1.0, /*queue_depth=*/0);
  ASSERT_EQ(controller.brownout_level(), 1);
  // Brownout now sheds every arrival, so no outcomes flow in. The stale
  // violation window must age out on samples alone — otherwise the
  // frozen rate latches the shed level forever (a self-inflicted
  // metastable loop).
  controller.OnSample(4.0, /*queue_depth=*/0);
  EXPECT_DOUBLE_EQ(controller.GlobalViolationRate(), 0.0);
  EXPECT_EQ(controller.brownout_level(), 0);
}

TEST(OverloadControllerTest, RetryGateDelegatesToTheBudgetPool) {
  OverloadOptions options = SmallOverload();
  options.retry_budget.capacity = 1.0;
  options.retry_budget.refill_per_second = 0.0;
  OverloadController controller(options);
  EXPECT_TRUE(controller.AllowRetry("oltp", 0.0));
  EXPECT_FALSE(controller.AllowRetry("oltp", 0.0));
  EXPECT_DOUBLE_EQ(controller.RetryTokens("oltp", 0.0), 0.0);
}

// ------------------------------------------------- WorkloadManager wiring

WlmConfig OverloadedConfig() {
  WlmConfig config;
  config.overload.enabled = true;
  config.overload.codel.queue_capacity = 3;
  config.overload.codel.target_seconds = 0.2;
  config.overload.codel.interval_seconds = 0.5;
  config.overload.codel.lifo_after_sheds = 2;
  return config;
}

TEST(ManagerOverloadTest, QueueCapacityShedsWithStatusOverloaded) {
  TestRig rig(TestEngineConfig(), 0.5, OverloadedConfig());
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/1));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 5.0)).ok());  // running
  for (QueryId id = 2; id <= 4; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 5.0)).ok());  // fills queue
  }
  Status overflow = rig.wlm.Submit(BiSpec(5, 5.0));
  EXPECT_TRUE(overflow.IsOverloaded());
  EXPECT_EQ(overflow.message(), "queue_full");

  const Request* shed = rig.Find(5);
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->state, RequestState::kShed);
  EXPECT_TRUE(shed->terminal());
  EXPECT_EQ(rig.wlm.counters("default").shed, 1);
  // Shed is its own ledger: not a rejection, not a kill.
  EXPECT_EQ(rig.wlm.counters("default").rejected, 0);
  EXPECT_EQ(rig.wlm.counters("default").killed, 0);
  EXPECT_EQ(rig.wlm.overload()->shed_total(), 1);

  bool shed_logged = false;
  for (const WlmEvent& event : rig.wlm.event_log().events()) {
    if (event.type == WlmEventType::kShed && event.query == 5) {
      shed_logged = true;
      EXPECT_EQ(event.detail, "queue_full");
    }
  }
  EXPECT_TRUE(shed_logged);
  const Counter* metric = rig.wlm.telemetry().metrics().FindCounter(
      "wlm_overload_shed_total",
      {{"workload", "default"}, {"reason", "queue_full"}});
  ASSERT_NE(metric, nullptr);
  EXPECT_DOUBLE_EQ(metric->value(), 1.0);
}

TEST(ManagerOverloadTest, CodelShedsStaleBacklogAndFlipsToLifo) {
  WlmConfig config = OverloadedConfig();
  config.overload.codel.queue_capacity = 64;  // capacity never binds here
  TestRig rig(TestEngineConfig(), 0.1, config);
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/1));
  // One long runner holds the engine; the backlog's sojourn climbs past
  // the CoDel target and a dropping episode begins.
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 30.0)).ok());
  for (QueryId id = 2; id <= 10; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 30.0)).ok());
  }
  rig.sim.RunUntil(8.0);
  EXPECT_GT(rig.wlm.counters("default").shed, 0);
  EXPECT_TRUE(rig.wlm.queue_lifo());
  bool codel_shed = false;
  for (const WlmEvent& event : rig.wlm.event_log().events()) {
    if (event.type == WlmEventType::kShed && event.detail == "codel") {
      codel_shed = true;
    }
  }
  EXPECT_TRUE(codel_shed);
  const Gauge* lifo = rig.wlm.telemetry().metrics().FindGauge(
      "wlm_overload_queue_lifo");
  ASSERT_NE(lifo, nullptr);
  EXPECT_DOUBLE_EQ(lifo->value(), 1.0);
}

/// Holds every queued request until opened, then records the order in
/// which the manager offers them for dispatch.
class RecordingGate : public AdmissionController {
 public:
  bool AllowDispatch(const Request& request,
                     const WorkloadManager&) override {
    if (!open) return false;
    offered.push_back(request.spec.id);
    return true;
  }
  TechniqueInfo info() const override { return TechniqueInfo{}; }

  bool open = false;
  std::vector<QueryId> offered;
};

TEST(ManagerOverloadTest, LifoDispatchesNewestFirstTiesToHigherId) {
  WlmConfig config = OverloadedConfig();
  config.overload.codel.queue_capacity = 64;
  config.overload.codel.lifo_after_sheds = 1;  // LIFO from the first shed
  TestRig rig(TestEngineConfig(), 0.25, config);
  auto gate = std::make_unique<RecordingGate>();
  RecordingGate* recording = gate.get();
  rig.wlm.AddAdmissionController(std::move(gate));
  // 1-3 enter the queue at t=0 and 4-5 at t=0.5; the gate holds them.
  for (QueryId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id)).ok());
  }
  rig.sim.RunUntil(0.5);
  for (QueryId id = 4; id <= 5; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id)).ok());
  }
  // The oldest sojourn passed the target at t=0.25; a full interval later
  // CoDel sheds the head (1) and flips the queue to LIFO. The next shed
  // is not due before t=1.1.
  rig.sim.RunUntil(1.0);
  ASSERT_TRUE(rig.wlm.queue_lifo());
  ASSERT_EQ(rig.Find(1)->state, RequestState::kShed);
  ASSERT_EQ(rig.wlm.queue_depth(), 4u);
  recording->open = true;
  rig.wlm.TryDispatch();
  // Newest first; 4/5 and 2/3 share an enqueue time, higher id first.
  EXPECT_EQ(recording->offered, (std::vector<QueryId>{5, 4, 3, 2}));
  EXPECT_EQ(rig.wlm.running_count(), 4u);

  // Two ways the queue leaves (enqueued_time, id) order. Each round must
  // still offer the full newest-first sort of what waits. Both end before
  // the next CoDel shed is due.
  auto newest_first = [&rig] {
    std::vector<const Request*> queued = rig.wlm.Queued();
    std::ranges::sort(queued, [](const Request* a, const Request* b) {
      if (a->enqueued_time != b->enqueued_time) {
        return a->enqueued_time > b->enqueued_time;
      }
      return a->spec.id > b->spec.id;
    });
    std::vector<QueryId> ids;
    for (const Request* request : queued) ids.push_back(request->spec.id);
    return ids;
  };
  // A kGoBack suspension flushes little state, so the request re-enters
  // the queue within a few engine ticks.
  auto suspend = [&rig](QueryId id, double until) {
    ASSERT_TRUE(rig.wlm.SuspendRequest(id, SuspendStrategy::kGoBack).ok());
    rig.sim.RunUntil(until);
    ASSERT_EQ(rig.Find(id)->state, RequestState::kSuspended);
  };
  // 1. A suspended request re-enters with its old enqueued_time: 2 (t=0),
  // then 6 (t=1.03), then 3 (t=0) behind it.
  recording->open = false;
  recording->offered.clear();
  suspend(2, 1.03);
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(6)).ok());
  suspend(3, 1.06);
  ASSERT_TRUE(rig.wlm.queue_lifo());
  std::vector<QueryId> expected = newest_first();
  EXPECT_EQ(expected, (std::vector<QueryId>{6, 3, 2}));
  recording->open = true;
  rig.wlm.TryDispatch();
  EXPECT_EQ(recording->offered, expected);
  // 2. Two requests enter at one instant with their ids descending, behind
  // a suspended request whose sojourn keeps the queue LIFO: 4 (t=0.5),
  // then 8 and 7 (t=1.09).
  recording->open = false;
  recording->offered.clear();
  suspend(4, 1.09);
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(8)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(7)).ok());
  ASSERT_TRUE(rig.wlm.queue_lifo());
  expected = newest_first();
  EXPECT_EQ(expected, (std::vector<QueryId>{8, 7, 4}));
  recording->open = true;
  rig.wlm.TryDispatch();
  EXPECT_EQ(recording->offered, expected);
}

TEST(ManagerOverloadTest, DeadlineUnreachableQueuedWorkIsShed) {
  WlmConfig config = OverloadedConfig();
  config.overload.codel.queue_capacity = 64;
  TestRig rig(TestEngineConfig(), 0.5, config);
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/1));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 10.0)).ok());  // occupies the engine
  QuerySpec doomed = BiSpec(2, 2.0);
  doomed.deadline_seconds = 1.0;  // needs ~1s of engine it won't get
  ASSERT_TRUE(rig.wlm.Submit(doomed).ok());
  rig.sim.RunUntil(3.0);
  const Request* r = rig.Find(2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->state, RequestState::kShed);
  EXPECT_EQ(r->reject_reason, "deadline");
}

/// Deadline shedding alone (no CoDel) on a rig whose gate holds every
/// request, so only deadlines end them; monitor samples every 0.25 s.
struct ShedByRig {
  static WlmConfig Config() {
    WlmConfig config = OverloadedConfig();
    config.overload.codel.queue_capacity = 64;
    config.overload.shedding = false;
    return config;
  }
  explicit ShedByRig(WlmConfig config = Config())
      : rig(TestEngineConfig(), 0.25, config) {
    auto owned = std::make_unique<RecordingGate>();
    gate = owned.get();
    rig.wlm.AddAdmissionController(std::move(owned));
  }
  /// Submits a request whose plan estimates `est` seconds, with a deadline
  /// `deadline` seconds after now (none when 0).
  Status Submit(QueryId id, double deadline, double est) {
    QuerySpec spec = BiSpec(id);
    spec.deadline_seconds = deadline;
    Plan plan;
    rig.engine.optimizer().BuildPlan(spec, &plan);
    plan.est_elapsed_seconds = est;
    return rig.wlm.SubmitWithPlan(spec, plan);
  }

  TestRig rig;
  RecordingGate* gate = nullptr;
};

// The shed floor only decides when the exact scan runs, so a request at
// the rounding boundary is shed at the same event as a scan on every
// TryDispatch would shed it. Submission (t=0) and the samples at 0.25,
// 0.5, ... are the TryDispatch events; the expected instant is the first
// of them where `now + est > deadline` holds, computed here in the same
// arithmetic.
TEST(ManagerOverloadTest, ShedByFilterShedsAtTheSameEventAsTheFullScan) {
  ShedByRig shed;
  const double one_ulp_below_1 = std::nextafter(1.0, 0.0);
  const double one_ulp_above_1 = std::nextafter(1.0, 2.0);
  struct Case {
    double deadline;
    double est;
  };
  const std::vector<Case> cases = {
      {1.0, 0.75},              // now + est == deadline at t=0.25
      {one_ulp_below_1, 0.75},  // exceeds it by one ulp at t=0.25
      {one_ulp_above_1, 0.75},  // one ulp short at t=0.25
      {3.0, 2.75},
      {std::nextafter(3.0, 0.0), 2.75},
      {1e6 + 0.5, 1e6},  // large magnitudes: one ulp of 1e6 is 1.2e-10
      {std::nextafter(1e6 + 0.5, 0.0), 1e6},
      {0.25, 0.0},
      {std::nextafter(0.25, 0.0), 0.0},
  };
  const std::vector<double> events = {0.0, 0.25, 0.5, 0.75, 1.0};
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(shed.Submit(static_cast<QueryId>(i + 1), cases[i].deadline,
                            cases[i].est)
                    .ok());
  }
  shed.rig.sim.RunUntil(events.back());
  for (size_t i = 0; i < cases.size(); ++i) {
    double expected = -1.0;  // not shed by the last event
    for (double now : events) {
      if (now + cases[i].est > cases[i].deadline) {
        expected = now;
        break;
      }
    }
    const Request* request = shed.rig.Find(static_cast<QueryId>(i + 1));
    ASSERT_NE(request, nullptr);
    if (expected < 0.0) {
      EXPECT_EQ(request->state, RequestState::kQueued) << "case " << i;
      continue;
    }
    EXPECT_EQ(request->state, RequestState::kShed) << "case " << i;
    EXPECT_EQ(request->reject_reason, "deadline") << "case " << i;
    EXPECT_EQ(request->finish_time, expected) << "case " << i;
  }
  // The boundary pair splits at t=0.25: one ulp past sheds there, equality
  // waits for the next sample.
  EXPECT_EQ(shed.rig.Find(1)->finish_time, 0.5);
  EXPECT_EQ(shed.rig.Find(2)->finish_time, 0.25);
}

TEST(ManagerOverloadTest, ShedByFilterHandlesNonFiniteValues) {
  WlmConfig config = ShedByRig::Config();
  // With an SLO and a NaN slack, a request without its own deadline gets
  // a NaN one: `now + est > NaN` never holds.
  config.overload.deadline_slack = std::numeric_limits<double>::quiet_NaN();
  ShedByRig shed(config);
  WorkloadDefinition def;
  def.name = "default";
  def.slos.push_back(ServiceLevelObjective::AvgResponse(3.0));
  shed.rig.wlm.DefineWorkload(def);
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(shed.Submit(1, 0.0, 0.5).ok());  // NaN deadline
  ASSERT_TRUE(std::isnan(shed.rig.Find(1)->deadline));
  ASSERT_TRUE(shed.Submit(2, 10.0, std::numeric_limits<double>::quiet_NaN())
                  .ok());
  // An infinite estimate can never fit: shed at the submit's own
  // TryDispatch.
  ASSERT_TRUE(shed.Submit(3, 10.0, inf).ok());
  EXPECT_EQ(shed.rig.Find(3)->state, RequestState::kShed);
  EXPECT_EQ(shed.rig.Find(3)->finish_time, 0.0);
  ASSERT_TRUE(shed.Submit(4, 10.0, -inf).ok());
  shed.rig.sim.RunUntil(30.0);
  for (QueryId id : {1, 2, 4}) {
    EXPECT_EQ(shed.rig.Find(id)->state, RequestState::kQueued) << id;
  }
}

// queue_seq is what tells a waiting request from one that left the queue
// (Unqueue's search, a fault retry's "already requeued" check), so it must
// be cleared on every way out. Thousands of single- and multi-dispatch
// rounds, then a deadline shed, a kill, a suspend and a crash drain.
TEST(ManagerOverloadTest, QueueSeqMarksExactlyTheWaitingRequests) {
  ShedByRig shed;
  const auto check = [&shed](QueryId last, const char* step) {
    uint64_t previous = 0;
    for (const Request* queued : shed.rig.wlm.Queued()) {
      ASSERT_GT(queued->queue_seq, previous) << step;
      previous = queued->queue_seq;
    }
    for (QueryId id = 1; id <= last; ++id) {
      const Request* request = shed.rig.Find(id);
      if (request == nullptr) continue;
      const bool waiting = request->state == RequestState::kQueued ||
                           request->state == RequestState::kSuspended;
      ASSERT_EQ(request->queue_seq != 0, waiting) << step << " id " << id;
    }
  };
  QueryId id = 0;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    shed.gate->open = false;
    const int batch = cycle % 8 + 1;  // single- and multi-dispatch rounds
    for (int i = 0; i < batch; ++i) {
      ASSERT_TRUE(shed.Submit(++id, 1e6, 1.0).ok());
    }
    shed.gate->open = true;
    shed.rig.wlm.TryDispatch();
    ASSERT_EQ(shed.rig.wlm.queue_depth(), 0u);
    if (cycle % 100 == 0) check(id, "dispatch");
  }
  check(id, "dispatch");
  shed.gate->open = false;
  ASSERT_TRUE(shed.Submit(++id, 0.5, 0.25).ok());  // shed at t=0.5
  ASSERT_TRUE(shed.Submit(++id, 1e6, 1.0).ok());
  ASSERT_TRUE(shed.Submit(++id, 1e6, 1.0).ok());
  shed.rig.sim.RunUntil(0.75);
  ASSERT_EQ(shed.rig.Find(id - 2)->state, RequestState::kShed);
  check(id, "deadline shed");
  ASSERT_TRUE(shed.rig.wlm.KillRequest(id - 1, /*resubmit=*/false).ok());
  check(id, "kill");
  ASSERT_TRUE(shed.rig.wlm.SuspendRequest(1, SuspendStrategy::kGoBack).ok());
  check(id, "suspend");
  (void)shed.rig.wlm.CrashDrain("crash");
  check(id, "crash drain");
  EXPECT_EQ(shed.rig.wlm.queue_depth(), 0u);
}

// A suspended request re-enters the queue with the deadline it had; the
// shed floor must come down to it again, or nothing would ever scan for
// it. The floor is first reset past request 1's bound by the scan that
// sheds request 2.
TEST(ManagerOverloadTest, SuspendedRequestIsShedAfterItReentersTheQueue) {
  ShedByRig shed;
  shed.gate->open = true;
  ASSERT_TRUE(shed.Submit(1, 3.0, 1.0).ok());  // shed-by about t=2
  ASSERT_EQ(shed.rig.Find(1)->state, RequestState::kRunning);
  shed.gate->open = false;
  ASSERT_TRUE(shed.Submit(2, 1.0, 0.5).ok());  // shed at the 0.75 sample
  shed.rig.sim.RunUntil(1.0);
  ASSERT_EQ(shed.rig.Find(2)->state, RequestState::kShed);
  ASSERT_EQ(shed.rig.Find(2)->finish_time, 0.75);
  ASSERT_TRUE(shed.rig.wlm.SuspendRequest(1, SuspendStrategy::kGoBack).ok());
  shed.rig.sim.RunUntil(2.0);
  ASSERT_EQ(shed.rig.Find(1)->state, RequestState::kSuspended);
  // 2.0 + 1.0 == 3.0 is not past the deadline; the sample at 2.25 is.
  shed.rig.sim.RunUntil(2.25);
  EXPECT_EQ(shed.rig.Find(1)->state, RequestState::kShed);
  EXPECT_EQ(shed.rig.Find(1)->reject_reason, "deadline");
  EXPECT_EQ(shed.rig.Find(1)->finish_time, 2.25);
}

TEST(ManagerOverloadTest, SloDerivedDeadlinesUseTheSlackFactor) {
  WlmConfig config = OverloadedConfig();
  config.overload.deadline_slack = 2.0;
  TestRig rig(TestEngineConfig(), 0.5, config);
  WorkloadDefinition def;
  def.name = "default";
  def.slos.push_back(ServiceLevelObjective::AvgResponse(3.0));
  rig.wlm.DefineWorkload(def);
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 0.5)).ok());
  const Request* r = rig.Find(1);
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->HasDeadline());
  EXPECT_DOUBLE_EQ(r->deadline, r->arrival_time + 6.0);
}

TEST(ManagerOverloadTest, NoDeadlineWithoutOverloadOrSpec) {
  TestRig rig;  // overload disabled
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1)).ok());
  EXPECT_FALSE(rig.Find(1)->HasDeadline());
}

/// Drives the abort -> retry path: a fault aborts the running request
/// every time it runs; the retry policy decides how often to put it back.
struct RetryScenario {
  WlmConfig config;
  FaultPlan plan;

  RetryScenario() {
    config.resilience.enabled = true;
    config.resilience.max_retries = 10;
    config.resilience.retry_backoff_seconds = 0.1;
    config.resilience.retry_backoff_multiplier = 1.0;
    FaultEvent aborts;
    aborts.kind = FaultKind::kQueryAborts;
    aborts.start = 0.5;
    aborts.duration = 30.0;
    aborts.magnitude = 4.0;
    aborts.period = 0.25;
    plan.Add(aborts);
  }
};

TEST(ManagerOverloadTest, RetryBudgetDeniesRunawayRetries) {
  RetryScenario scenario;
  scenario.config.overload.enabled = true;
  scenario.config.overload.retry_budget.capacity = 2.0;
  scenario.config.overload.retry_budget.refill_per_second = 0.0;
  TestRig rig(TestEngineConfig(), 0.5, scenario.config);
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  ASSERT_TRUE(injector.Arm(scenario.plan).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 20.0)).ok());
  rig.sim.RunUntil(40.0);

  const WorkloadCounters& counters = rig.wlm.counters("default");
  // Two budgeted retries happened, the third was denied terminally.
  EXPECT_EQ(counters.resubmitted, 2);
  EXPECT_EQ(counters.retries_denied, 1);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kKilled);
  bool denied_logged = false;
  for (const WlmEvent& event : rig.wlm.event_log().events()) {
    if (event.type == WlmEventType::kRetryDenied) {
      denied_logged = true;
      EXPECT_EQ(event.detail, "budget");
    }
  }
  EXPECT_TRUE(denied_logged);
  const Counter* metric = rig.wlm.telemetry().metrics().FindCounter(
      "wlm_overload_retry_denied_total",
      {{"workload", "default"}, {"reason", "budget"}});
  ASSERT_NE(metric, nullptr);
  EXPECT_DOUBLE_EQ(metric->value(), 1.0);
}

TEST(ManagerOverloadTest, DeadlineAwareRetryStopsPastDeadlineRetries) {
  RetryScenario scenario;  // overload stays disabled: the gate is
                           // part of the resilience policy itself.
  TestRig rig(TestEngineConfig(), 0.5, scenario.config);
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  ASSERT_TRUE(injector.Arm(scenario.plan).ok());
  QuerySpec spec = BiSpec(1, 20.0);
  spec.deadline_seconds = 2.0;  // first abort already makes this moot
  ASSERT_TRUE(rig.wlm.Submit(spec).ok());
  rig.sim.RunUntil(40.0);

  const WorkloadCounters& counters = rig.wlm.counters("default");
  EXPECT_EQ(counters.resubmitted, 0);
  EXPECT_EQ(counters.retries_denied, 1);
  bool denied_logged = false;
  for (const WlmEvent& event : rig.wlm.event_log().events()) {
    if (event.type == WlmEventType::kRetryDenied) {
      denied_logged = true;
      EXPECT_EQ(event.detail, "deadline");
    }
  }
  EXPECT_TRUE(denied_logged);
}

TEST(ManagerOverloadTest, DisabledDeadlineAwarenessKeepsRetrying) {
  RetryScenario scenario;
  scenario.config.resilience.deadline_aware_retries = false;
  scenario.config.resilience.max_retries = 3;
  TestRig rig(TestEngineConfig(), 0.5, scenario.config);
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  ASSERT_TRUE(injector.Arm(scenario.plan).ok());
  QuerySpec spec = BiSpec(1, 20.0);
  spec.deadline_seconds = 2.0;
  ASSERT_TRUE(rig.wlm.Submit(spec).ok());
  rig.sim.RunUntil(40.0);
  EXPECT_EQ(rig.wlm.counters("default").resubmitted, 3);
  EXPECT_EQ(rig.wlm.counters("default").retries_denied, 0);
}

TEST(ManagerOverloadTest, BreakerTransitionsLandInEventLogAndMetrics) {
  WlmConfig config = OverloadedConfig();
  config.overload.codel.queue_capacity = 64;
  config.overload.codel.target_seconds = 100.0;  // keep CoDel out of the way
  config.overload.breaker_options = FastBreaker();
  config.overload.brownout = false;  // isolate the breaker
  // Let the doomed queries run to (violated) completion instead of being
  // shed while queued — the breaker feeds on finished outcomes only.
  config.overload.deadline_shedding = false;
  TestRig rig(TestEngineConfig(), 0.5, config);
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/2));
  // Four impossible deadlines: every completion is an SLO violation, so
  // the default workload's breaker trips.
  for (QueryId id = 1; id <= 4; ++id) {
    QuerySpec spec = BiSpec(id, 0.5);
    spec.deadline_seconds = 0.001;
    (void)rig.wlm.Submit(spec);
  }
  // mpl=2 batches of 2 finish at t=2 and t=4; the 4th violated
  // completion trips the breaker at t=4, cool-down runs until t=6.
  rig.sim.RunUntil(5.0);
  CircuitBreaker* breaker = rig.wlm.overload()->breaker("default");
  ASSERT_NE(breaker, nullptr);
  EXPECT_GE(breaker->trips(), 1);

  bool tripped_logged = false;
  for (const WlmEvent& event : rig.wlm.event_log().events()) {
    if (event.type == WlmEventType::kBreakerTripped) {
      tripped_logged = true;
      EXPECT_EQ(event.query, SyntheticTrackId(SyntheticTrack::kOverload));
      EXPECT_EQ(event.workload, "default");
    }
  }
  EXPECT_TRUE(tripped_logged);
  const Counter* transitions = rig.wlm.telemetry().metrics().FindCounter(
      "wlm_overload_breaker_transitions_total",
      {{"workload", "default"}, {"to", "open"}});
  ASSERT_NE(transitions, nullptr);
  EXPECT_GE(transitions->value(), 1.0);
  const Gauge* state = rig.wlm.telemetry().metrics().FindGauge(
      "wlm_overload_breaker_state", {{"workload", "default"}});
  ASSERT_NE(state, nullptr);
  // Arrivals while the breaker is open are shed with the breaker reason.
  ASSERT_EQ(breaker->state(), CircuitBreaker::State::kOpen);
  Status blocked = rig.wlm.Submit(BiSpec(99, 0.5));
  EXPECT_TRUE(blocked.IsOverloaded());
  EXPECT_EQ(blocked.message(), "breaker_open");
}

TEST(ManagerOverloadTest, BrownoutShedsBackgroundClassesFirst) {
  WlmConfig config = OverloadedConfig();
  config.overload.codel.queue_capacity = 4;  // half-full triggers pressure
  config.overload.codel.target_seconds = 100.0;  // keep CoDel out of the way
  config.overload.breaker = false;
  config.overload.brownout_options.dwell_seconds = 0.0;
  config.overload.brownout_options.max_level = 1;  // spare kLow and above
  TestRig rig(TestEngineConfig(), 0.25, config);
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/1));
  WorkloadDefinition batch;
  batch.name = "batch";
  batch.priority = BusinessPriority::kBackground;
  rig.wlm.DefineWorkload(batch);
  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule rule;
  rule.workload = "batch";
  rule.application = "etl";
  classifier->AddRule(rule);
  rig.wlm.set_classifier(std::move(classifier));

  // Saturate: one runner plus a queue past capacity/2 = sustained
  // pressure; monitor samples step the brownout level up.
  for (QueryId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 30.0)).ok());
  }
  rig.sim.RunUntil(2.0);
  ASSERT_GE(rig.wlm.overload()->brownout_level(), 1);

  Status background = rig.wlm.Submit(BiSpec(50, 1.0, 100.0, 16.0, "etl"));
  EXPECT_TRUE(background.IsOverloaded());
  EXPECT_EQ(background.message(), "brownout");
  EXPECT_EQ(rig.Find(50)->state, RequestState::kShed);
  // Medium-priority default traffic still passes the brownout gate.
  Status medium = rig.wlm.Submit(BiSpec(51, 1.0));
  EXPECT_FALSE(medium.IsOverloaded());

  const Gauge* level = rig.wlm.telemetry().metrics().FindGauge(
      "wlm_overload_brownout_level");
  ASSERT_NE(level, nullptr);
  EXPECT_GE(level->value(), 1.0);
  bool stepped_logged = false;
  for (const WlmEvent& event : rig.wlm.event_log().events()) {
    if (event.type == WlmEventType::kBrownoutStepped) stepped_logged = true;
  }
  EXPECT_TRUE(stepped_logged);
}

// ------------------------------------------------ Timeout escalation

TEST(DeadlineKillTest, EscalationKillsPastDeadlineWorkWithoutResubmit) {
  TestRig rig(TestEngineConfig(), 0.25);
  TimeoutEscalationController::Config config;
  config.default_policy.kill_past_deadline = true;
  config.default_policy.deadline_grace_seconds = 0.5;
  config.default_policy.resubmit_on_kill = true;  // deadline kills override
  auto escalation = std::make_unique<TimeoutEscalationController>(config);
  TimeoutEscalationController* raw = escalation.get();
  rig.wlm.AddExecutionController(std::move(escalation));

  QuerySpec spec = BiSpec(1, 10.0);
  spec.deadline_seconds = 1.0;
  ASSERT_TRUE(rig.wlm.Submit(spec).ok());
  rig.sim.RunUntil(30.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kKilled);
  EXPECT_EQ(raw->deadline_kills(), 1);
  // No resubmit: a past-deadline rerun would be pure waste.
  EXPECT_EQ(rig.wlm.counters("default").resubmitted, 0);
}

// ------------------------------------------------------- WarmupGovernor

TEST(WarmupGovernorTest, InertBeforeAnyRampAdmitsEverything) {
  WarmupGovernor governor;
  EXPECT_FALSE(governor.warming(0.0));
  EXPECT_DOUBLE_EQ(governor.AdmitFraction(0.0), 1.0);
  EXPECT_TRUE(governor.AdmitAllowed(0.0, 1000));
  EXPECT_LT(governor.warmup_ends(), 0.0);
}

TEST(WarmupGovernorTest, FractionRampsLinearlyFromMinToFull) {
  WarmupOptions options;
  options.warmup_seconds = 4.0;
  options.min_fraction = 0.25;
  options.capacity = 16;
  WarmupGovernor governor(options);
  governor.BeginWarmup(10.0);
  EXPECT_TRUE(governor.warming(10.0));
  EXPECT_DOUBLE_EQ(governor.AdmitFraction(10.0), 0.25);
  // Halfway through the ramp: 0.25 + 0.75 * 0.5.
  EXPECT_DOUBLE_EQ(governor.AdmitFraction(12.0), 0.625);
  EXPECT_DOUBLE_EQ(governor.AdmitFraction(14.0), 1.0);
  EXPECT_FALSE(governor.warming(14.0));
  EXPECT_DOUBLE_EQ(governor.warmup_ends(), 14.0);
}

TEST(WarmupGovernorTest, CapGatesOutstandingWorkDuringTheRamp) {
  WarmupOptions options;
  options.warmup_seconds = 4.0;
  options.min_fraction = 0.25;
  options.capacity = 8;
  WarmupGovernor governor(options);
  governor.BeginWarmup(0.0);
  // Ramp start: cap = ceil(0.25 * 8) = 2.
  EXPECT_TRUE(governor.AdmitAllowed(0.0, 1));
  EXPECT_FALSE(governor.AdmitAllowed(0.0, 2));
  // Halfway: cap = ceil(0.625 * 8) = 5.
  EXPECT_TRUE(governor.AdmitAllowed(2.0, 4));
  EXPECT_FALSE(governor.AdmitAllowed(2.0, 5));
  // Past the ramp: unbounded again.
  EXPECT_TRUE(governor.AdmitAllowed(4.0, 1000));
}

TEST(WarmupGovernorTest, CapNeverDropsBelowOneAndRampRestarts) {
  WarmupOptions options;
  options.warmup_seconds = 2.0;
  options.min_fraction = 0.0;  // fraction 0 still admits one unit
  options.capacity = 16;
  WarmupGovernor governor(options);
  governor.BeginWarmup(0.0);
  EXPECT_TRUE(governor.AdmitAllowed(0.0, 0));
  EXPECT_FALSE(governor.AdmitAllowed(0.0, 1));
  // A second crash mid-ramp restarts the ramp from its beginning.
  governor.BeginWarmup(1.0);
  EXPECT_TRUE(governor.warming(2.5));
  EXPECT_DOUBLE_EQ(governor.warmup_ends(), 3.0);
}

}  // namespace
}  // namespace wlm
