#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/check.hpp"
#include "lane_testing.hpp"
#include "sim/cancel_token.hpp"

namespace wmn::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), Time::zero());
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator s;
  std::vector<double> times;
  s.schedule(Time::seconds(1.0), [&] { times.push_back(s.now().to_seconds()); });
  s.schedule(Time::seconds(2.5), [&] { times.push_back(s.now().to_seconds()); });
  s.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
  EXPECT_EQ(s.now(), Time::seconds(2.5));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) s.schedule(Time::seconds(1.0), chain);
  };
  s.schedule(Time::seconds(1.0), chain);
  s.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.now(), Time::seconds(5.0));
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  bool ran = false;
  s.schedule(Time::seconds(1.0), [&] {
    s.schedule(Time::seconds(-5.0), [&] {
      ran = true;
      EXPECT_EQ(s.now(), Time::seconds(1.0));
    });
  });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.schedule(Time::seconds(1.0), [&] { ++fired; });
  s.schedule(Time::seconds(10.0), [&] { ++fired; });
  s.run_until(Time::seconds(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::seconds(5.0));
  // Continuing picks up the remaining event.
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsExactlyAtDeadlineExecute) {
  Simulator s;
  bool ran = false;
  s.schedule(Time::seconds(5.0), [&] { ran = true; });
  s.run_until(Time::seconds(5.0));
  EXPECT_TRUE(ran);
}

TEST(Simulator, StopHaltsDispatch) {
  Simulator s;
  int fired = 0;
  s.schedule(Time::seconds(1.0), [&] {
    ++fired;
    s.stop();
  });
  s.schedule(Time::seconds(2.0), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.stopped());
}

TEST(Simulator, CancelPendingEvent) {
  Simulator s;
  bool ran = false;
  const EventId id = s.schedule(Time::seconds(1.0), [&] { ran = true; });
  EXPECT_TRUE(s.pending(id));
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, EventsExecutedCounter) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(Time::seconds(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(Simulator, MakeStreamIsDeterministicPerSeed) {
  Simulator a(123);
  Simulator b(123);
  auto sa = a.make_stream(9);
  auto sb = b.make_stream(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sa.bits(), sb.bits());
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  s.schedule(Time::seconds(1.0), [] {});
  s.run_until(Time::seconds(30.0));
  EXPECT_EQ(s.now(), Time::seconds(30.0));
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator s;
  bool ran = false;
  s.schedule_at(Time::seconds(4.0), [&] {
    ran = true;
    EXPECT_EQ(s.now(), Time::seconds(4.0));
  });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, ScheduleAtPastTimeClampsUnderLogAndCount) {
  // Regression: under kLogAndCount the failed WMN_CHECK_GE falls
  // through instead of aborting, so schedule_at must still clamp a
  // stale absolute timestamp to now() — otherwise the event lands in
  // the past and the clock runs backwards.
  core::set_check_policy(core::CheckPolicy::kLogAndCount);
  core::reset_check_violations();
  Simulator s;
  bool ran = false;
  s.schedule(Time::seconds(3.0), [&] {
    s.schedule_at(Time::seconds(1.0), [&] {
      ran = true;
      EXPECT_EQ(s.now(), Time::seconds(3.0));
    });
  });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(core::check_violations(), 1u);
  core::set_check_policy(core::CheckPolicy::kAbort);
}

TEST(Simulator, EventBudgetAbortsDeterministically) {
  struct Stopped {
    Simulator::AbortReason reason;
    std::uint64_t events;
    Time at;
    bool operator==(const Stopped&) const = default;
  };
  auto run_with_budget = [](std::uint64_t budget) {
    Simulator s;
    s.set_event_budget(budget);
    std::function<void()> chain = [&] { s.schedule(Time::seconds(1.0), chain); };
    s.schedule(Time::seconds(1.0), chain);
    s.run_until(Time::seconds(1000.0));
    return Stopped{s.abort_reason(), s.events_executed(), s.now()};
  };
  const Stopped a = run_with_budget(5);
  EXPECT_EQ(a.reason, Simulator::AbortReason::kEventBudget);
  EXPECT_EQ(a.events, 5u);
  // Pure function of the event count: a second run stops identically.
  EXPECT_EQ(run_with_budget(5), a);
}

TEST(Simulator, EventBudgetZeroMeansUnlimited) {
  Simulator s;
  EXPECT_EQ(s.event_budget(), 0u);
  for (int i = 0; i < 10; ++i) s.schedule(Time::seconds(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 10u);
  EXPECT_EQ(s.abort_reason(), Simulator::AbortReason::kNone);
  EXPECT_FALSE(s.aborted());
}

TEST(Simulator, CancelTokenStopsRunAtNextPoll) {
  Simulator s;
  CancelToken token;
  s.set_cancel_token(&token, /*poll_every=*/4);
  std::uint64_t fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired == 2) token.cancel();
    s.schedule(Time::seconds(1.0), chain);
  };
  s.schedule(Time::seconds(1.0), chain);
  s.run_until(Time::seconds(1000.0));
  EXPECT_EQ(s.abort_reason(), Simulator::AbortReason::kCancelled);
  // Cancelled during event 2; the poll fires at the top of the 4th
  // dispatch, so exactly 3 events ran.
  EXPECT_EQ(s.events_executed(), 3u);
}

// --- arrival lanes ------------------------------------------------------

using SimLane = lane_testing::TestLane<Simulator>;

// Six lane elements at t = 1..6 ns, interleaved with nothing else.
void fill_lane(Simulator& s, SimLane& lane) {
  const std::uint64_t first = s.reserve_seqs(6);
  std::vector<std::pair<Lane::Key, std::uint32_t>> batch;
  for (std::uint32_t i = 0; i < 6; ++i) {
    batch.push_back({Lane::Key{Time::nanos(i + 1), first + i}, i});
  }
  lane.push(batch);
}

TEST(Simulator, LaneElementsCountAsEvents) {
  Simulator s;
  std::vector<std::uint32_t> ran;
  SimLane lane(s, [&](std::uint32_t p) { ran.push_back(p); });
  fill_lane(s, lane);
  EXPECT_EQ(s.events_pending(), 6u);
  s.run_until(Time::nanos(3));
  EXPECT_EQ(s.events_executed(), 3u);
  EXPECT_EQ(s.events_pending(), 3u);
  EXPECT_EQ(s.now(), Time::nanos(3));
  s.run();
  EXPECT_EQ(ran, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s.events_executed(), 6u);
  EXPECT_EQ(s.events_pending(), 0u);
}

TEST(Simulator, EventBudgetTripsMidLane) {
  Simulator s;
  std::vector<std::uint32_t> ran;
  SimLane lane(s, [&](std::uint32_t p) { ran.push_back(p); });
  fill_lane(s, lane);
  s.set_event_budget(4);
  s.run();
  EXPECT_EQ(s.abort_reason(), Simulator::AbortReason::kEventBudget);
  EXPECT_EQ(s.events_executed(), 4u);
  EXPECT_EQ(s.events_pending(), 2u);
  EXPECT_EQ(ran, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  // Lifting the budget resumes at the next element of the same lane.
  s.set_event_budget(0);
  s.run();
  EXPECT_EQ(ran.size(), 6u);
  EXPECT_EQ(s.abort_reason(), Simulator::AbortReason::kNone);
}

TEST(Simulator, CancelTokenTripsMidLane) {
  Simulator s;
  CancelToken token;
  s.set_cancel_token(&token, /*poll_every=*/2);
  std::vector<std::uint32_t> ran;
  SimLane lane(s, [&](std::uint32_t p) {
    ran.push_back(p);
    if (p == 2) token.cancel();
  });
  fill_lane(s, lane);
  s.run();
  // Cancelled during the 3rd element; polls come at the top of every
  // 2nd dispatch, so the 4th dispatch sees the flag and stops.
  EXPECT_EQ(s.abort_reason(), Simulator::AbortReason::kCancelled);
  EXPECT_EQ(s.events_executed(), 3u);
  EXPECT_EQ(s.events_pending(), 3u);
  EXPECT_EQ(ran, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(Simulator, CancelTokenNeverFlippedIsFree) {
  Simulator s;
  CancelToken token;
  s.set_cancel_token(&token, 2);
  for (int i = 0; i < 9; ++i) s.schedule(Time::seconds(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 9u);
  EXPECT_EQ(s.abort_reason(), Simulator::AbortReason::kNone);
}

}  // namespace
}  // namespace wmn::sim
