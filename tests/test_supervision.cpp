// Run-supervision tests: watchdog leases, the deadline→cancel→
// kDeadlineExceeded path through SweepEngine, the transient-vs-
// deterministic retry policy, and the failure taxonomy counts.
#include "exp/supervision.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/check.hpp"
#include "exp/failure.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "sim/cancel_token.hpp"
#include "sim/simulator.hpp"

namespace wmn::exp {
namespace {

// Test bodies get the slot config and the attempt's cancel token
// (null when the watchdog is off), exactly like the real execute().
class FakeEngine : public SweepEngine {
 public:
  using SweepEngine::SweepEngine;
  std::function<RunMetrics(const ScenarioConfig&, sim::CancelToken*)> body;

 protected:
  RunMetrics execute(const ScenarioConfig& cfg,
                     sim::CancelToken* cancel) override {
    return body(cfg, cancel);
  }
};

ScenarioConfig tiny_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  return cfg;
}

RunMetrics fake_metrics(std::uint64_t events) {
  RunMetrics m;
  m.sim_event_count = static_cast<double>(events);
  return m;
}

TEST(Watchdog, LeaseExpiresAndFlipsToken) {
  Watchdog dog;
  sim::CancelToken token;
  auto lease = dog.watch(token, 0.02);
  EXPECT_EQ(dog.active(), 1u);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!token.cancelled() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(dog.expired_count(), 1u);
  EXPECT_EQ(dog.active(), 0u);  // expired leases are withdrawn
  lease.release();              // idempotent on an already-expired lease
}

TEST(Watchdog, ReleasedLeaseNeverFires) {
  Watchdog dog;
  sim::CancelToken token;
  {
    auto lease = dog.watch(token, 0.02);
    lease.release();
    EXPECT_EQ(dog.active(), 0u);
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(3 * Watchdog::kTickMillis));
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(dog.expired_count(), 0u);
}

TEST(Watchdog, LeaseDestructorWithdraws) {
  Watchdog dog;
  sim::CancelToken token;
  { auto lease = dog.watch(token, 100.0); }
  EXPECT_EQ(dog.active(), 0u);
  EXPECT_FALSE(token.cancelled());
}

TEST(Supervision, HungReplicationReportedAsDeadlineExceeded) {
  FakeEngine sweep(2);
  sweep.set_rep_deadline(0.05);
  sweep.set_retry_limit(0);
  // A livelocked replication: the simulator spins through an endless
  // event chain until the watchdog flips the token, then surfaces the
  // abort exactly like Scenario::run() does.
  sweep.body = [](const ScenarioConfig&, sim::CancelToken* cancel) {
    EXPECT_NE(cancel, nullptr);
    sim::Simulator s;
    s.set_cancel_token(cancel, 64);
    std::function<void()> chain = [&] { s.schedule(sim::Time::seconds(1), chain); };
    s.schedule(sim::Time::seconds(1), chain);
    s.run_until(sim::Time::max());
    if (s.abort_reason() == sim::Simulator::AbortReason::kCancelled) {
      throw RunAborted(FailureKind::kDeadlineExceeded, "cancelled");
    }
    return fake_metrics(s.events_executed());
  };
  const std::size_t id = sweep.add_cell(tiny_config(7), 2, "hung");
  sweep.run();
  for (const RepOutcome& slot : sweep.cell(id)) {
    EXPECT_FALSE(slot.ok());
    EXPECT_EQ(slot.kind, FailureKind::kDeadlineExceeded);
    EXPECT_EQ(slot.attempts, 1u);
  }
  EXPECT_EQ(sweep.failed_count(), 2u);
  EXPECT_EQ(sweep.failure_counts()[static_cast<std::size_t>(
                FailureKind::kDeadlineExceeded)],
            2u);
}

TEST(Supervision, TransientFailureRetriedSameSeed) {
  FakeEngine sweep(1);
  sweep.set_retry_limit(2);
  std::atomic<int> calls{0};
  std::atomic<std::uint64_t> first_seed{0};
  sweep.body = [&](const ScenarioConfig& cfg, sim::CancelToken*) {
    const int n = ++calls;
    if (n == 1) {
      first_seed = cfg.seed;
      throw RunAborted(FailureKind::kDeadlineExceeded, "transient blip");
    }
    EXPECT_EQ(cfg.seed, first_seed.load());  // retry reuses the seed
    return fake_metrics(10);
  };
  const std::size_t id = sweep.add_cell(tiny_config(11), 1);
  sweep.run();
  const RepOutcome& slot = sweep.cell(id)[0];
  EXPECT_TRUE(slot.ok());
  EXPECT_EQ(slot.attempts, 2u);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(sweep.failed_count(), 0u);
}

TEST(Supervision, DeterministicFailureNeverRetried) {
  FakeEngine sweep(1);
  sweep.set_retry_limit(5);  // generous budget that must not be spent
  std::atomic<int> calls{0};
  sweep.body = [&](const ScenarioConfig&, sim::CancelToken*) -> RunMetrics {
    ++calls;
    throw std::runtime_error("same trace every time");
  };
  const std::size_t id = sweep.add_cell(tiny_config(13), 1);
  sweep.run();
  const RepOutcome& slot = sweep.cell(id)[0];
  EXPECT_FALSE(slot.ok());
  EXPECT_EQ(slot.kind, FailureKind::kException);
  EXPECT_EQ(slot.attempts, 1u);
  EXPECT_EQ(calls.load(), 1);
}

TEST(Supervision, RetriesExhaustedKeepsTransientKind) {
  FakeEngine sweep(1);
  sweep.set_retry_limit(2);
  std::atomic<int> calls{0};
  sweep.body = [&](const ScenarioConfig&, sim::CancelToken*) -> RunMetrics {
    ++calls;
    throw RunAborted(FailureKind::kDeadlineExceeded, "always hung");
  };
  const std::size_t id = sweep.add_cell(tiny_config(17), 1);
  sweep.run();
  const RepOutcome& slot = sweep.cell(id)[0];
  EXPECT_FALSE(slot.ok());
  EXPECT_EQ(slot.kind, FailureKind::kDeadlineExceeded);
  EXPECT_EQ(slot.attempts, 3u);  // initial + 2 retries
  EXPECT_EQ(calls.load(), 3);
}

TEST(Supervision, CheckTaintClassifiedAndKeepsMetrics) {
  FakeEngine sweep(1);
  sweep.body = [](const ScenarioConfig&, sim::CancelToken*) {
    RunMetrics m = fake_metrics(5);
    m.check_violations = 3;
    return m;
  };
  const std::size_t id = sweep.add_cell(tiny_config(19), 1);
  sweep.run();
  const RepOutcome& slot = sweep.cell(id)[0];
  EXPECT_FALSE(slot.ok());
  EXPECT_EQ(slot.kind, FailureKind::kCheckTaint);
  ASSERT_TRUE(slot.metrics.has_value());  // kept for inspection
  EXPECT_EQ(slot.metrics->check_violations, 3u);
  EXPECT_TRUE(sweep.cell_metrics(id).empty());  // excluded from stats
}

TEST(Supervision, SweepEventBudgetStopsLaterSlots) {
  FakeEngine sweep(1);  // 1 thread: slots complete in index order
  sweep.set_sweep_event_budget(250);
  sweep.body = [](const ScenarioConfig&, sim::CancelToken*) {
    return fake_metrics(100);
  };
  const std::size_t id = sweep.add_cell(tiny_config(23), 5);
  sweep.run();
  const auto slots = sweep.cell(id);
  // 100+100 < 250, third slot crosses the ceiling at 300: slots 0-2
  // ran, 3-4 were refused without executing.
  EXPECT_TRUE(slots[0].ok());
  EXPECT_TRUE(slots[1].ok());
  EXPECT_TRUE(slots[2].ok());
  for (std::size_t i = 3; i < 5; ++i) {
    EXPECT_FALSE(slots[i].ok());
    EXPECT_EQ(slots[i].kind, FailureKind::kEventBudgetExhausted);
    EXPECT_EQ(slots[i].attempts, 0u);  // never executed
  }
  EXPECT_EQ(sweep.failure_counts()[static_cast<std::size_t>(
                FailureKind::kEventBudgetExhausted)],
            2u);
}

TEST(Supervision, FailureCountsCoverEveryKind) {
  FakeEngine sweep(1);
  sweep.set_retry_limit(0);
  sweep.body = [](const ScenarioConfig& cfg, sim::CancelToken*) -> RunMetrics {
    switch (cfg.n_nodes) {
      case 1: return fake_metrics(1);
      case 2: throw std::runtime_error("boom");
      case 3: throw RunAborted(FailureKind::kDeadlineExceeded, "hung");
      case 4: throw RunAborted(FailureKind::kEventBudgetExhausted, "budget");
      default: throw std::bad_alloc();
    }
  };
  for (std::size_t n = 1; n <= 5; ++n) {
    ScenarioConfig cfg = tiny_config(29 + n);
    cfg.n_nodes = n;
    sweep.add_cell(cfg, 1);
  }
  sweep.run();
  const FailureCounts counts = sweep.failure_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(FailureKind::kNone)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(FailureKind::kException)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(FailureKind::kDeadlineExceeded)],
            1u);
  EXPECT_EQ(
      counts[static_cast<std::size_t>(FailureKind::kEventBudgetExhausted)],
      1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(FailureKind::kBadAlloc)], 1u);
  EXPECT_EQ(sweep.failed_count(), 4u);
  const std::string report = sweep.failure_report();
  EXPECT_NE(report.find("deadline_exceeded"), std::string::npos);
  EXPECT_NE(report.find("bad_alloc"), std::string::npos);
}

// The budget abort names the simulated time it stopped at: the clock of
// the engine that ran out, never the time the run started from.
TEST(Supervision, EventBudgetAbortReportsItsSimulatedTime) {
  for (const std::uint32_t shards : {0u, 2u}) {
    ScenarioConfig cfg;
    cfg.n_nodes = 25;
    cfg.area_width_m = 500.0;
    cfg.area_height_m = 500.0;
    cfg.traffic.n_flows = 4;
    cfg.warmup = sim::Time::seconds(1.0);
    cfg.traffic_time = sim::Time::seconds(4.0);
    cfg.event_budget = 20000;
    cfg.intra_run_shards = shards;
    Scenario s(cfg);
    try {
      s.run();
      ADD_FAILURE() << "shards " << shards << ": budget never tripped";
    } catch (const RunAborted& e) {
      EXPECT_EQ(e.kind(), FailureKind::kEventBudgetExhausted);
      const std::string what = e.what();
      const std::size_t at = what.find("t=");
      ASSERT_NE(at, std::string::npos) << what;
      EXPECT_GT(std::stod(what.substr(at + 2)), 0.0) << what;
    }
  }
}

TEST(Supervision, NoDeadlineMeansNoTokenAndNoWatchdog) {
  FakeEngine sweep(1);
  sweep.body = [](const ScenarioConfig&, sim::CancelToken* cancel) {
    EXPECT_EQ(cancel, nullptr);  // watchdog off: kernel stays untouched
    return fake_metrics(1);
  };
  sweep.add_cell(tiny_config(31), 1);
  sweep.run();
  EXPECT_EQ(sweep.failed_count(), 0u);
}

}  // namespace
}  // namespace wmn::exp
