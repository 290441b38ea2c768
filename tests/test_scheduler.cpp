#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "lane_testing.hpp"
#include "sim/rng.hpp"

namespace wmn::sim {
namespace {

TEST(Scheduler, StartsEmpty) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.next_time(), Time::max());
}

TEST(Scheduler, PopsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(Time::seconds(3.0), [&] { order.push_back(3); });
  s.schedule(Time::seconds(1.0), [&] { order.push_back(1); });
  s.schedule(Time::seconds(2.0), [&] { order.push_back(2); });
  while (!s.empty()) s.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SameTimeIsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(Time::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  while (!s.empty()) s.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule(Time::seconds(1.0), [&] { ran = true; });
  EXPECT_TRUE(s.pending(id));
  s.cancel(id);
  EXPECT_FALSE(s.pending(id));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next_time(), Time::max());
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelMiddleKeepsOthers) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(Time::seconds(1.0), [&] { order.push_back(1); });
  const EventId mid = s.schedule(Time::seconds(2.0), [&] { order.push_back(2); });
  s.schedule(Time::seconds(3.0), [&] { order.push_back(3); });
  s.cancel(mid);
  EXPECT_EQ(s.size(), 2u);
  while (!s.empty()) s.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  const EventId id = s.schedule(Time::seconds(1.0), [] {});
  s.schedule(Time::seconds(2.0), [] {});
  (void)s.pop();
  s.cancel(id);  // already fired
  EXPECT_EQ(s.size(), 1u);  // the second event must survive
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler s;
  s.cancel(EventId{});
  s.cancel(EventId{999});
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, DoubleCancelIsNoop) {
  Scheduler s;
  const EventId id = s.schedule(Time::seconds(1.0), [] {});
  s.schedule(Time::seconds(2.0), [] {});
  s.cancel(id);
  s.cancel(id);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Scheduler, NextTimeSkipsCancelledTop) {
  Scheduler s;
  const EventId early = s.schedule(Time::seconds(1.0), [] {});
  s.schedule(Time::seconds(5.0), [] {});
  s.cancel(early);
  EXPECT_EQ(s.next_time(), Time::seconds(5.0));
}

TEST(Scheduler, ClearDropsEverything) {
  Scheduler s;
  for (int i = 0; i < 10; ++i) s.schedule(Time::seconds(i), [] {});
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next_time(), Time::max());
}

TEST(Scheduler, TotalScheduledCounts) {
  Scheduler s;
  for (int i = 0; i < 5; ++i) s.schedule(Time::zero(), [] {});
  EXPECT_EQ(s.total_scheduled(), 5u);
}

// EventIds carry a generation tag: an id whose slot was recycled must
// go stale rather than aliasing the event now occupying the slot.
TEST(Scheduler, StaleIdAfterFireCannotCancelRecycledSlot) {
  Scheduler s;
  const EventId old_id = s.schedule(Time::seconds(1.0), [] {});
  (void)s.pop();  // fires, releasing the slot to the free list
  bool ran = false;
  const EventId new_id = s.schedule(Time::seconds(2.0), [&] { ran = true; });
  s.cancel(old_id);  // stale: must NOT hit the recycled slot
  EXPECT_FALSE(s.pending(old_id));
  EXPECT_TRUE(s.pending(new_id));
  ASSERT_EQ(s.size(), 1u);
  s.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, StaleIdAfterCancelCannotCancelRecycledSlot) {
  Scheduler s;
  const EventId old_id = s.schedule(Time::seconds(1.0), [] {});
  s.cancel(old_id);
  bool ran = false;
  const EventId new_id = s.schedule(Time::seconds(2.0), [&] { ran = true; });
  EXPECT_NE(old_id.value(), 0u);
  s.cancel(old_id);  // second cancel through a recycled slot
  EXPECT_TRUE(s.pending(new_id));
  ASSERT_EQ(s.size(), 1u);
  s.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, GenerationsSurviveManyRecycles) {
  Scheduler s;
  // Cycle one slot a thousand times; each retired id must stay dead.
  std::vector<EventId> dead;
  for (int i = 0; i < 1000; ++i) {
    const EventId id = s.schedule(Time::nanos(i), [] {});
    for (const EventId old_id : dead) EXPECT_FALSE(s.pending(old_id));
    EXPECT_TRUE(s.pending(id));
    (void)s.pop();
    dead.push_back(id);
    if (dead.size() > 8) dead.erase(dead.begin());  // keep the loop O(n)
  }
}

TEST(Scheduler, CancelDestroysCallableEagerly) {
  // O(1) cancel must release the capture immediately, not at pop time:
  // a cancelled retransmit timer should drop its packet reference now.
  Scheduler s;
  auto token = std::make_shared<int>(42);
  const EventId id = s.schedule(Time::seconds(1.0), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  s.cancel(id);
  EXPECT_EQ(token.use_count(), 1);
  s.clear();
}

// Property: random inserts with random cancellations still pop sorted.
class SchedulerStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerStress, RandomWorkloadPopsSorted) {
  Scheduler s;
  RngStream rng(GetParam(), 0);
  std::vector<EventId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(s.schedule(
        Time::nanos(static_cast<std::int64_t>(rng.uniform_u64(0, 1'000'000))),
        [] {}));
  }
  // Cancel a random third.
  for (const EventId id : ids) {
    if (rng.bernoulli(1.0 / 3.0)) s.cancel(id);
  }
  Time prev = Time::zero();
  std::size_t popped = 0;
  while (!s.empty()) {
    const auto fired = s.pop();
    EXPECT_GE(fired.at, prev);
    prev = fired.at;
    ++popped;
  }
  EXPECT_GT(popped, 2500u);
  EXPECT_LT(popped, 4500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStress,
                         ::testing::Values(1, 2, 3, 17, 99));

// --- arrival lanes ------------------------------------------------------

using SchedLane = lane_testing::TestLane<Scheduler>;

// How a LaneWorld schedules its transmission-shaped runs.
enum class RunMode {
  kLanes,           // one lane per run, seqs reserved as a block
  kSortedSchedule,  // plain schedule() per element, in arrival order
  kAttachSchedule,  // plain schedule() per element, in attach order
};

// One world of the lane differential test. Every world executes the
// same seeded script: an element's actions come from a stream keyed by
// its payload id, and payload ids are handed out in creation order, so
// two worlds take identical actions exactly as long as they pop the
// same elements in the same order. A "transmission" opens 0-6
// receivers with begin elements 0-3 ns out (ties everywhere); a begin
// may push its end `duration` (0-5 ns, so sometimes before the run's
// later begins) after itself, between two bursts of ordinary work —
// the way WifiPhy::begin_arrival schedules its end between the MAC
// upcall and the CCA refresh.
class LaneWorld {
 public:
  struct Pop {
    std::int64_t at;
    std::uint64_t seq;
    std::uint32_t payload;
    std::size_t pending;  // size() right after the pop
    bool operator==(const Pop&) const = default;
  };

  LaneWorld(RunMode mode, std::uint64_t seed) : mode_(mode), seed_(seed) {}

  std::vector<Pop> run() {
    for (int i = 0; i < 4; ++i) ordinary(Time::nanos(i % 2));
    Time prev = Time::zero();
    while (!s_.empty()) {
      auto fired = s_.pop();
      EXPECT_GE(fired.at, prev);
      prev = now_ = fired.at;
      seq_ = fired.seq;
      fired.fn();
    }
    EXPECT_EQ(s_.size(), 0u);
    return log_;
  }

  [[nodiscard]] std::uint64_t total_scheduled() const {
    return s_.total_scheduled();
  }
  [[nodiscard]] std::size_t lanes_opened() const { return lanes_.size(); }

 private:
  static constexpr std::size_t kMaxPayloads = 3000;
  enum class Role { kOrdinary, kBegin, kEnd };
  struct Info {
    Role role = Role::kOrdinary;
    std::size_t lane = 0;
    Time duration{};
    bool has_end = false;
    EventId id{};
  };

  std::uint32_t new_payload(const Info& info) {
    infos_.push_back(info);
    return static_cast<std::uint32_t>(infos_.size() - 1);
  }

  void ordinary(Time at) {
    const std::uint32_t p = new_payload(Info{});
    infos_[p].id = s_.schedule(at, [this, p] { on_element(p); });
  }

  void transmission(RngStream& rng) {
    struct Rx {
      Time at;
      std::uint32_t attach;
      bool has_end;
    };
    const auto n = static_cast<std::uint32_t>(rng.uniform_u64(0, 6));
    const Time duration = Time::nanos(rng.uniform_i64(0, 5));
    std::vector<Rx> rxs;
    for (std::uint32_t i = 0; i < n; ++i) {
      rxs.push_back(Rx{now_ + Time::nanos(rng.uniform_i64(0, 3)), i,
                       rng.bernoulli(0.8)});
    }
    std::vector<Rx> sorted = rxs;
    std::sort(sorted.begin(), sorted.end(), [](const Rx& a, const Rx& b) {
      return a.at != b.at ? a.at < b.at : a.attach < b.attach;
    });
    // Payload ids follow arrival order in every mode.
    std::vector<std::uint32_t> payload_of(n);
    for (const Rx& rx : sorted) {
      payload_of[rx.attach] = new_payload(
          Info{Role::kBegin, lanes_.size(), duration, rx.has_end, {}});
    }
    const auto plain = [this, &payload_of](const Rx& rx) {
      const std::uint32_t p = payload_of[rx.attach];
      s_.schedule(rx.at, [this, p] { on_element(p); });
    };
    switch (mode_) {
      case RunMode::kLanes: {
        lanes_.push_back(std::make_unique<SchedLane>(
            s_, [this](std::uint32_t p) { on_element(p); }));
        const std::uint64_t first = s_.reserve_seqs(n);
        std::vector<std::pair<Lane::Key, std::uint32_t>> batch;
        for (std::uint32_t j = 0; j < n; ++j) {
          batch.push_back({Lane::Key{sorted[j].at, first + j},
                           payload_of[sorted[j].attach]});
        }
        lanes_.back()->push(batch);  // n == 0: a lane of size 0
        break;
      }
      case RunMode::kSortedSchedule:
        for (const Rx& rx : sorted) plain(rx);
        break;
      case RunMode::kAttachSchedule:
        for (const Rx& rx : rxs) plain(rx);
        break;
    }
  }

  void push_end(const Info& begin) {
    const std::uint32_t e =
        new_payload(Info{Role::kEnd, begin.lane, {}, false, {}});
    const Time at = now_ + begin.duration;
    if (mode_ == RunMode::kLanes) {
      const std::uint64_t seq = s_.reserve_seqs(1);
      lanes_[begin.lane]->push({{Lane::Key{at, seq}, e}});
    } else {
      s_.schedule(at, [this, e] { on_element(e); });
    }
  }

  void spawn(RngStream& rng) {
    if (infos_.size() >= kMaxPayloads) return;
    if (rng.bernoulli(0.3)) ordinary(now_ + Time::nanos(rng.uniform_i64(0, 4)));
    if (rng.bernoulli(0.2)) transmission(rng);
    if (rng.bernoulli(0.1)) {
      const Info& victim = infos_[rng.index(infos_.size())];
      if (victim.role == Role::kOrdinary) s_.cancel(victim.id);
    }
  }

  void on_element(std::uint32_t p) {
    log_.push_back(Pop{now_.ns(), seq_, p, s_.size()});
    RngStream rng(seed_, p);
    const Info info = infos_[p];  // infos_ grows below
    spawn(rng);
    if (info.role == Role::kBegin && info.has_end) push_end(info);
    spawn(rng);
  }

  RunMode mode_;
  std::uint64_t seed_;
  Scheduler s_;  // outlives the lanes registered with it
  std::vector<std::unique_ptr<SchedLane>> lanes_;
  std::vector<Info> infos_;
  std::vector<Pop> log_;
  Time now_{};
  std::uint64_t seq_ = 0;
};

class LaneDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// Lanes are exact: the same logical events through lanes and through
// plain schedule() pop as identical (time, seq, payload) sequences, and
// size() counts the same logical events throughout.
TEST_P(LaneDifferential, LanesPopLikePlainSchedule) {
  LaneWorld lanes(RunMode::kLanes, GetParam());
  LaneWorld plain(RunMode::kSortedSchedule, GetParam());
  const auto a = lanes.run();
  const auto b = plain.run();
  EXPECT_GT(a.size(), 1000u);
  EXPECT_GT(lanes.lanes_opened(), 50u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {
      ADD_FAILURE() << "first divergence at pop " << i << ": lane ("
                    << a[i].at << ", " << a[i].seq << ", " << a[i].payload
                    << ") vs plain (" << b[i].at << ", " << b[i].seq << ", "
                    << b[i].payload << ")";
      break;
    }
  }
  EXPECT_EQ(lanes.total_scheduled(), plain.total_scheduled());
}

// Handing a run's sequence block out in arrival order instead of attach
// order changes the numbers, never the pop order: no outside event can
// draw a number inside the block.
TEST_P(LaneDifferential, SortedSeqBlockPopsLikeAttachOrder) {
  LaneWorld lanes(RunMode::kLanes, GetParam());
  LaneWorld attach(RunMode::kAttachSchedule, GetParam());
  const auto a = lanes.run();
  const auto b = attach.run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::tie(a[i].at, a[i].payload, a[i].pending),
              std::tie(b[i].at, b[i].payload, b[i].pending))
        << "pop " << i;
  }
  EXPECT_EQ(lanes.total_scheduled(), attach.total_scheduled());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SchedulerLane, EmptyLaneAndLaneOfOne) {
  Scheduler s;
  std::vector<std::uint32_t> ran;
  SchedLane empty(s, [&](std::uint32_t p) { ran.push_back(p); });
  SchedLane one(s, [&](std::uint32_t p) { ran.push_back(p); });
  empty.push({});
  s.lane_push(LaneId{0}, Lane::Key{Time::nanos(1), 1}, 0);  // count 0: no-op
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next_time(), Time::max());

  s.schedule(Time::nanos(5), [&] { ran.push_back(100); });
  one.push({{Lane::Key{Time::nanos(5), s.reserve_seqs(1)}, 7}});
  EXPECT_EQ(s.size(), 2u);
  while (!s.empty()) s.pop().fn();
  // Same instant: the ordinary event drew the earlier sequence number.
  EXPECT_EQ(ran, (std::vector<std::uint32_t>{100, 7}));
  EXPECT_EQ(s.total_scheduled(), 2u);
}

TEST(SchedulerLane, PushEarlierThanHeadReKeysTheLane) {
  Scheduler s;
  std::vector<std::uint32_t> ran;
  SchedLane lane(s, [&](std::uint32_t p) { ran.push_back(p); });
  const std::uint64_t first = s.reserve_seqs(2);
  lane.push({{Lane::Key{Time::nanos(10), first}, 1},
             {Lane::Key{Time::nanos(30), first + 1}, 2}});
  s.schedule(Time::nanos(20), [&] { ran.push_back(3); });
  // Pop element 1, then push one keyed before the lane's new head (30)
  // and the ordinary event (20): the lane must surface it first.
  s.pop().fn();
  lane.push({{Lane::Key{Time::nanos(15), s.reserve_seqs(1)}, 4}});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.next_time(), Time::nanos(15));
  while (!s.empty()) s.pop().fn();
  EXPECT_EQ(ran, (std::vector<std::uint32_t>{1, 4, 3, 2}));
}

TEST(SchedulerLane, ClearDiscardsLanesInFlight) {
  Scheduler s;
  int ran = 0;
  SchedLane a(s, [&](std::uint32_t) { ++ran; });
  SchedLane b(s, [&](std::uint32_t) { ++ran; });
  auto token = std::make_shared<int>(1);
  s.schedule(Time::nanos(3), [token] {});
  const std::uint64_t first = s.reserve_seqs(3);
  a.push({{Lane::Key{Time::nanos(1), first}, 1},
          {Lane::Key{Time::nanos(2), first + 1}, 2},
          {Lane::Key{Time::nanos(4), first + 2}, 3}});
  b.push({{Lane::Key{Time::nanos(2), s.reserve_seqs(1)}, 4}});
  s.pop().fn();  // lane a, element 1
  ASSERT_EQ(s.size(), 4u);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.next_time(), Time::max());
  EXPECT_EQ(a.discarded(), 2u);
  EXPECT_EQ(b.discarded(), 1u);
  EXPECT_EQ(token.use_count(), 1);
  // The lanes stay registered and usable after a clear.
  a.push({{Lane::Key{Time::nanos(9), s.reserve_seqs(1)}, 5}});
  ASSERT_EQ(s.size(), 1u);
  s.pop().fn();
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerLane, RemovedLaneLeavesTheCalendar) {
  Scheduler s;
  int ran = 0;
  auto lane = std::make_unique<SchedLane>(s, [&](std::uint32_t) { ++ran; });
  const std::uint64_t first = s.reserve_seqs(2);
  lane->push({{Lane::Key{Time::nanos(1), first}, 1},
              {Lane::Key{Time::nanos(2), first + 1}, 2}});
  s.schedule(Time::nanos(3), [&] { ran += 10; });
  ASSERT_EQ(s.size(), 3u);
  lane.reset();  // unregisters: its elements leave size() at once
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.next_time(), Time::nanos(3));
  s.pop().fn();
  EXPECT_EQ(ran, 10);
  // The freed record is reused by the next lane without aliasing.
  SchedLane again(s, [&](std::uint32_t) { ++ran; });
  again.push({{Lane::Key{Time::nanos(4), s.reserve_seqs(1)}, 3}});
  s.pop().fn();
  EXPECT_EQ(ran, 11);
}

}  // namespace
}  // namespace wmn::sim
