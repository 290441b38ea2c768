#include "routing/neighbor_table.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.hpp"

namespace wmn::routing {
namespace {

TEST(NeighborTable, HeardAddsNeighbor) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  t.heard(net::Address(3), 1, 0.25, 7);
  EXPECT_TRUE(t.contains(net::Address(3)));
  EXPECT_EQ(t.count(), 1u);
  const NeighborInfo* info = t.info(net::Address(3));
  ASSERT_NE(info, nullptr);
  EXPECT_DOUBLE_EQ(info->load_index, 0.25);
  EXPECT_EQ(info->degree, 7);
}

TEST(NeighborTable, MeanLoadAveragesNeighbors) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  EXPECT_DOUBLE_EQ(t.mean_neighbor_load(), 0.0);  // alone
  t.heard(net::Address(1), 1, 0.2, 1);
  t.heard(net::Address(2), 1, 0.6, 1);
  EXPECT_DOUBLE_EQ(t.mean_neighbor_load(), 0.4);
}

TEST(NeighborTable, SilentNeighborExpiresAndFiresCallback) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  std::vector<net::Address> lost;
  t.set_loss_callback([&](net::Address a) { lost.push_back(a); });

  s.schedule(sim::Time::zero(), [&] { t.heard(net::Address(3), 1, 0.0, 0); });
  s.run_until(sim::Time::seconds(10.0));
  EXPECT_FALSE(t.contains(net::Address(3)));
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], net::Address(3));
}

TEST(NeighborTable, RefreshedNeighborSurvives) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  std::vector<net::Address> lost;
  t.set_loss_callback([&](net::Address a) { lost.push_back(a); });

  // Re-beacon every second for 10 seconds.
  for (int i = 0; i <= 10; ++i) {
    s.schedule_at(sim::Time::seconds(static_cast<double>(i)),
                  [&] { t.heard(net::Address(3), 1, 0.0, 0); });
  }
  s.run_until(sim::Time::seconds(10.5));
  EXPECT_TRUE(t.contains(net::Address(3)));
  EXPECT_TRUE(lost.empty());
}

TEST(NeighborTable, RefreshUpdatesLivenessOnly) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  s.schedule(sim::Time::zero(), [&] { t.heard(net::Address(3), 1, 0.5, 4); });
  // Refresh (data frame overheard) at 2 s keeps it alive past 2.5 s.
  s.schedule(sim::Time::seconds(2.0), [&] { t.refresh(net::Address(3)); });
  s.schedule(sim::Time::seconds(4.0), [&] {
    EXPECT_TRUE(t.contains(net::Address(3)));
    // Load/degree unchanged by refresh.
    EXPECT_DOUBLE_EQ(t.info(net::Address(3))->load_index, 0.5);
  });
  s.run_until(sim::Time::seconds(4.1));
}

TEST(NeighborTable, RefreshUnknownIsNoop) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  t.refresh(net::Address(42));
  EXPECT_EQ(t.count(), 0u);
}

TEST(NeighborTable, SnapshotListsAll) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  t.heard(net::Address(1), 1, 0.1, 1);
  t.heard(net::Address(2), 2, 0.2, 2);
  t.heard(net::Address(3), 3, 0.3, 3);
  EXPECT_EQ(t.snapshot().size(), 3u);
}

// A scripted table history: heard / refresh / pause / resume at fixed
// times, with the sweep timer expiring neighbours in between.
struct TableOp {
  enum Kind { kHeard, kRefresh, kPause, kResume } kind;
  sim::Time at;
  std::uint32_t addr;
  double load;
};

std::vector<TableOp> random_history(std::uint64_t seed) {
  sim::RngStream rng(seed, 17);
  std::vector<TableOp> ops;
  sim::Time t = sim::Time::zero();
  for (int i = 0; i < 120; ++i) {
    t += sim::Time::millis(rng.uniform(20.0, 400.0));
    const double u = rng.uniform01();
    const auto addr = static_cast<std::uint32_t>(rng.index(12));
    TableOp::Kind kind = TableOp::kHeard;
    if (u > 0.97) {
      kind = TableOp::kPause;
    } else if (u > 0.92) {
      kind = TableOp::kResume;
    } else if (u > 0.6) {
      kind = TableOp::kRefresh;
    }
    ops.push_back({kind, t, addr, rng.uniform(0.0, 3.0)});
  }
  return ops;
}

// Replays `ops` on a fresh table up to `until` and returns the mean
// load there. With `query_each_op` the mean is also read after every
// operation, so the memo is warm; without, the read at `until` is the
// table's first — a fresh computation over the same map state.
double mean_after(const std::vector<TableOp>& ops, sim::Time until,
                  bool query_each_op) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  for (const TableOp& op : ops) {
    if (op.at > until) break;
    s.schedule_at(op.at, [&t, &op, query_each_op] {
      switch (op.kind) {
        case TableOp::kHeard:
          t.heard(net::Address(op.addr), 1, op.load, 3);
          break;
        case TableOp::kRefresh:
          t.refresh(net::Address(op.addr));
          break;
        case TableOp::kPause:
          t.pause();
          break;
        case TableOp::kResume:
          t.resume();
          break;
      }
      if (query_each_op) static_cast<void>(t.mean_neighbor_load());
    });
  }
  s.run_until(until);
  return t.mean_neighbor_load();
}

TEST(NeighborTable, MeanLoadMemoEqualsFreshRecomputation) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<TableOp> ops = random_history(seed);
    for (std::size_t k = 0; k < ops.size(); k += 3) {
      // Between this op and the next the sweep may have expired
      // entries too; check just after the op and just before the next.
      const sim::Time at = ops[k].at;
      const sim::Time before_next =
          k + 1 < ops.size() ? ops[k + 1].at - sim::Time::nanos(1) : at;
      for (const sim::Time until : {at, before_next}) {
        EXPECT_EQ(mean_after(ops, until, true), mean_after(ops, until, false))
            << "seed " << seed << " op " << k;
      }
    }
  }
}

}  // namespace
}  // namespace wmn::routing
