#include "routing/route_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <vector>

#include "routing/flat_growth.hpp"

namespace wmn::routing {
namespace {

RouteEntry entry(std::uint32_t dest, std::uint32_t via, std::uint8_t hops,
                 sim::Time expires, std::uint32_t seqno = 1) {
  RouteEntry e;
  e.dest = net::Address(dest);
  e.next_hop = net::Address(via);
  e.hop_count = hops;
  e.dest_seqno = seqno;
  e.valid_seqno = true;
  e.state = RouteState::kValid;
  e.expires = expires;
  return e;
}

TEST(RouteTable, LookupFindsValidEntry) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  const RouteEntry* e = t.lookup(net::Address(5), sim::Time::seconds(1.0));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->next_hop, net::Address(2));
  EXPECT_EQ(e->hop_count, 3);
}

TEST(RouteTable, LookupMissesUnknownDest) {
  RouteTable t;
  EXPECT_EQ(t.lookup(net::Address(9), sim::Time::zero()), nullptr);
}

TEST(RouteTable, ExpiredEntryBecomesInvalidLazily) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  EXPECT_NE(t.lookup(net::Address(5), sim::Time::seconds(9.0)), nullptr);
  EXPECT_EQ(t.lookup(net::Address(5), sim::Time::seconds(10.0)), nullptr);
  // The dead entry still exists for its seqno.
  ASSERT_NE(t.find(net::Address(5)), nullptr);
  EXPECT_EQ(t.find(net::Address(5))->state, RouteState::kInvalid);
}

TEST(RouteTable, InvalidateBumpsSeqno) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0), 7));
  const auto inv = t.invalidate(net::Address(5), sim::Time::seconds(1.0));
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(inv->dest_seqno, 8u);  // 7 + 1
  EXPECT_EQ(t.lookup(net::Address(5), sim::Time::seconds(1.0)), nullptr);
}

TEST(RouteTable, InvalidateMissingOrInvalidReturnsNothing) {
  RouteTable t;
  EXPECT_FALSE(t.invalidate(net::Address(5), sim::Time::zero()).has_value());
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  (void)t.invalidate(net::Address(5), sim::Time::zero());
  EXPECT_FALSE(t.invalidate(net::Address(5), sim::Time::zero()).has_value());
}

TEST(RouteTable, TouchExtendsLifetime) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.touch(net::Address(5), sim::Time::seconds(20.0));
  EXPECT_NE(t.lookup(net::Address(5), sim::Time::seconds(15.0)), nullptr);
}

TEST(RouteTable, TouchNeverShortensLifetime) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.touch(net::Address(5), sim::Time::seconds(3.0));
  EXPECT_NE(t.lookup(net::Address(5), sim::Time::seconds(9.0)), nullptr);
}

TEST(RouteTable, DestsViaFindsAllRoutesThroughHop) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.upsert(entry(6, 2, 4, sim::Time::seconds(10.0)));
  t.upsert(entry(7, 3, 2, sim::Time::seconds(10.0)));
  auto dests = t.dests_via(net::Address(2), sim::Time::seconds(1.0));
  EXPECT_EQ(dests.size(), 2u);
}

TEST(RouteTable, DestsViaSkipsExpired) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(1.0)));
  EXPECT_TRUE(t.dests_via(net::Address(2), sim::Time::seconds(2.0)).empty());
}

TEST(RouteTable, PrecursorsAccumulate) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.add_precursor(net::Address(5), net::Address(8));
  t.add_precursor(net::Address(5), net::Address(9));
  t.add_precursor(net::Address(5), net::Address(8));  // dup
  // The list is kept sorted and duplicate-free — RERR precursor fanout
  // reads it in this normalised order.
  const std::vector<net::Address> expect{net::Address(8), net::Address(9)};
  EXPECT_EQ(t.find(net::Address(5))->precursors, expect);
}

TEST(RouteTable, RemovePrecursorScrubsEveryEntry) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.upsert(entry(6, 3, 2, sim::Time::seconds(10.0)));
  t.add_precursor(net::Address(5), net::Address(8));
  t.add_precursor(net::Address(5), net::Address(9));
  t.add_precursor(net::Address(6), net::Address(8));
  t.remove_precursor(net::Address(8));
  const std::vector<net::Address> expect{net::Address(9)};
  EXPECT_EQ(t.find(net::Address(5))->precursors, expect);
  EXPECT_TRUE(t.find(net::Address(6))->precursors.empty());
}

TEST(RouteTable, ClearDropsEverything) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.upsert(entry(6, 2, 3, sim::Time::seconds(10.0)));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(net::Address(5)), nullptr);
}

TEST(RouteTable, PurgeRemovesLongDeadEntries) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(1.0)));
  t.upsert(entry(6, 2, 3, sim::Time::seconds(100.0)));
  // At t=2 the first entry expires; retention 10 s.
  t.purge(sim::Time::seconds(2.0), sim::Time::seconds(10.0));
  EXPECT_EQ(t.size(), 2u);  // freshly dead, still retained
  t.purge(sim::Time::seconds(13.0), sim::Time::seconds(10.0));
  EXPECT_EQ(t.size(), 1u);  // dead entry reclaimed
  EXPECT_NE(t.find(net::Address(6)), nullptr);
}

TEST(RouteTable, UpsertOverwrites) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.upsert(entry(5, 4, 1, sim::Time::seconds(10.0)));
  const RouteEntry* e = t.lookup(net::Address(5), sim::Time::zero());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->next_hop, net::Address(4));
  EXPECT_EQ(t.size(), 1u);
}

TEST(RouteTable, MemoryBytesChargesSlotsAtCapacity) {
  RouteTable t;
  std::size_t last_capacity = 0;
  for (std::uint32_t d = 1; d <= 100; ++d) {
    t.upsert(entry(d * 7 % 101, 2, 3, sim::Time::seconds(10.0)));
    if (d % 3 == 0) t.add_precursor(net::Address(d * 7 % 101), net::Address(d));
    // Growth is the ~1.25x flat step, never std::vector's doubling.
    if (t.capacity() != last_capacity) {
      EXPECT_EQ(t.capacity(), flat_grown_capacity(last_capacity));
      last_capacity = t.capacity();
    }
    std::size_t precursor_bytes = 0;
    for (std::uint32_t a = 0; a <= 101; ++a) {
      if (const RouteEntry* e = t.find(net::Address(a)); e != nullptr) {
        precursor_bytes += e->precursors.capacity() * sizeof(net::Address);
      }
    }
    EXPECT_EQ(t.memory_bytes(),
              sizeof(RouteTable) + t.capacity() * 56 + precursor_bytes);
  }
  EXPECT_LT(t.capacity(), 100u * 5 / 4 + kFlatGrowthMinStep);
}

// Reference model for the differential test below: the table's
// documented semantics over an ordered map.
class ModelTable {
 public:
  const RouteEntry* lookup(net::Address dest, sim::Time now) {
    RouteEntry* e = find(dest);
    if (e == nullptr) return nullptr;
    if (e->state == RouteState::kValid && e->expires <= now) {
      e->state = RouteState::kInvalid;
      e->expires = now;
    }
    return e->state == RouteState::kValid ? e : nullptr;
  }
  RouteEntry* find(net::Address dest) {
    auto it = m_.find(dest);
    return it == m_.end() ? nullptr : &it->second;
  }
  void upsert(const RouteEntry& e) { m_[e.dest] = e; }
  void touch(net::Address dest, sim::Time expires) {
    RouteEntry* e = find(dest);
    if (e == nullptr || e->state != RouteState::kValid) return;
    if (e->expires < expires) e->expires = expires;
  }
  std::optional<RouteEntry> invalidate(net::Address dest, sim::Time now) {
    RouteEntry* e = find(dest);
    if (e == nullptr || e->state != RouteState::kValid) return std::nullopt;
    e->state = RouteState::kInvalid;
    if (e->valid_seqno) ++e->dest_seqno;
    e->expires = now;
    return *e;
  }
  std::vector<net::Address> dests_via(net::Address via, sim::Time now) const {
    std::vector<net::Address> out;
    for (const auto& [dest, e] : m_) {
      if (e.state == RouteState::kValid && e.expires > now &&
          e.next_hop == via) {
        out.push_back(dest);
      }
    }
    return out;
  }
  void add_precursor(net::Address dest, net::Address p) {
    RouteEntry* e = find(dest);
    if (e == nullptr) return;
    if (std::find(e->precursors.begin(), e->precursors.end(), p) ==
        e->precursors.end()) {
      e->precursors.push_back(p);
      std::sort(e->precursors.begin(), e->precursors.end());
    }
  }
  void remove_precursor(net::Address p) {
    for (auto& [dest, e] : m_) std::erase(e.precursors, p);
  }
  void purge(sim::Time now, sim::Time retention) {
    for (auto it = m_.begin(); it != m_.end();) {
      RouteEntry& e = it->second;
      if (e.state == RouteState::kValid && e.expires <= now) {
        e.state = RouteState::kInvalid;
        e.expires = now;
      } else if (e.state == RouteState::kInvalid &&
                 e.expires + retention <= now) {
        it = m_.erase(it);
        continue;
      }
      ++it;
    }
  }
  void clear() { m_.clear(); }
  [[nodiscard]] std::size_t size() const { return m_.size(); }

 private:
  std::map<net::Address, RouteEntry> m_;
};

bool same_entry(const RouteEntry* a, const RouteEntry* b) {
  if (a == nullptr || b == nullptr) return a == b;
  return a->dest == b->dest && a->next_hop == b->next_hop &&
         a->hop_count == b->hop_count && a->dest_seqno == b->dest_seqno &&
         a->valid_seqno == b->valid_seqno && a->state == b->state &&
         a->expires == b->expires && a->metric == b->metric &&
         a->precursors == b->precursors;
}

TEST(RouteTable, MatchesOrderedMapModelOnRandomOperations) {
  constexpr std::uint32_t kDests = 48;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::uint32_t n) {
      return static_cast<std::uint32_t>(rng() % n);
    };
    RouteTable t;
    ModelTable m;
    sim::Time now = sim::Time::zero();
    for (int step = 0; step < 3000; ++step) {
      now = now + sim::Time::millis(static_cast<double>(pick(200)));
      const net::Address dest(1 + pick(kDests));
      const net::Address other(1 + pick(kDests));
      switch (pick(10)) {
        case 0:
        case 1: {
          RouteEntry e = entry(dest.value(), other.value(),
                               static_cast<std::uint8_t>(1 + pick(8)),
                               now + sim::Time::millis(pick(5000)), pick(100));
          e.valid_seqno = pick(4) != 0;
          e.metric = pick(1000) / 7.0;
          if (pick(3) == 0) e.state = RouteState::kInvalid;
          for (std::uint32_t k = pick(4); k > 0; --k) {
            e.precursors.push_back(net::Address(1 + pick(kDests)));
          }
          std::sort(e.precursors.begin(), e.precursors.end());
          e.precursors.erase(
              std::unique(e.precursors.begin(), e.precursors.end()),
              e.precursors.end());
          t.upsert(e);
          m.upsert(e);
          break;
        }
        case 2:
          ASSERT_TRUE(same_entry(t.lookup(dest, now), m.lookup(dest, now)));
          break;
        case 3:
          ASSERT_TRUE(same_entry(t.find(dest), m.find(dest)));
          break;
        case 4: {
          const sim::Time until = now + sim::Time::millis(pick(5000));
          t.touch(dest, until);
          m.touch(dest, until);
          break;
        }
        case 5: {
          const auto a = t.invalidate(dest, now);
          const auto b = m.invalidate(dest, now);
          ASSERT_EQ(a.has_value(), b.has_value());
          if (a) {
            ASSERT_TRUE(same_entry(&*a, &*b));
          }
          break;
        }
        case 6:
          ASSERT_EQ(t.dests_via(other, now), m.dests_via(other, now));
          break;
        case 7:
          t.add_precursor(dest, other);
          m.add_precursor(dest, other);
          break;
        case 8:
          t.remove_precursor(other);
          m.remove_precursor(other);
          break;
        case 9:
          if (pick(20) == 0) {
            t.clear();
            m.clear();
          } else {
            const sim::Time retention = sim::Time::millis(pick(3000));
            t.purge(now, retention);
            m.purge(now, retention);
          }
          break;
      }
      ASSERT_EQ(t.size(), m.size()) << "seed " << seed << " step " << step;
      for (std::uint32_t d = 1; d <= kDests; ++d) {
        ASSERT_TRUE(
            same_entry(t.find(net::Address(d)), m.find(net::Address(d))))
            << "seed " << seed << " step " << step << " dest " << d;
      }
    }
  }
}

}  // namespace
}  // namespace wmn::routing
