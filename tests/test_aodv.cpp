// AODV engine integration tests on small deterministic topologies.
#include "routing/aodv.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "mobility/placement.hpp"
#include "phy/channel.hpp"
#include "routing/flat_growth.hpp"

namespace wmn::routing {
namespace {

using mobility::ConstantPositionModel;
using mobility::Vec2;

struct Delivery {
  std::uint64_t uid;
  net::Address origin;
  net::Address at;
};

// Per-node policy wiring for RoutingBed; the defaults are the flood
// baseline with first-arrival replies and zero load.
struct Policies {
  std::function<std::unique_ptr<RebroadcastPolicy>(std::size_t)> rebroadcast =
      [](std::size_t) { return std::make_unique<FloodPolicy>(); };
  std::function<std::unique_ptr<RouteSelectionPolicy>()> selection = [] {
    return std::make_unique<FirstArrivalSelection>();
  };
  std::function<std::unique_ptr<LoadSource>(std::size_t)> load =
      [](std::size_t) { return std::make_unique<ZeroLoadSource>(); };
};

// Full stacks (phy+mac+aodv) at fixed positions; default flood policy.
struct RoutingBed {
  explicit RoutingBed(std::vector<Vec2> positions, AodvConfig cfg = {},
                      std::uint64_t seed = 1, const Policies& policies = {})
      : sim(seed), channel(sim, std::make_unique<phy::LogDistanceModel>()) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      mobilities.push_back(std::make_unique<ConstantPositionModel>(positions[i]));
      phys.push_back(std::make_unique<phy::WifiPhy>(sim, phy::PhyConfig{}, id,
                                                    mobilities.back().get()));
      channel.attach(phys.back().get());
      macs.push_back(std::make_unique<mac::DcfMac>(
          sim, mac::MacConfig{}, net::Address(id), *phys.back(), factory));
      agents.push_back(std::make_unique<AodvAgent>(
          sim, cfg, net::Address(id), *macs.back(), factory,
          policies.rebroadcast(i), policies.selection(), policies.load(i)));
      agents.back()->set_deliver_callback(
          [this, id](net::Packet p, net::Address origin) {
            deliveries.push_back({p.uid(), origin, net::Address(id)});
          });
    }
  }

  // Moves node i effectively out of everyone's range.
  void exile(std::size_t i) {
    mobilities[i]->set_position(Vec2{1e7, 1e7});
  }

  void send(std::size_t from, std::size_t to, std::uint32_t bytes = 256) {
    net::Packet p = factory.make(bytes, sim.now());
    agents[from]->send(std::move(p), net::Address(static_cast<std::uint32_t>(to)));
  }

  // Advances in 1 ms steps until `done` holds (or `limit` passes), so a
  // test can stop inside a decision window it cannot time exactly.
  bool run_until_true(const std::function<bool()>& done, sim::Time limit) {
    while (!done()) {
      if (sim.now() >= limit) return false;
      sim.run_until(sim.now() + sim::Time::millis(1.0));
    }
    return true;
  }

  [[nodiscard]] std::size_t pending_rreqs() const {
    std::size_t n = 0;
    for (const auto& a : agents) n += a->pending_rreqs();
    return n;
  }

  [[nodiscard]] std::size_t delivered_at(std::size_t node) const {
    std::size_t n = 0;
    for (const auto& d : deliveries) {
      if (d.at == net::Address(static_cast<std::uint32_t>(node))) ++n;
    }
    return n;
  }

  sim::Simulator sim;
  phy::WirelessChannel channel;
  net::PacketFactory factory;
  std::vector<std::unique_ptr<ConstantPositionModel>> mobilities;
  std::vector<std::unique_ptr<phy::WifiPhy>> phys;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::vector<std::unique_ptr<AodvAgent>> agents;
  std::vector<Delivery> deliveries;
};

// 5-node line with 200 m spacing: each node reaches only its direct
// neighbours (250 m range), so 0 -> 4 needs a 4-hop route.
std::vector<Vec2> line5() { return mobility::line_placement(5, 200.0); }

// Diamond: source 0 reaches relays 1 and 2 (223 m), which reach each
// other (200 m) and destination 3 (223 m); 0 and 3 are 400 m apart, so
// every 0 -> 3 route goes through exactly one relay.
std::vector<Vec2> diamond() {
  return {{0, 0}, {200, 100}, {200, -100}, {400, 0}};
}

// Forwards every first copy after a fixed delay, so a test decides the
// order in which a destination hears the relays' copies.
class FixedDelayForward final : public RebroadcastPolicy {
 public:
  explicit FixedDelayForward(sim::Time delay) : delay_(delay) {}
  RebroadcastDecision decide(const RebroadcastContext&,
                             sim::RngStream&) override {
    return {RebroadcastAction::kForward, delay_};
  }
  [[nodiscard]] std::string name() const override { return "fixed-delay"; }

 private:
  sim::Time delay_;
};

class FixedLoad final : public LoadSource {
 public:
  explicit FixedLoad(double load) : load_(load) {}
  [[nodiscard]] double load_index() const override { return load_; }

 private:
  double load_;
};

// Counter-based suppression (the `cb` protocol's policy) at every node.
Policies counter_policies(std::uint32_t threshold) {
  Policies p;
  p.rebroadcast = [threshold](std::size_t) {
    return std::make_unique<CounterPolicy>(threshold);
  };
  return p;
}

TEST(Aodv, DiscoversMultiHopRouteAndDelivers) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 1u);
  EXPECT_EQ(tb.agents[0]->counters().discovery_succeeded, 1u);
  // Intermediate nodes forwarded data.
  EXPECT_GE(tb.agents[1]->counters().data_forwarded, 1u);
  EXPECT_GE(tb.agents[3]->counters().data_forwarded, 1u);
}

TEST(Aodv, RouteIsReusedForSubsequentPackets) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  for (int i = 0; i < 10; ++i) {
    tb.sim.schedule(sim::Time::seconds(2.0 + i * 0.1), [&] { tb.send(0, 4); });
  }
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 11u);
  // One discovery serves all packets.
  EXPECT_EQ(tb.agents[0]->counters().discovery_started, 1u);
}

TEST(Aodv, PacketsBufferedDuringDiscovery) {
  RoutingBed tb(line5());
  // Burst before any route exists: all must arrive after discovery.
  tb.sim.schedule(sim::Time::seconds(1.0), [&] {
    for (int i = 0; i < 5; ++i) tb.send(0, 4);
  });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 5u);
  EXPECT_EQ(tb.agents[0]->counters().discovery_started, 1u);
}

TEST(Aodv, DeliveryToSelfIsImmediate) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(2, 2); });
  tb.sim.run_until(sim::Time::seconds(2.0));
  EXPECT_EQ(tb.delivered_at(2), 1u);
  EXPECT_EQ(tb.agents[2]->counters().rreq_originated, 0u);
}

TEST(Aodv, HelloBuildsNeighborTables) {
  RoutingBed tb(line5());
  tb.sim.run_until(sim::Time::seconds(5.0));
  // Middle node hears both direct neighbours; end nodes hear one.
  EXPECT_EQ(tb.agents[2]->neighbors().count(), 2u);
  EXPECT_EQ(tb.agents[0]->neighbors().count(), 1u);
  EXPECT_EQ(tb.agents[4]->neighbors().count(), 1u);
}

TEST(Aodv, UnreachableDestinationFailsDiscovery) {
  RoutingBed tb(line5());
  tb.exile(4);
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(15.0));
  EXPECT_EQ(tb.delivered_at(4), 0u);
  EXPECT_EQ(tb.agents[0]->counters().discovery_failed, 1u);
  // All attempts were made (initial + retries).
  EXPECT_EQ(tb.agents[0]->counters().rreq_originated, 1u + AodvConfig{}.rreq_retries);
}

TEST(Aodv, LinkBreakTriggersRerrAndRediscovery) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  // Break the route: node 3 vanishes after the route is up.
  tb.sim.schedule(sim::Time::seconds(3.0), [&] { tb.exile(3); });
  // New traffic must fail over; 0->2 still works.
  tb.sim.schedule(sim::Time::seconds(6.0), [&] { tb.send(0, 2); });
  tb.sim.run_until(sim::Time::seconds(20.0));
  EXPECT_EQ(tb.delivered_at(2), 1u);
  // Someone detected the break and sent RERR.
  std::uint64_t rerrs = 0;
  for (const auto& a : tb.agents) rerrs += a->counters().rerr_sent;
  EXPECT_GE(rerrs, 1u);
}

TEST(Aodv, IntermediateNodeAnswersFromCache) {
  RoutingBed tb(line5());
  // First, 1 -> 4 builds state at nodes 1..4.
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(1, 4); });
  // Then 0 asks for 4: node 1 can answer from cache.
  tb.sim.schedule(sim::Time::seconds(3.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 2u);
  std::uint64_t cached = 0;
  for (const auto& a : tb.agents) cached += a->counters().rrep_intermediate;
  EXPECT_GE(cached, 1u);
}

TEST(Aodv, TtlLimitsDataPropagation) {
  AodvConfig cfg;
  cfg.data_ttl = 2;  // 0 -> 4 needs 4 hops; TTL 2 cannot make it
  RoutingBed tb(line5(), cfg);
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 0u);
  std::uint64_t ttl_drops = 0;
  for (const auto& a : tb.agents) ttl_drops += a->counters().data_dropped_ttl;
  EXPECT_GE(ttl_drops, 1u);
}

TEST(Aodv, BidirectionalFlowsBothDeliver) {
  RoutingBed tb(line5());
  // Staggered starts: simultaneous first RREQs from marginal-SINR
  // endpoints can legitimately collide (hidden-interferer geometry).
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.schedule(sim::Time::seconds(1.3), [&] { tb.send(4, 0); });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 1u);
  EXPECT_EQ(tb.delivered_at(0), 1u);
}

TEST(Aodv, StarTopologyAllPairsThroughHub) {
  // Hub at centre, 4 leaves 200 m out in each direction: leaves cannot
  // hear each other (283-400 m apart), all pairs route via the hub.
  RoutingBed tb({{0, 0}, {200, 0}, {-200, 0}, {0, 200}, {0, -200}});
  tb.sim.schedule(sim::Time::seconds(1.0), [&] {
    tb.send(1, 2);
    tb.send(3, 4);
  });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(2), 1u);
  EXPECT_EQ(tb.delivered_at(4), 1u);
  EXPECT_GE(tb.agents[0]->counters().data_forwarded, 2u);
}

TEST(Aodv, NeighborLossViaHelloSilenceInvalidatesRoutes) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.schedule(sim::Time::seconds(3.0), [&] { tb.exile(1); });
  tb.sim.run_until(sim::Time::seconds(12.0));
  // Node 0 must have noticed neighbour 1 vanished.
  EXPECT_FALSE(tb.agents[0]->neighbors().contains(net::Address(1)));
  // And the route to 4 via 1 must no longer be valid.
  EXPECT_EQ(tb.agents[0]->routes().lookup(net::Address(4), tb.sim.now()),
            nullptr);
}

TEST(Aodv, CountersAreConsistent) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(10.0));
  const auto& c0 = tb.agents[0]->counters();
  EXPECT_EQ(c0.data_originated, 1u);
  EXPECT_EQ(c0.discovery_started, c0.discovery_succeeded + c0.discovery_failed);
  // Every node's RREQ receive count >= forward count.
  for (const auto& a : tb.agents) {
    const auto& c = a->counters();
    EXPECT_LE(c.rreq_forwarded + c.rreq_suppressed, c.rreq_received);
  }
}

TEST(Aodv, ExpandingRingFindsNearDestinationCheaply) {
  AodvConfig ers;
  ers.expanding_ring = true;
  ers.ers_ttl_start = 2;
  ers.ers_ttl_increment = 2;
  ers.ers_ttl_threshold = 4;
  // Destination one hop east; a long tail stretches west. A network-
  // wide RREQ floods the whole tail; a TTL-2 ring stops at the first
  // tail node.
  const std::vector<Vec2> branch{{0, 0},     {200, 0},   {-200, 0},
                                 {-400, 0},  {-600, 0},  {-800, 0}};
  RoutingBed with_ers(branch, ers);
  RoutingBed without(branch);
  // Send before the first HELLOs so a discovery is actually needed.
  with_ers.sim.schedule(sim::Time::millis(5.0), [&] { with_ers.send(0, 1); });
  without.sim.schedule(sim::Time::millis(5.0), [&] { without.send(0, 1); });
  with_ers.sim.run_until(sim::Time::seconds(8.0));
  without.sim.run_until(sim::Time::seconds(8.0));
  EXPECT_EQ(with_ers.delivered_at(1), 1u);
  EXPECT_EQ(without.delivered_at(1), 1u);
  auto total_rreq = [](RoutingBed& tb) {
    std::uint64_t n = 0;
    for (const auto& a : tb.agents) {
      n += a->counters().rreq_forwarded + a->counters().rreq_originated;
    }
    return n;
  };
  // The TTL-2 ring cannot storm the whole line; classic discovery does.
  EXPECT_LT(total_rreq(with_ers), total_rreq(without));
}

TEST(Aodv, ExpandingRingStillReachesFarDestination) {
  AodvConfig ers;
  ers.expanding_ring = true;
  ers.ers_ttl_start = 1;
  ers.ers_ttl_increment = 2;
  ers.ers_ttl_threshold = 3;
  RoutingBed tb(line5(), ers);
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(15.0));
  // Rings 1 and 3 fail; the network-wide attempt succeeds.
  EXPECT_EQ(tb.delivered_at(4), 1u);
  EXPECT_GE(tb.agents[0]->counters().rreq_originated, 3u);
}

TEST(Aodv, ExpandingRingFailureExhaustsAllRingsAndRetries) {
  AodvConfig ers;
  ers.expanding_ring = true;
  ers.ers_ttl_start = 2;
  ers.ers_ttl_increment = 2;
  ers.ers_ttl_threshold = 4;
  ers.rreq_retries = 1;
  RoutingBed tb(line5(), ers);
  tb.exile(4);
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(20.0));
  EXPECT_EQ(tb.agents[0]->counters().discovery_failed, 1u);
  // Rings {2, 4} + (1 + retries) network-wide attempts = 4 RREQs.
  EXPECT_EQ(tb.agents[0]->counters().rreq_originated, 4u);
}

TEST(Aodv, RerrPropagatesUpstreamOverMultipleHops) {
  RoutingBed tb(line5());
  // Steady traffic 0 -> 4 keeps the whole chain's routes alive.
  for (int i = 0; i < 30; ++i) {
    tb.sim.schedule(sim::Time::seconds(1.0 + i * 0.2), [&] { tb.send(0, 4); });
  }
  // Break the last link mid-stream.
  tb.sim.schedule(sim::Time::seconds(3.05), [&] { tb.exile(4); });
  tb.sim.run_until(sim::Time::seconds(12.0));
  // The break was detected at node 3 and the error reached node 0:
  // its route to 4 is gone even though node 0 never saw the break.
  EXPECT_EQ(tb.agents[0]->routes().lookup(net::Address(4), tb.sim.now()),
            nullptr);
  EXPECT_GE(tb.agents[3]->counters().rerr_sent, 1u);
  std::uint64_t rerr_rx = 0;
  for (const auto& a : tb.agents) rerr_rx += a->counters().rerr_received;
  EXPECT_GE(rerr_rx, 1u);
}

TEST(Aodv, BufferOverflowDropsOldest) {
  AodvConfig cfg;
  cfg.buffer_capacity = 3;
  RoutingBed tb(line5(), cfg);
  tb.exile(4);  // discovery will fail; buffer fills meanwhile
  tb.sim.schedule(sim::Time::seconds(1.0), [&] {
    for (int i = 0; i < 8; ++i) tb.send(0, 4);
  });
  tb.sim.run_until(sim::Time::seconds(15.0));
  const auto& c = tb.agents[0]->counters();
  // 8 offered, capacity 3: at least 5 displaced from the buffer, the
  // remaining 3 dropped when discovery failed.
  EXPECT_GE(c.data_dropped_buffer, 5u);
  EXPECT_GE(c.data_dropped_no_route, 3u);
  EXPECT_EQ(tb.delivered_at(4), 0u);
}

TEST(Aodv, BufferedPacketsExpireOnTimeout) {
  AodvConfig cfg;
  cfg.buffer_timeout = sim::Time::seconds(2.0);
  cfg.rreq_retries = 30;  // discovery keeps trying past buffer expiry
  RoutingBed tb(line5(), cfg);
  tb.exile(4);
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(8.0));
  EXPECT_GE(tb.agents[0]->counters().data_dropped_buffer, 1u);
}

TEST(Aodv, SeqnoMonotonicityPreventsStaleRoutes) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(5.0));
  RouteEntry* e = tb.agents[0]->routes().find(net::Address(4));
  ASSERT_NE(e, nullptr);
  const std::uint32_t seq_before = e->dest_seqno;
  EXPECT_TRUE(e->valid_seqno);
  // Later discovery yields a strictly fresher seqno.
  tb.sim.schedule(sim::Time::seconds(5.5), [&] { tb.exile(3); });
  tb.sim.schedule(sim::Time::seconds(9.0), [&] {
    // Reconnect 3 at a new position still bridging 2 and 4.
    tb.mobilities[3]->set_position(Vec2{600.0, 30.0});
  });
  tb.sim.schedule(sim::Time::seconds(12.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(25.0));
  RouteEntry* e2 = tb.agents[0]->routes().find(net::Address(4));
  ASSERT_NE(e2, nullptr);
  EXPECT_GT(e2->dest_seqno, seq_before);
}

TEST(Aodv, SeqnoWraparoundAcceptsPostRolloverRoutes) {
  // RFC 3561 section 6.1 regression: a destination whose sequence
  // number rolled over past 0xFFFFFFFF advertises a small seqno that
  // is *fresher* than the huge pre-wrap value. Plain unsigned
  // comparison rejects the update and pins the stale route forever;
  // circular comparison must accept it.
  RoutingBed tb({{0, 0}, {200, 0}});

  tb.sim.schedule(sim::Time::millis(100.0), [&] {
    // Node 0 holds a pre-wrap route to (fictional) destination 9.
    RouteEntry stale;
    stale.dest = net::Address(9);
    stale.next_hop = net::Address(1);
    stale.hop_count = 5;
    stale.dest_seqno = 0xFFFFFFF0u;
    stale.valid_seqno = true;
    stale.state = RouteState::kValid;
    stale.expires = sim::Time::seconds(100.0);
    tb.agents[0]->routes().upsert(stale);
  });

  tb.sim.schedule(sim::Time::millis(200.0), [&] {
    // Node 1 relays an RREP for destination 9 whose seqno wrapped.
    RrepHeader hdr;
    hdr.dest = net::Address(9);
    hdr.dest_seqno = 2;  // post-rollover: circularly newer than 0xFFFFFFF0
    hdr.origin = net::Address(0);
    hdr.hop_count = 1;
    hdr.lifetime_ms = 5000;
    net::Packet pkt = tb.factory.make(0, tb.sim.now());
    pkt.push(hdr);
    tb.macs[1]->enqueue(std::move(pkt), net::Address(0));
  });

  tb.sim.run_until(sim::Time::seconds(1.0));

  RouteEntry* e = tb.agents[0]->routes().find(net::Address(9));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->dest_seqno, 2u) << "post-wrap seqno rejected as stale";
  EXPECT_EQ(e->hop_count, 2u);  // the fresher 2-hop path replaced 5 hops
}

// --- decision windows -------------------------------------------------
// kDefer assessments and destination reply waits keep the copy they
// decide on outside the RREQ duplicate cache, only while their timer is
// armed. These tests pin what the deferred paths do with that copy.

TEST(AodvDecisionWindow, CounterPolicyForwardsDeferredCopyFromStoredHeader) {
  // Counter threshold 3 on a line: each relay hears at most one copy
  // before its window closes, so every relay forwards exactly once.
  RoutingBed tb(line5(), {}, 1, counter_policies(3));
  tb.sim.schedule(sim::Time::seconds(2.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(4.0));  // routes still active

  EXPECT_EQ(tb.delivered_at(4), 1u);
  for (std::size_t relay = 1; relay <= 3; ++relay) {
    const auto& c = tb.agents[relay]->counters();
    EXPECT_EQ(c.rreq_received, 1u) << "relay " << relay;
    EXPECT_EQ(c.rreq_forwarded, 1u) << "relay " << relay;
    EXPECT_EQ(c.rreq_suppressed, 0u) << "relay " << relay;
  }
  EXPECT_EQ(tb.agents[4]->counters().rreq_forwarded, 0u);
  EXPECT_EQ(tb.agents[4]->counters().rrep_originated, 1u);
  // The destination's reverse route took the hop count the three
  // deferred forwards carried in the stored header: 3 relays + 1.
  const RouteEntry* rev =
      tb.agents[4]->routes().lookup(net::Address(0), tb.sim.now());
  ASSERT_NE(rev, nullptr);
  EXPECT_EQ(rev->hop_count, 4u);
  EXPECT_EQ(rev->next_hop, net::Address(3));
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.pending_rreqs(), 0u);
}

TEST(AodvDecisionWindow, CounterPolicySuppressesAfterHearingDuplicate) {
  // Counter threshold 2 on the diamond: both relays defer on the
  // source's copy; the one whose window closes first forwards, and the
  // other hears that copy inside its own window and stays silent.
  RoutingBed tb(diamond(), {}, 1, counter_policies(2));
  tb.sim.schedule(sim::Time::seconds(2.0), [&] { tb.send(0, 3); });
  tb.sim.run_until(sim::Time::seconds(10.0));

  EXPECT_EQ(tb.delivered_at(3), 1u);
  const auto& a = tb.agents[1]->counters();
  const auto& b = tb.agents[2]->counters();
  EXPECT_EQ(a.rreq_received, 1u);
  EXPECT_EQ(b.rreq_received, 1u);
  EXPECT_EQ(a.rreq_forwarded + b.rreq_forwarded, 1u);
  EXPECT_EQ(a.rreq_suppressed + b.rreq_suppressed, 1u);
  EXPECT_EQ(a.rreq_duplicates + b.rreq_duplicates, 1u);
  EXPECT_EQ(tb.agents[0]->counters().rreq_originated, 1u);
  EXPECT_EQ(tb.pending_rreqs(), 0u);
}

TEST(AodvDecisionWindow, BestMetricDestinationRepliesAlongLowerLoadPath) {
  // Relay 1 is loaded (0.8) and forwards after 1 ms; relay 2 is light
  // (0.2) and forwards after 20 ms. The destination hears the heavy
  // copy first and the light one inside its 50 ms window, and must
  // reply with the light copy's metric along the light relay.
  AodvConfig cfg;
  cfg.use_load_metric = true;
  Policies p;
  p.rebroadcast = [](std::size_t node) {
    return std::make_unique<FixedDelayForward>(
        sim::Time::millis(node == 1 ? 1.0 : 20.0));
  };
  p.selection = [] { return std::make_unique<BestMetricSelection>(); };
  p.load = [](std::size_t node) {
    return std::make_unique<FixedLoad>(node == 1 ? 0.8 : node == 2 ? 0.2 : 0.0);
  };
  RoutingBed tb(diamond(), cfg, 1, p);
  tb.sim.schedule(sim::Time::seconds(2.0), [&] { tb.send(0, 3); });
  tb.sim.run_until(sim::Time::seconds(4.0));  // routes still active

  EXPECT_EQ(tb.delivered_at(3), 1u);
  const auto& dest = tb.agents[3]->counters();
  EXPECT_EQ(dest.rreq_received, 1u);
  EXPECT_EQ(dest.rreq_duplicates, 1u);
  EXPECT_EQ(dest.rrep_originated, 1u);
  EXPECT_EQ(tb.agents[1]->counters().rrep_forwarded, 0u);
  EXPECT_EQ(tb.agents[2]->counters().rrep_forwarded, 1u);

  const RouteEntry* fwd =
      tb.agents[0]->routes().lookup(net::Address(3), tb.sim.now());
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->next_hop, net::Address(2));
  EXPECT_EQ(fwd->hop_count, 2u);
  // The RREP carries the chosen copy's path load: the source's and the
  // light relay's neighbourhood loads (own weight 0.5, neighbours
  // advertise nothing), not the heavy relay's.
  EXPECT_DOUBLE_EQ(fwd->metric, 0.5 * 0.0 + 0.5 * 0.2);
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.pending_rreqs(), 0u);
}

TEST(AodvDecisionWindow, PendingCopiesLiveOnlyWhileTheirTimerIsArmed) {
  // cb relays defer; a best-metric destination collects. Stop inside
  // each window and look at the transient table.
  Policies p = counter_policies(2);
  p.selection = [] { return std::make_unique<BestMetricSelection>(); };
  RoutingBed tb(diamond(), {}, 1, p);
  EXPECT_EQ(tb.pending_rreqs(), 0u);
  tb.sim.schedule(sim::Time::seconds(2.0), [&] { tb.send(0, 3); });

  const sim::Time limit = sim::Time::seconds(3.0);
  ASSERT_TRUE(tb.run_until_true(
      [&] { return tb.agents[1]->pending_rreqs() + tb.agents[2]->pending_rreqs() > 0; },
      limit));
  EXPECT_EQ(tb.agents[0]->pending_rreqs(), 0u);  // the origin holds none
  ASSERT_TRUE(tb.run_until_true(
      [&] { return tb.agents[3]->pending_rreqs() == 1; }, limit));
  // The relay that forwarded has closed its window; the other may
  // still be inside its own.
  EXPECT_LE(tb.agents[1]->pending_rreqs() + tb.agents[2]->pending_rreqs(), 1u);

  // A crash mid-window forgets the pending copy with the rest.
  tb.agents[3]->pause();
  EXPECT_EQ(tb.agents[3]->pending_rreqs(), 0u);
  tb.agents[3]->resume();

  // The source retries; once every window has closed nothing is held.
  tb.sim.run_until(sim::Time::seconds(15.0));
  EXPECT_EQ(tb.delivered_at(3), 1u);
  EXPECT_EQ(tb.pending_rreqs(), 0u);
}

// --- RREQ duplicate cache -----------------------------------------------

// Drops every RREQ except those that travelled exactly kSlowHops, which
// it forwards after a long delay: their cache record keeps an armed
// timer well past rreq_cache_timeout.
class SlowForwardAtHopCount final : public RebroadcastPolicy {
 public:
  static constexpr std::uint8_t kSlowHops = 7;
  RebroadcastDecision decide(const RebroadcastContext& ctx,
                             sim::RngStream&) override {
    if (ctx.hop_count == kSlowHops) {
      return {RebroadcastAction::kForward, sim::Time::seconds(20.0)};
    }
    return {RebroadcastAction::kDrop, sim::Time{}};
  }
  [[nodiscard]] std::string name() const override { return "slow-at-hop"; }
};

TEST(AodvRreqCache, SuppressesDuplicatesAcrossGrowthAndMiddlePurge) {
  // Node 0 broadcasts hand-made RREQs (fictional origin 50, unknown
  // destination 77) to node 1, whose cache is under test. Cache keys
  // sort by (origin, id), so ids 1000+ sit between ids 0+ and 2000+.
  Policies p;
  p.rebroadcast = [](std::size_t node) -> std::unique_ptr<RebroadcastPolicy> {
    if (node == 1) return std::make_unique<SlowForwardAtHopCount>();
    return std::make_unique<FloodPolicy>();
  };
  RoutingBed tb({{0, 0}, {100, 0}}, {}, 1, p);
  AodvAgent& agent = *tb.agents[1];
  const auto& c = agent.counters();
  constexpr std::uint32_t kSlowId = 1050;

  sim::Time at = sim::Time::seconds(1.0);
  const auto inject = [&](std::uint32_t id) {
    tb.sim.schedule(at - tb.sim.now(), [&tb, id] {
      RreqHeader h;
      h.rreq_id = id;
      h.origin = net::Address(50);
      h.origin_seqno = 1;
      h.dest = net::Address(77);
      h.hop_count = id == kSlowId ? SlowForwardAtHopCount::kSlowHops : 2;
      h.ttl = 10;
      net::Packet pkt = tb.factory.make(0, tb.sim.now());
      pkt.push(h);
      tb.macs[0]->enqueue(std::move(pkt), net::Address::broadcast());
    });
    at = at + sim::Time::millis(5.0);
  };
  // Sample the slot count every millisecond; injections are 5 ms apart,
  // so every growth step is seen.
  std::vector<std::size_t> slots{agent.rreq_slots()};
  const auto sample_until = [&](sim::Time end) {
    while (tb.sim.now() < end) {
      tb.sim.run_until(tb.sim.now() + sim::Time::millis(1.0));
      if (agent.rreq_slots() != slots.back()) {
        slots.push_back(agent.rreq_slots());
      }
    }
  };

  // The middle block first, at t = 1 s.
  for (std::uint32_t id = 1000; id < 1100; ++id) inject(id);
  sample_until(sim::Time::seconds(2.0));
  ASSERT_EQ(c.rreq_received, 100u);
  ASSERT_EQ(agent.rreq_records(), 100u);

  // Then both ends, interleaved, at t = 4 s.
  at = sim::Time::seconds(4.0);
  for (std::uint32_t k = 0; k < 100; ++k) {
    inject(k);
    inject(2000 + k);
  }
  sample_until(sim::Time::seconds(5.5));
  ASSERT_EQ(c.rreq_received, 300u);
  ASSERT_EQ(agent.rreq_records(), 300u);
  // Many growth steps, each the flat ~1.25x one.
  ASSERT_GE(slots.size(), 8u);
  for (std::size_t i = 1; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], flat_grown_capacity(slots[i - 1])) << "step " << i;
  }

  // By t = 7.5 s housekeeping has purged the middle block (first seen
  // ~1 s, 5 s timeout) except the record whose forward is still armed.
  tb.sim.run_until(sim::Time::seconds(7.5));
  EXPECT_EQ(agent.rreq_records(), 201u);
  EXPECT_EQ(c.rreq_forwarded, 0u);

  // Every surviving key is still a duplicate; purged keys are new again.
  const std::uint64_t dups = c.rreq_duplicates;
  at = sim::Time::seconds(7.5);
  for (std::uint32_t k = 0; k < 100; k += 9) {
    inject(k);
    inject(2000 + k);
  }
  inject(kSlowId);
  inject(1000);
  inject(1099);
  tb.sim.run_until(sim::Time::seconds(8.5));
  EXPECT_EQ(c.rreq_duplicates - dups, 2u * 12u + 1u);
  EXPECT_EQ(c.rreq_received, 302u);
  EXPECT_EQ(agent.rreq_records(), 203u);

  // The armed record forwards once its timer fires, then expires too.
  tb.sim.run_until(sim::Time::seconds(25.0));
  EXPECT_EQ(c.rreq_forwarded, 1u);
  EXPECT_EQ(agent.rreq_records(), 0u);
  EXPECT_EQ(agent.rreq_slots(), slots.back());
}

}  // namespace
}  // namespace wmn::routing
