#include "phy/wifi_phy.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"

namespace wmn::phy {
namespace {

using mobility::ConstantPositionModel;
using mobility::Vec2;

// Records every PHY callback for assertions.
class RecordingListener final : public PhyListener {
 public:
  void on_rx_start() override { ++rx_starts; }
  void on_rx_end(std::optional<net::Packet> packet, double power) override {
    if (packet) {
      received.push_back(std::move(*packet));
      rx_power_dbm.push_back(power);
    } else {
      ++rx_failures;
    }
  }
  void on_tx_end() override { ++tx_ends; }
  void on_cca_change(bool busy) override { cca_changes.push_back(busy); }

  int rx_starts = 0;
  int rx_failures = 0;
  int tx_ends = 0;
  std::vector<net::Packet> received;
  std::vector<double> rx_power_dbm;
  std::vector<bool> cca_changes;
};

struct TagHeader {
  static constexpr std::uint32_t kWireSize = 8;
  std::uint64_t tag = 0;
};

struct TestBed {
  explicit TestBed(std::vector<Vec2> positions, std::uint64_t seed = 1)
      : sim(seed), channel(sim, std::make_unique<LogDistanceModel>()) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      mobilities.push_back(std::make_unique<ConstantPositionModel>(positions[i]));
      phys.push_back(std::make_unique<WifiPhy>(sim, PhyConfig{},
                                               static_cast<std::uint32_t>(i),
                                               mobilities.back().get()));
      listeners.push_back(std::make_unique<RecordingListener>());
      phys.back()->set_listener(listeners.back().get());
      channel.attach(phys.back().get());
    }
  }

  net::Packet packet(std::uint32_t bytes) { return factory.make(bytes, sim.now()); }

  // A packet with one header pushed: it owns one arena node, so the
  // arena's live_nodes() shows whether anyone still holds a copy.
  net::Packet tagged(std::uint32_t bytes) {
    net::Packet p = packet(bytes);
    p.push(TagHeader{});
    return p;
  }

  [[nodiscard]] std::size_t live_nodes() const {
    return factory.arena().live_nodes();
  }

  sim::Simulator sim;
  WirelessChannel channel;
  net::PacketFactory factory;
  std::vector<std::unique_ptr<ConstantPositionModel>> mobilities;
  std::vector<std::unique_ptr<WifiPhy>> phys;
  std::vector<std::unique_ptr<RecordingListener>> listeners;
};

TEST(WifiPhy, TxDurationMatchesRateAndPreamble) {
  TestBed tb({{0, 0}, {100, 0}});
  // 512 bytes at 2 Mb/s = 2048 us + 192 us preamble.
  const sim::Time d = tb.phys[0]->tx_duration(512);
  EXPECT_EQ(d, sim::Time::micros(2048.0 + 192.0));
}

TEST(WifiPhy, InRangeFrameIsDelivered) {
  TestBed tb({{0, 0}, {150, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(100)); });
  tb.sim.run();
  EXPECT_EQ(tb.listeners[1]->received.size(), 1u);
  EXPECT_EQ(tb.listeners[1]->rx_starts, 1);
  EXPECT_EQ(tb.listeners[0]->tx_ends, 1);
  EXPECT_EQ(tb.phys[1]->counters().rx_ok, 1u);
  // Receive power must be above sensitivity.
  EXPECT_GE(tb.listeners[1]->rx_power_dbm[0], PhyConfig{}.rx_sensitivity_dbm);
}

TEST(WifiPhy, OutOfRangeFrameIsNotDelivered) {
  TestBed tb({{0, 0}, {600, 0}});  // beyond 250 m decode range
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(100)); });
  tb.sim.run();
  EXPECT_TRUE(tb.listeners[1]->received.empty());
  EXPECT_EQ(tb.phys[1]->counters().rx_ok, 0u);
}

TEST(WifiPhy, FarFrameStillRaisesCca) {
  // 300-400 m: below decode sensitivity but above the CCA threshold.
  TestBed tb({{0, 0}, {320, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(500)); });
  tb.sim.run();
  EXPECT_TRUE(tb.listeners[1]->received.empty());
  // The receiver saw the medium busy at some point.
  ASSERT_FALSE(tb.listeners[1]->cca_changes.empty());
  EXPECT_TRUE(tb.listeners[1]->cca_changes.front());
  EXPECT_GT(tb.phys[1]->counters().rx_below_sensitivity, 0u);
}

TEST(WifiPhy, SimultaneousTransmittersCollideAtMidpoint) {
  // Two senders equidistant from the middle receiver: comparable power,
  // SINR ~0 dB < 10 dB threshold, both frames lost.
  TestBed tb({{0, 0}, {200, 0}, {400, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(500)); });
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[2]->send(tb.packet(500)); });
  tb.sim.run();
  EXPECT_TRUE(tb.listeners[1]->received.empty());
  EXPECT_EQ(tb.listeners[1]->rx_failures, 1);  // locked one, it died
  EXPECT_EQ(tb.phys[1]->counters().rx_failed_sinr, 1u);
}

TEST(WifiPhy, CaptureStrongFrameSurvivesWeakInterferer) {
  // Receiver at 50 m from sender A and 390 m from sender B: A is >25 dB
  // stronger, so A's frame survives B's concurrent transmission.
  TestBed tb({{0, 0}, {50, 0}, {440, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(500)); });
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[2]->send(tb.packet(500)); });
  tb.sim.run();
  EXPECT_EQ(tb.listeners[1]->received.size(), 1u);
}

TEST(WifiPhy, CannotReceiveWhileTransmitting) {
  TestBed tb({{0, 0}, {100, 0}});
  // Both transmit at the same instant: neither receives.
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(500)); });
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[1]->send(tb.packet(500)); });
  tb.sim.run();
  EXPECT_TRUE(tb.listeners[0]->received.empty());
  EXPECT_TRUE(tb.listeners[1]->received.empty());
  EXPECT_GT(tb.phys[0]->counters().rx_missed_busy +
                tb.phys[1]->counters().rx_missed_busy,
            0u);
}

TEST(WifiPhy, BroadcastReachesAllInRange) {
  TestBed tb({{0, 0}, {100, 0}, {200, 0}, {200, 100}, {900, 900}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(64)); });
  tb.sim.run();
  EXPECT_EQ(tb.listeners[1]->received.size(), 1u);
  EXPECT_EQ(tb.listeners[2]->received.size(), 1u);
  EXPECT_EQ(tb.listeners[3]->received.size(), 1u);
  EXPECT_TRUE(tb.listeners[4]->received.empty());  // far corner
}

TEST(WifiPhy, CcaBusyDuringOwnTx) {
  TestBed tb({{0, 0}, {100, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] {
    tb.phys[0]->send(tb.packet(100));
    EXPECT_TRUE(tb.phys[0]->cca_busy());
    EXPECT_FALSE(tb.phys[0]->can_transmit());
  });
  tb.sim.run();
  EXPECT_FALSE(tb.phys[0]->cca_busy());
  EXPECT_TRUE(tb.phys[0]->can_transmit());
}

TEST(WifiPhy, BusyTimeAccountingMatchesAirTime) {
  TestBed tb({{0, 0}, {100, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(512)); });
  tb.sim.run();
  const sim::Time air = tb.phys[0]->tx_duration(512);
  // Sender busy for exactly the TX; receiver for the arrival.
  EXPECT_EQ(tb.phys[0]->cumulative_busy_time(), air);
  EXPECT_EQ(tb.phys[1]->cumulative_busy_time(), air);
}

TEST(WifiPhy, ChannelCountsCopies) {
  TestBed tb({{0, 0}, {100, 0}, {2000, 2000}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(64)); });
  tb.sim.run();
  EXPECT_EQ(tb.channel.counters().transmissions, 1u);
  EXPECT_EQ(tb.channel.counters().copies_delivered, 1u);     // node 1
  EXPECT_EQ(tb.channel.counters().copies_dropped_floor, 1u); // node 2
}

TEST(WifiPhy, LinkPowerQueryMatchesModel) {
  TestBed tb({{0, 0}, {250, 0}});
  const double p = tb.channel.link_rx_power_dbm(*tb.phys[0], *tb.phys[1]);
  LogDistanceModel model;
  const double expected =
      model.rx_power_dbm(PhyConfig{}.tx_power_dbm, {0, 0}, {250, 0}, 0, 1);
  EXPECT_DOUBLE_EQ(p, expected);
}

TEST(WifiPhy, PropagationDelayOrdersDistantReceivers) {
  // Two receivers at different distances: the near one locks first.
  TestBed tb({{0, 0}, {30, 0}, {240, 0}});
  sim::Time near_start, far_start;
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(500)); });
  tb.sim.run();
  // Both received; the frame is identical.
  ASSERT_EQ(tb.listeners[1]->received.size(), 1u);
  ASSERT_EQ(tb.listeners[2]->received.size(), 1u);
  EXPECT_EQ(tb.listeners[1]->received[0].uid(), tb.listeners[2]->received[0].uid());
  (void)near_start;
  (void)far_start;
}

// --- packet ownership -------------------------------------------------
// A radio copies a frame's packet only when it locks onto it; every
// other arrival is energy (key + power) and holds no packet reference.

TEST(WifiPhyOwnership, RxEndHandsOverTheLockedFramesPacket) {
  TestBed tb({{0, 0}, {150, 0}});
  net::Packet p = tb.tagged(100);
  const std::uint64_t uid = p.uid();
  tb.sim.schedule(sim::Time::zero(),
                  [&] { tb.phys[0]->send(std::move(p)); });
  tb.sim.run();
  ASSERT_EQ(tb.listeners[1]->received.size(), 1u);
  EXPECT_EQ(tb.listeners[1]->received[0].uid(), uid);
  // The listener's copy is the only one left.
  EXPECT_EQ(tb.live_nodes(), 1u);
  tb.listeners[1]->received.clear();
  EXPECT_EQ(tb.live_nodes(), 0u);
}

TEST(WifiPhyOwnership, NonDecodableArrivalsHoldNoPacket) {
  // Receiver 1 locks onto sender 0's frame (50 m). Sender 2's frame
  // (320 m from the receiver: below sensitivity, above the CCA
  // threshold) overlaps it; the senders also hear each other's frame
  // while transmitting. Only the lock may keep a packet alive.
  TestBed tb({{-50, 0}, {0, 0}, {320, 0}});
  net::Packet strong = tb.tagged(500);
  const std::uint64_t strong_uid = strong.uid();
  tb.sim.schedule(sim::Time::zero(),
                  [&] { tb.phys[0]->send(std::move(strong)); });
  tb.sim.schedule(sim::Time::micros(500.0),
                  [&] { tb.phys[2]->send(tb.tagged(500)); });
  tb.sim.run_until(sim::Time::micros(1000.0));
  // Mid-overlap: four arrivals are on the air (two at the receiver,
  // one at each sender), all begins have run and dropped the channel's
  // copies, so the receiver's lock holds the only live packet.
  ASSERT_EQ(tb.phys[1]->state(), WifiPhy::State::kRx);
  EXPECT_GT(tb.phys[1]->counters().rx_below_sensitivity, 0u);
  EXPECT_EQ(tb.live_nodes(), 1u);

  tb.sim.run();
  ASSERT_EQ(tb.listeners[1]->received.size(), 1u);
  EXPECT_EQ(tb.listeners[1]->received[0].uid(), strong_uid);
  tb.listeners[1]->received.clear();
  EXPECT_EQ(tb.live_nodes(), 0u);
}

TEST(WifiPhyOwnership, PowerDownReleasesTheLockedPacket) {
  TestBed tb({{0, 0}, {150, 0}});
  const std::size_t before = tb.live_nodes();
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.tagged(500)); });
  tb.sim.run_until(sim::Time::micros(1000.0));
  ASSERT_EQ(tb.phys[1]->state(), WifiPhy::State::kRx);
  EXPECT_EQ(tb.live_nodes(), before + 1);  // held by the lock

  tb.phys[1]->set_up(false);
  EXPECT_EQ(tb.live_nodes(), before);
  tb.sim.run();
  EXPECT_EQ(tb.live_nodes(), before);
  // A dropped lock ends silently: no on_rx_end, no decode verdict.
  EXPECT_TRUE(tb.listeners[1]->received.empty());
  EXPECT_EQ(tb.listeners[1]->rx_failures, 0);
  EXPECT_EQ(tb.phys[1]->counters().rx_ok, 0u);
}

}  // namespace
}  // namespace wmn::phy
