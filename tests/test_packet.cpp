#include "net/packet.hpp"

#include <gtest/gtest.h>

#include "mac/mac_header.hpp"
#include "routing/messages.hpp"

namespace wmn::net {
namespace {

struct TestHeaderA {
  static constexpr std::uint32_t kWireSize = 10;
  int value = 0;
};
struct TestHeaderB {
  static constexpr std::uint32_t kWireSize = 6;
  double weight = 0.0;
};

TEST(Packet, SizeIsPayloadPlusHeaders) {
  PacketFactory f;
  Packet p = f.make(512, sim::Time::zero());
  EXPECT_EQ(p.size_bytes(), 512u);
  p.push(TestHeaderA{1});
  EXPECT_EQ(p.size_bytes(), 522u);
  p.push(TestHeaderB{2.0});
  EXPECT_EQ(p.size_bytes(), 528u);
  (void)p.pop<TestHeaderB>();
  EXPECT_EQ(p.size_bytes(), 522u);
}

TEST(Packet, HeaderStackLifo) {
  PacketFactory f;
  Packet p = f.make(0, sim::Time::zero());
  p.push(TestHeaderA{7});
  p.push(TestHeaderB{3.5});
  EXPECT_TRUE(p.top_is<TestHeaderB>());
  EXPECT_FALSE(p.top_is<TestHeaderA>());
  EXPECT_DOUBLE_EQ(p.peek<TestHeaderB>().weight, 3.5);
  const TestHeaderB b = p.pop<TestHeaderB>();
  EXPECT_DOUBLE_EQ(b.weight, 3.5);
  EXPECT_TRUE(p.top_is<TestHeaderA>());
  EXPECT_EQ(p.pop<TestHeaderA>().value, 7);
  EXPECT_EQ(p.header_count(), 0u);
}

TEST(Packet, CopySharesHeadersSafely) {
  PacketFactory f;
  Packet a = f.make(100, sim::Time::zero());
  a.push(TestHeaderA{1});
  Packet b = a;  // shallow header share
  EXPECT_EQ(b.size_bytes(), a.size_bytes());
  // Popping from the copy must not affect the original.
  (void)b.pop<TestHeaderA>();
  EXPECT_EQ(b.header_count(), 0u);
  EXPECT_EQ(a.header_count(), 1u);
  EXPECT_EQ(a.peek<TestHeaderA>().value, 1);
}

TEST(Packet, FactoryAssignsUniqueUids) {
  PacketFactory f;
  Packet a = f.make(0, sim::Time::zero());
  Packet b = f.make(0, sim::Time::zero());
  EXPECT_NE(a.uid(), b.uid());
  EXPECT_EQ(f.packets_created(), 2u);
}

TEST(Packet, CopyKeepsUid) {
  PacketFactory f;
  Packet a = f.make(0, sim::Time::zero());
  Packet b = a;
  EXPECT_EQ(a.uid(), b.uid());
}

TEST(Packet, FlowInfoRoundTrip) {
  PacketFactory f;
  Packet p = f.make(512, sim::Time::seconds(1.0));
  EXPECT_FALSE(p.flow_info().valid);
  p.set_flow_info(Packet::FlowInfo{.seq = 1234,
                                   .sent_at = sim::Time::seconds(2.0),
                                   .flow_id = 9,
                                   .valid = true});
  Packet copy = p;
  EXPECT_TRUE(copy.flow_info().valid);
  EXPECT_EQ(copy.flow_info().flow_id, 9u);
  EXPECT_EQ(copy.flow_info().seq, 1234u);
  EXPECT_EQ(copy.flow_info().sent_at, sim::Time::seconds(2.0));
}

TEST(Packet, CreatedTimePreserved) {
  PacketFactory f;
  Packet p = f.make(0, sim::Time::millis(123.0));
  EXPECT_EQ(p.created(), sim::Time::millis(123.0));
}

TEST(Packet, RealHeaderSizesMatchWireAccounting) {
  PacketFactory f;
  Packet p = f.make(512, sim::Time::zero());
  p.push(routing::DataHeader{});
  EXPECT_EQ(p.size_bytes(), 512u + 20u);
  p.push(mac::MacHeader{});
  EXPECT_EQ(p.size_bytes(), 512u + 20u + 28u);
}

TEST(Packet, RreqWithLoadTlvBillsExtension) {
  PacketFactory f;
  Packet baseline = f.make(0, sim::Time::zero());
  baseline.push(routing::RreqHeader{});
  Packet extended = f.make(0, sim::Time::zero());
  extended.push(routing::LoadTlv{0.4});
  extended.push(routing::RreqHeader{});
  EXPECT_EQ(extended.size_bytes(), baseline.size_bytes() + routing::LoadTlv::kWireSize);
}

}  // namespace
}  // namespace wmn::net
