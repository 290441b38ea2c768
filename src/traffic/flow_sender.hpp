// The sending end of one flow, shared by every traffic:: source.
//
// A source decides *when* to send; FlowSender does the rest: it
// registers the flow, and per packet it numbers it in the flow's
// monotone sequence space, stamps the FlowInfo the sink reads delay and
// order from, counts it as offered load and hands it to routing.
#pragma once

#include <cstdint>
#include <utility>

#include "routing/aodv.hpp"
#include "traffic/flow_registry.hpp"

namespace wmn::traffic {

class FlowSender {
 public:
  FlowSender(routing::AodvAgent& agent, net::PacketFactory& factory,
             FlowRegistry& registry, std::uint32_t flow_id, net::Address dest,
             std::uint32_t packet_bytes)
      : agent_(agent),
        factory_(factory),
        registry_(registry),
        flow_id_(flow_id),
        dest_(dest),
        packet_bytes_(packet_bytes) {
    registry_.register_flow(flow_id_, agent_.address(), dest_);
  }

  void send(sim::Time now) {
    net::Packet pkt = factory_.make(packet_bytes_, now);
    pkt.set_flow_info(net::Packet::FlowInfo{
        .seq = ++seq_, .sent_at = now, .flow_id = flow_id_, .valid = true});
    registry_.record_sent(flow_id_, packet_bytes_, now);
    agent_.send(std::move(pkt), dest_);
  }

  [[nodiscard]] std::uint64_t packets_sent() const { return seq_; }

 private:
  routing::AodvAgent& agent_;
  net::PacketFactory& factory_;
  FlowRegistry& registry_;
  std::uint32_t flow_id_;
  net::Address dest_;
  std::uint32_t packet_bytes_;
  std::uint64_t seq_ = 0;
};

}  // namespace wmn::traffic
