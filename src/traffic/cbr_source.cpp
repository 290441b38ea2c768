#include "traffic/cbr_source.hpp"

#include "core/check.hpp"


namespace wmn::traffic {

namespace {
constexpr std::uint64_t kCbrStreamSalt = 0xCB20'0000'0000'0000ULL;
constexpr std::uint64_t kOnOffStreamSalt = 0x0F0F'0000'0000'0000ULL;
}  // namespace

CbrSource::CbrSource(sim::Simulator& simulator, const CbrConfig& cfg,
                     routing::AodvAgent& agent, net::PacketFactory& factory,
                     FlowRegistry& registry)
    : sim_(simulator),
      cfg_(cfg),
      agent_(agent),
      factory_(factory),
      registry_(registry),
      rng_(simulator.make_stream(kCbrStreamSalt ^ cfg.flow_id)) {
  WMN_CHECK_GT(cfg_.rate_pps, 0.0, "CBR rate must be positive");
  registry_.register_flow(cfg_.flow_id, agent_.address(), cfg_.dest);
  base_ = cfg_.start;
  if (cfg_.randomize_start_phase) {
    base_ += sim::Time::seconds(rng_.uniform01() / cfg_.rate_pps);
  }
  if (base_ < cfg_.stop) {
    timer_ = sim_.schedule_at(base_, [this] { emit(); });
  }
}

CbrSource::~CbrSource() { sim_.cancel(timer_); }

sim::Time CbrSource::tick_time(std::uint64_t k) const {
  // One double divide + one rounding per tick: the error of tick k is
  // bounded by a rounding ulp and never accumulates across ticks.
  return base_ +
         sim::Time::seconds(static_cast<double>(k) / cfg_.rate_pps);
}

void CbrSource::emit() {
  timer_ = sim::EventId{};
  if (sim_.now() >= cfg_.stop) return;
  net::Packet pkt = factory_.make(cfg_.packet_bytes, sim_.now());
  pkt.set_flow_info(net::Packet::FlowInfo{.seq = ++seq_,
                                          .sent_at = sim_.now(),
                                          .flow_id = cfg_.flow_id,
                                          .valid = true});
  registry_.record_sent(cfg_.flow_id, cfg_.packet_bytes, sim_.now());
  agent_.send(std::move(pkt), cfg_.dest);
  const sim::Time next = tick_time(seq_);
  if (next < cfg_.stop) {
    timer_ = sim_.schedule_at(next, [this] { emit(); });
  }
}

PoissonOnOffSource::PoissonOnOffSource(sim::Simulator& simulator,
                                       const PoissonOnOffConfig& cfg,
                                       routing::AodvAgent& agent,
                                       net::PacketFactory& factory,
                                       FlowRegistry& registry)
    : sim_(simulator),
      cfg_(cfg),
      agent_(agent),
      factory_(factory),
      registry_(registry),
      rng_(simulator.make_stream(kOnOffStreamSalt ^ cfg.flow_id)) {
  WMN_CHECK_GT(cfg_.rate_pps, 0.0, "on/off source rate must be positive");
  registry_.register_flow(cfg_.flow_id, agent_.address(), cfg_.dest);
  schedule_guarded(
      cfg_.start + sim::Time::seconds(rng_.exponential(cfg_.mean_off.to_seconds())),
      [this] { begin_on(); });
}

PoissonOnOffSource::~PoissonOnOffSource() { sim_.cancel(timer_); }

template <typename Fn>
void PoissonOnOffSource::schedule_guarded(sim::Time at, Fn fn) {
  if (at >= cfg_.stop) {
    timer_ = sim::EventId{};
    return;
  }
  timer_ = sim_.schedule_at(at, fn);
}

void PoissonOnOffSource::begin_on() {
  timer_ = sim::EventId{};
  if (sim_.now() >= cfg_.stop) return;
  on_ = true;
  on_ends_ = sim_.now() +
             sim::Time::seconds(rng_.exponential(cfg_.mean_on.to_seconds()));
  burst_base_ = sim_.now();
  burst_sent_ = 0;
  emit();
}

void PoissonOnOffSource::begin_off() {
  on_ = false;
  schedule_guarded(
      sim_.now() + sim::Time::seconds(rng_.exponential(cfg_.mean_off.to_seconds())),
      [this] { begin_on(); });
}

void PoissonOnOffSource::emit() {
  timer_ = sim::EventId{};
  if (sim_.now() >= cfg_.stop) return;
  if (!on_ || sim_.now() >= on_ends_) {
    begin_off();
    return;
  }
  net::Packet pkt = factory_.make(cfg_.packet_bytes, sim_.now());
  pkt.set_flow_info(net::Packet::FlowInfo{.seq = ++seq_,
                                          .sent_at = sim_.now(),
                                          .flow_id = cfg_.flow_id,
                                          .valid = true});
  registry_.record_sent(cfg_.flow_id, cfg_.packet_bytes, sim_.now());
  agent_.send(std::move(pkt), cfg_.dest);
  ++burst_sent_;
  // Absolute-base pacing within the burst (see header): tick k of this
  // burst goes out at burst start + k/rate, drift-free.
  schedule_guarded(
      burst_base_ + sim::Time::seconds(static_cast<double>(burst_sent_) /
                                       cfg_.rate_pps),
      [this] { emit(); });
}

}  // namespace wmn::traffic
