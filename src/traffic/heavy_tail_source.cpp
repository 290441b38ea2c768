#include "traffic/heavy_tail_source.hpp"

#include "core/check.hpp"

namespace wmn::traffic {

namespace {
constexpr std::uint64_t kHeavyTailStreamSalt = 0x4EA7'7A11'0000'0000ULL;
}  // namespace

HeavyTailOnOffSource::HeavyTailOnOffSource(sim::Simulator& simulator,
                                           const HeavyTailOnOffConfig& cfg,
                                           routing::AodvAgent& agent,
                                           net::PacketFactory& factory,
                                           FlowRegistry& registry)
    : sim_(simulator),
      cfg_(cfg),
      agent_(agent),
      factory_(factory),
      registry_(registry),
      rng_(simulator.make_stream(kHeavyTailStreamSalt ^ cfg.flow_id)) {
  WMN_CHECK_GT(cfg_.rate_pps, 0.0, "heavy-tail source rate must be positive");
  WMN_CHECK_GT(cfg_.pareto_shape, 1.0,
               "Pareto shape must exceed 1 (finite mean on period)");
  registry_.register_flow(cfg_.flow_id, agent_.address(), cfg_.dest);
  schedule_guarded(cfg_.start + sim::Time::seconds(rng_.exponential(
                                    cfg_.mean_off.to_seconds())),
                   [this] { begin_on(); });
}

HeavyTailOnOffSource::~HeavyTailOnOffSource() { sim_.cancel(timer_); }

template <typename Fn>
void HeavyTailOnOffSource::schedule_guarded(sim::Time at, Fn fn) {
  if (at >= cfg_.stop) {
    timer_ = sim::EventId{};
    return;
  }
  timer_ = sim_.schedule_at(at, fn);
}

void HeavyTailOnOffSource::begin_on() {
  timer_ = sim::EventId{};
  if (sim_.now() >= cfg_.stop) return;
  on_ = true;
  ++bursts_;
  // Pareto(alpha, xm) has mean alpha*xm/(alpha-1); invert for the scale
  // that realises the configured mean burst length.
  const double alpha = cfg_.pareto_shape;
  const double scale = cfg_.mean_on.to_seconds() * (alpha - 1.0) / alpha;
  on_ends_ = sim_.now() + sim::Time::seconds(rng_.pareto(alpha, scale));
  burst_base_ = sim_.now();
  burst_sent_ = 0;
  emit();
}

void HeavyTailOnOffSource::begin_off() {
  on_ = false;
  schedule_guarded(sim_.now() + sim::Time::seconds(rng_.exponential(
                                    cfg_.mean_off.to_seconds())),
                   [this] { begin_on(); });
}

void HeavyTailOnOffSource::emit() {
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
  schedule_guarded(
      burst_base_ + sim::Time::seconds(static_cast<double>(burst_sent_) /
                                       cfg_.rate_pps),
      [this] { emit(); });
}

}  // namespace wmn::traffic
