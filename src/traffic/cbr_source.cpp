#include "traffic/cbr_source.hpp"

#include "core/check.hpp"


namespace wmn::traffic {

namespace {
constexpr std::uint64_t kCbrStreamSalt = 0xCB20'0000'0000'0000ULL;
// One salt per ON-period law: each law keeps the stream (and so the
// pinned fingerprints) it had when the two were separate classes.
constexpr std::uint64_t kOnOffStreamSalt = 0x0F0F'0000'0000'0000ULL;
constexpr std::uint64_t kHeavyTailStreamSalt = 0x4EA7'7A11'0000'0000ULL;
}  // namespace

CbrSource::CbrSource(sim::Simulator& simulator, const CbrConfig& cfg,
                     routing::AodvAgent& agent, net::PacketFactory& factory,
                     FlowRegistry& registry)
    : sim_(simulator),
      cfg_(cfg),
      sender_(agent, factory, registry, cfg.flow_id, cfg.dest,
              cfg.packet_bytes),
      rng_(simulator.make_stream(kCbrStreamSalt ^ cfg.flow_id)) {
  WMN_CHECK_GT(cfg_.rate_pps, 0.0, "CBR rate must be positive");
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
  sender_.send(sim_.now());
  const sim::Time next = tick_time(sender_.packets_sent());
  if (next < cfg_.stop) {
    timer_ = sim_.schedule_at(next, [this] { emit(); });
  }
}

OnOffSource::OnOffSource(sim::Simulator& simulator, const OnOffConfig& cfg,
                         routing::AodvAgent& agent,
                         net::PacketFactory& factory, FlowRegistry& registry)
    : sim_(simulator),
      cfg_(cfg),
      sender_(agent, factory, registry, cfg.flow_id, cfg.dest,
              cfg.packet_bytes),
      rng_(simulator.make_stream((cfg.on_law == OnOffConfig::OnLaw::kPareto
                                      ? kHeavyTailStreamSalt
                                      : kOnOffStreamSalt) ^
                                 cfg.flow_id)) {
  WMN_CHECK_GT(cfg_.rate_pps, 0.0, "on/off source rate must be positive");
  if (cfg_.on_law == OnOffConfig::OnLaw::kPareto) {
    WMN_CHECK_GT(cfg_.pareto_shape, 1.0,
                 "Pareto shape must exceed 1 (finite mean on period)");
  }
  schedule_guarded(
      cfg_.start + sim::Time::seconds(rng_.exponential(cfg_.mean_off.to_seconds())),
      [this] { begin_on(); });
}

OnOffSource::~OnOffSource() { sim_.cancel(timer_); }

template <typename Fn>
void OnOffSource::schedule_guarded(sim::Time at, Fn fn) {
  if (at >= cfg_.stop) {
    timer_ = sim::EventId{};
    return;
  }
  timer_ = sim_.schedule_at(at, fn);
}

sim::Time OnOffSource::draw_on_period() {
  const double mean = cfg_.mean_on.to_seconds();
  if (cfg_.on_law == OnOffConfig::OnLaw::kExponential) {
    return sim::Time::seconds(rng_.exponential(mean));
  }
  // Pareto(alpha, xm) has mean alpha*xm/(alpha-1); invert for the scale
  // that realises the configured mean burst length.
  const double alpha = cfg_.pareto_shape;
  return sim::Time::seconds(rng_.pareto(alpha, mean * (alpha - 1.0) / alpha));
}

void OnOffSource::begin_on() {
  timer_ = sim::EventId{};
  if (sim_.now() >= cfg_.stop) return;
  on_ = true;
  ++bursts_;
  on_ends_ = sim_.now() + draw_on_period();
  burst_base_ = sim_.now();
  burst_sent_ = 0;
  emit();
}

void OnOffSource::begin_off() {
  on_ = false;
  schedule_guarded(
      sim_.now() + sim::Time::seconds(rng_.exponential(cfg_.mean_off.to_seconds())),
      [this] { begin_on(); });
}

void OnOffSource::emit() {
  timer_ = sim::EventId{};
  if (sim_.now() >= cfg_.stop) return;
  if (!on_ || sim_.now() >= on_ends_) {
    begin_off();
    return;
  }
  sender_.send(sim_.now());
  ++burst_sent_;
  // Absolute-base pacing within the burst (see header): tick k of this
  // burst goes out at burst start + k/rate, drift-free.
  schedule_guarded(
      burst_base_ + sim::Time::seconds(static_cast<double>(burst_sent_) /
                                       cfg_.rate_pps),
      [this] { emit(); });
}

}  // namespace wmn::traffic
