// Application-layer traffic sources.
//
// CbrSource emits fixed-size packets at a constant rate between start
// and stop times (the evaluation workload: 512-byte UDP-style CBR).
// OnOffSource alternates ON and OFF periods, emitting CBR during ON.
// OFF gaps are exponential; the ON-period law is exponential (the
// bursty variant used in the congestion benches) or Pareto with shape
// alpha > 1, the production-workload burst model (F11): superposing
// many such sources yields long-range-dependent aggregate load, the
// self-similar traffic real gateways see.
//
// Timing contract (shared by every source in traffic::): packet k of a
// pacing run is scheduled at the *absolute* time base + k/rate, not by
// repeatedly adding a rounded per-tick interval. Rounding 1/rate to
// integer nanoseconds once per tick compounds (3 pps drifts 1/3 ns per
// packet, and any non-dyadic rate drifts), which shifts packets across
// the stop boundary and silently distorts offered-load sweeps; the
// absolute form keeps the error of tick k below one rounding ulp
// independent of k. Sources also never schedule an event at or past
// `stop`: the pacing timer is cleared the moment the next tick would
// cross the horizon, so no dead wakeups churn the calendar after the
// traffic window closes.
//
// Determinism contract: each source draws from one RngStream salted by
// its kind (and, for OnOffSource, its ON-period law) and flow id, in an
// order fixed by its own history (off gap, on period, off gap, ...), so
// same-seed fingerprints are bit-identical serial vs pooled.
#pragma once

#include <cstdint>

#include "traffic/flow_sender.hpp"

namespace wmn::traffic {

struct CbrConfig {
  std::uint32_t flow_id = 0;
  net::Address dest;
  std::uint32_t packet_bytes = 512;
  double rate_pps = 4.0;
  sim::Time start{};
  sim::Time stop = sim::Time::max();
  // First packet is offset uniformly within one interval so flows
  // starting together do not phase-align.
  bool randomize_start_phase = true;
};

class CbrSource {
 public:
  CbrSource(sim::Simulator& simulator, const CbrConfig& cfg,
            routing::AodvAgent& agent, net::PacketFactory& factory,
            FlowRegistry& registry);
  ~CbrSource();

  CbrSource(const CbrSource&) = delete;
  CbrSource& operator=(const CbrSource&) = delete;

  [[nodiscard]] std::uint64_t packets_sent() const {
    return sender_.packets_sent();
  }
  [[nodiscard]] std::uint32_t flow_id() const { return cfg_.flow_id; }
  // True while a pacing event is scheduled; false once the source has
  // crossed `stop` (no stale EventId is ever left behind).
  [[nodiscard]] bool timer_armed() const { return timer_.valid(); }

 private:
  void emit();
  // Absolute send time of packet k: base_ + k/rate, rounded once.
  [[nodiscard]] sim::Time tick_time(std::uint64_t k) const;

  sim::Simulator& sim_;
  CbrConfig cfg_;
  FlowSender sender_;
  sim::RngStream rng_;
  sim::Time base_{};  // time of packet 0 (start + random phase)
  sim::EventId timer_{};
};

struct OnOffConfig {
  enum class OnLaw : std::uint8_t {
    kExponential,  // mean `mean_on`
    kPareto,       // shape `pareto_shape`, scale set to realise `mean_on`
  };

  std::uint32_t flow_id = 0;
  net::Address dest;
  std::uint32_t packet_bytes = 512;
  double rate_pps = 8.0;  // rate while ON
  OnLaw on_law = OnLaw::kExponential;
  double pareto_shape = 1.5;  // alpha; kPareto only, must be > 1
  sim::Time mean_on = sim::Time::seconds(2.0);
  sim::Time mean_off = sim::Time::seconds(2.0);  // exponential gap
  sim::Time start{};
  sim::Time stop = sim::Time::max();
};

class OnOffSource {
 public:
  OnOffSource(sim::Simulator& simulator, const OnOffConfig& cfg,
              routing::AodvAgent& agent, net::PacketFactory& factory,
              FlowRegistry& registry);
  ~OnOffSource();

  OnOffSource(const OnOffSource&) = delete;
  OnOffSource& operator=(const OnOffSource&) = delete;

  [[nodiscard]] std::uint64_t packets_sent() const {
    return sender_.packets_sent();
  }
  [[nodiscard]] std::uint64_t bursts_started() const { return bursts_; }
  [[nodiscard]] std::uint32_t flow_id() const { return cfg_.flow_id; }
  [[nodiscard]] bool timer_armed() const { return timer_.valid(); }

 private:
  void begin_on();
  void begin_off();
  void emit();
  [[nodiscard]] sim::Time draw_on_period();
  // Schedule `fn` at `at` unless that would cross the stop horizon, in
  // which case the timer is cleared and the source goes quiet for good.
  template <typename Fn>
  void schedule_guarded(sim::Time at, Fn fn);

  sim::Simulator& sim_;
  OnOffConfig cfg_;
  FlowSender sender_;
  sim::RngStream rng_;
  std::uint64_t bursts_ = 0;
  bool on_ = false;
  sim::Time on_ends_{};
  sim::Time burst_base_{};        // time of packet 0 of the current burst
  std::uint64_t burst_sent_ = 0;  // packets emitted in the current burst
  sim::EventId timer_{};
};

}  // namespace wmn::traffic
