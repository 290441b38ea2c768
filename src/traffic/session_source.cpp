#include "traffic/session_source.hpp"

#include <cmath>

#include "core/check.hpp"

namespace wmn::traffic {

namespace {
constexpr std::uint64_t kSessionStreamSalt = 0x5E55'1040'0000'0000ULL;
}  // namespace

SessionSource::SessionSource(sim::Simulator& simulator,
                             const SessionSourceConfig& cfg,
                             routing::AodvAgent& agent,
                             net::PacketFactory& factory,
                             FlowRegistry& registry)
    : sim_(simulator),
      cfg_(cfg),
      sender_(agent, factory, registry, cfg.flow_id, cfg.dest,
              cfg.packet_bytes),
      rng_(simulator.make_stream(kSessionStreamSalt ^ cfg.flow_id)) {
  WMN_CHECK_GT(cfg_.users, 0u, "session source needs at least one user");
  WMN_CHECK_GT(cfg_.session_rate_per_user_per_s, 0.0,
               "per-user session rate must be positive");
  WMN_CHECK_GT(cfg_.session_rate_pps, 0.0, "session pacing must be positive");
  WMN_CHECK_GT(cfg_.mean_session_pkts, 0.0,
               "mean session size must be positive");
  WMN_CHECK_GT(cfg_.pareto_shape, 1.0,
               "Pareto shape must exceed 1 (finite mean session size)");
  WMN_CHECK_GT(cfg_.max_active_sessions, 0u,
               "session concurrency cap must be positive");
  sessions_.resize(cfg_.max_active_sessions);

  double aggregate_rate = static_cast<double>(cfg_.users) *
                          cfg_.session_rate_per_user_per_s;
  // Frozen-rate envelope application: the rate in force at the moment
  // of the draw shapes this gap (see traffic/rate_envelope.hpp). The
  // branch keeps the inactive path's arithmetic untouched.
  if (cfg_.envelope.active()) {
    aggregate_rate *= cfg_.envelope.multiplier_at(cfg_.start.to_seconds());
  }
  const sim::Time first =
      cfg_.start + sim::Time::seconds(rng_.exponential(1.0 / aggregate_rate));
  if (first < cfg_.stop) {
    arrival_timer_ = sim_.schedule_at(first, [this] { on_arrival(); });
  }
}

SessionSource::~SessionSource() {
  sim_.cancel(arrival_timer_);
  for (Session& s : sessions_) sim_.cancel(s.timer);
}

bool SessionSource::timer_armed() const {
  if (arrival_timer_.valid()) return true;
  for (const Session& s : sessions_) {
    if (s.timer.valid()) return true;
  }
  return false;
}

void SessionSource::on_arrival() {
  arrival_timer_ = sim::EventId{};
  if (sim_.now() >= cfg_.stop) return;

  // Fixed draw order per arrival — (size, next gap) — consumed whether
  // or not the session is admitted, so the stream's state depends only
  // on how many arrivals occurred.
  const double alpha = cfg_.pareto_shape;
  const double scale = cfg_.mean_session_pkts * (alpha - 1.0) / alpha;
  const double size = rng_.pareto(alpha, scale);
  double aggregate_rate = static_cast<double>(cfg_.users) *
                          cfg_.session_rate_per_user_per_s;
  if (cfg_.envelope.active()) {
    aggregate_rate *= cfg_.envelope.multiplier_at(sim_.now().to_seconds());
  }
  const sim::Time next_arrival =
      sim_.now() + sim::Time::seconds(rng_.exponential(1.0 / aggregate_rate));

  std::uint32_t slot = cfg_.max_active_sessions;
  for (std::uint32_t i = 0; i < sessions_.size(); ++i) {
    if (!sessions_[i].active) {
      slot = i;
      break;
    }
  }
  if (slot == cfg_.max_active_sessions) {
    ++rejected_;
  } else {
    Session& s = sessions_[slot];
    s.active = true;
    s.remaining = static_cast<std::uint64_t>(std::llround(std::max(1.0, size)));
    s.sent = 0;
    s.base = sim_.now();
    ++started_;
    ++active_;
    emit(slot);
  }

  if (next_arrival < cfg_.stop) {
    arrival_timer_ = sim_.schedule_at(next_arrival, [this] { on_arrival(); });
  }
}

void SessionSource::emit(std::uint32_t slot) {
  Session& s = sessions_[slot];
  s.timer = sim::EventId{};
  if (sim_.now() >= cfg_.stop) {
    finish_session(slot);
    return;
  }
  sender_.send(sim_.now());
  ++s.sent;
  --s.remaining;
  if (s.remaining == 0) {
    finish_session(slot);
    return;
  }
  // Drift-free pacing: packet k of the session at base + k/rate.
  const sim::Time next =
      s.base + sim::Time::seconds(static_cast<double>(s.sent) /
                                  cfg_.session_rate_pps);
  if (next >= cfg_.stop) {
    finish_session(slot);
    return;
  }
  s.timer = sim_.schedule_at(next, [this, slot] { emit(slot); });
}

void SessionSource::finish_session(std::uint32_t slot) {
  Session& s = sessions_[slot];
  if (!s.active) return;
  s.active = false;
  s.timer = sim::EventId{};
  --active_;
  ++completed_;
}

}  // namespace wmn::traffic
