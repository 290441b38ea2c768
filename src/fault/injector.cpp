#include "fault/injector.hpp"

#include <algorithm>
#include <utility>

#include "core/check.hpp"

namespace wmn::fault {

void NodeHooks::crash() const {
  WMN_CHECK_NOTNULL(agent, "crash injection needs an agent hook");
  WMN_CHECK_NOTNULL(mac, "crash injection needs a MAC hook");
  WMN_CHECK_NOTNULL(phy, "crash injection needs a phy hook");
  agent->pause();
  mac->power_down();
  phy->set_up(false);
}

void NodeHooks::rejoin() const {
  phy->set_up(true);
  mac->power_up();
  agent->resume();
}

Injector::Injector(sim::Simulator& simulator, FaultPlan plan,
                   std::vector<NodeHooks> hooks)
    : Injector(simulator, std::move(plan), hooks.size()) {
  hooks_ = std::move(hooks);
}

Injector::Injector(sim::Simulator& simulator, FaultPlan plan,
                   std::size_t n_nodes)
    : sim_(simulator),
      plan_(std::move(plan)),
      down_(n_nodes, 0),
      epoch_(n_nodes, 0),
      open_window_(n_nodes, 0),
      churn_rng_(simulator.make_stream(kFaultStreamSalt)) {
  const auto n = static_cast<std::uint32_t>(n_nodes);

  for (const NodeOutage& o : plan_.outages) {
    WMN_CHECK(o.node < n, "outage for a node outside the topology");
    WMN_CHECK(o.down_at < o.up_at, "outage window must have positive length");
    const std::uint32_t node = o.node;
    const sim::Time up_at = o.up_at;
    sim_.schedule_at(o.down_at, [this, node, up_at] { crash_node(node, up_at); });
  }

  for (const LinkBlackout& b : plan_.blackouts) {
    WMN_CHECK(b.a < n && b.b < n, "blackout for a node outside the topology");
    WMN_CHECK(b.a != b.b, "blackout needs two distinct endpoints");
    WMN_CHECK(b.from < b.to, "blackout window must have positive length");
    WMN_CHECK_GE(b.attenuation_db, 0.0, "blackout attenuation must be >= 0");
    ++counters_.blackouts;
    // The window is fully known up front; record it now and only toggle
    // the active list from the scheduled events.
    windows_.push_back(Window{b.from, b.to, false, false});
    const ActiveBlackout entry{b.a, b.b, b.attenuation_db, b.bidirectional};
    sim_.schedule_at(b.from, [this, entry] { active_.push_back(entry); });
    sim_.schedule_at(b.to, [this, entry] {
      const auto it = std::find_if(
          active_.begin(), active_.end(), [&entry](const ActiveBlackout& x) {
            return x.a == entry.a && x.b == entry.b &&
                   x.loss_db == entry.loss_db &&
                   x.bidirectional == entry.bidirectional;
          });
      WMN_CHECK(it != active_.end(), "blackout ended but was never active");
      active_.erase(it);
    });
  }

  if (plan_.churn.enabled()) {
    WMN_CHECK_GT(plan_.churn.mean_downtime.ns(), std::int64_t{0},
                 "churn needs a positive mean downtime");
    WMN_CHECK_GT(n, 0u, "churn needs at least one node");
    schedule_next_churn();
  }
}

double Injector::link_loss_db(std::uint32_t tx, std::uint32_t rx,
                              sim::Time /*now*/) const {
  if (active_.empty()) return 0.0;
  double loss = 0.0;
  for (const ActiveBlackout& b : active_) {
    const bool forward = b.a == tx && b.b == rx;
    const bool reverse = b.bidirectional && b.a == rx && b.b == tx;
    if (forward || reverse) loss += b.loss_db;
  }
  return loss;
}

bool Injector::in_fault_window(sim::Time t) const {
  for (const Window& w : windows_) {
    if (t < w.start) continue;
    if (w.open || t < w.end) return true;
  }
  return false;
}

sim::Time Injector::total_node_downtime(sim::Time now) const {
  sim::Time total{};
  for (const Window& w : windows_) {
    if (!w.node_outage) continue;
    total += (w.open ? now : w.end) - w.start;
  }
  return total;
}

void Injector::crash_node(std::uint32_t node, sim::Time up_at) {
  // Overlapping schedules (static outage vs. churn): whoever crashed
  // the node first owns it until its rejoin fires.
  if (down_[node] != 0) return;

  down_[node] = 1;
  ++epoch_[node];
  ++counters_.crashes;
  open_window_[node] = windows_.size();
  windows_.push_back(Window{sim_.now(), sim::Time{}, true, true, node});
  if (!hooks_.empty()) hooks_[node].crash();

  const std::uint64_t epoch = epoch_[node];
  sim_.schedule_at(up_at, [this, node, epoch] { rejoin_node(node, epoch); });
}

void Injector::rejoin_node(std::uint32_t node, std::uint64_t epoch) {
  // A stale rejoin (the node was re-crashed and re-owned meanwhile)
  // must not resurrect it early.
  if (down_[node] == 0 || epoch_[node] != epoch) return;

  down_[node] = 0;
  ++counters_.rejoins;
  Window& w = windows_[open_window_[node]];
  WMN_CHECK(w.open && w.node_outage, "rejoin closing the wrong window");
  w.end = sim_.now();
  w.open = false;
  if (!hooks_.empty()) hooks_[node].rejoin();
}

void Injector::schedule_next_churn() {
  const double mean_gap_s = 1.0 / plan_.churn.rate_per_s;
  const sim::Time base = std::max(sim_.now(), plan_.churn.start);
  const sim::Time t =
      base + sim::Time::seconds(churn_rng_.exponential(mean_gap_s));
  if (t >= plan_.churn.stop) return;  // churn season over
  sim_.schedule_at(t, [this] { churn_event(); });
}

void Injector::churn_event() {
  const auto victim = static_cast<std::uint32_t>(
      churn_rng_.uniform_u64(0, down_.size() - 1));
  if (down_[victim] == 0) {
    // Clamp tiny downtime draws: a sub-100ms reboot is not a fault
    // worth modelling and would just thrash the timers.
    const double down_s = std::max(
        0.1, churn_rng_.exponential(plan_.churn.mean_downtime.to_seconds()));
    crash_node(victim, sim_.now() + sim::Time::seconds(down_s));
  }
  // A victim that was already down still consumed this event slot; the
  // process rate is over attempts, which keeps the draw sequence
  // independent of network state.
  schedule_next_churn();
}

}  // namespace wmn::fault
