#include "fault/fault_timeline.hpp"

namespace wmn::fault {

FaultTimeline::FaultTimeline(std::uint64_t master_seed, const FaultPlan& plan,
                             std::size_t n_nodes, sim::Time horizon)
    : sim_(master_seed), record_(sim_, plan, n_nodes), by_node_(n_nodes) {
  sim_.run_until(horizon);
  const std::vector<Injector::Window>& windows = record_.windows();
  for (std::uint32_t i = 0; i < windows.size(); ++i) {
    if (windows[i].node_outage) by_node_[windows[i].node].push_back(i);
  }
}

bool FaultTimeline::node_up(std::uint32_t node, sim::Time now) const {
  if (node >= by_node_.size()) return true;
  for (const std::uint32_t wi : by_node_[node]) {
    const Injector::Window& w = record_.windows()[wi];
    if (now < w.start) continue;
    if (w.open || now < w.end) return false;
  }
  return true;
}

// Pure-time evaluation matches the injector's event-driven active
// list: the toggle events are scheduled at construction, so at t ==
// from (resp. to) they run before any same-time transmission — i.e.
// the blackout is in force exactly on [from, to).
double FaultTimeline::link_loss_db(std::uint32_t tx, std::uint32_t rx,
                                   sim::Time now) const {
  double loss = 0.0;
  for (const LinkBlackout& b : record_.plan().blackouts) {
    if (now < b.from || now >= b.to) continue;
    const bool forward = b.a == tx && b.b == rx;
    const bool reverse = b.bidirectional && b.a == rx && b.b == tx;
    if (forward || reverse) loss += b.attenuation_db;
  }
  return loss;
}

}  // namespace wmn::fault
