// Executes a FaultPlan: the one crash/churn state machine.
//
// With node hooks it drives each crash and rejoin through NodeHooks
// (below). Record-only (a node count instead of hooks) it runs the
// same machine without touching any layer; fault::FaultTimeline runs
// one on a throwaway calendar to precompute the sharded engine's
// fault history.
//
// It also implements phy::FaultOverlay, which the channel consults per
// transmission for crashed receivers and blacked-out links, and it
// records every realized fault window so metrics can classify traffic
// as sent during/outside outages (`in_fault_window`).
//
// Determinism: all scheduled faults come from the plan; churn draws
// inter-arrival gaps, victims, and downtimes from a single RNG stream
// derived from the scenario master seed (kFaultStreamSalt), consumed in
// event order — so a (plan, seed) pair replays bit-identically, and an
// empty plan draws nothing at all. The draws never depend on network
// state (a churn attempt whose victim is already down still consumes
// its slot), which is what lets a record-only run reproduce a live one.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mac/dcf_mac.hpp"
#include "phy/fault_overlay.hpp"
#include "phy/wifi_phy.hpp"
#include "routing/aodv.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace wmn::fault {

inline constexpr std::uint64_t kFaultStreamSalt = 0xFA17'0000'0000'0000ULL;

// Per-node layer handles and the crash choreography over them:
//
//   crash:  agent.pause() -> mac.power_down() -> phy.set_up(false)
//   rejoin: phy.set_up(true) -> mac.power_up() -> agent.resume()
//
// (routing first on the way down so no layer below can call back into
// a half-dead agent; reverse on the way up so every layer an upper one
// relies on is already alive). Pointers may be null only when the plan
// can never crash that node; crash() checks them.
struct NodeHooks {
  phy::WifiPhy* phy = nullptr;
  mac::DcfMac* mac = nullptr;
  routing::AodvAgent* agent = nullptr;

  void crash() const;
  void rejoin() const;
};

class Injector final : public phy::FaultOverlay {
 public:
  // Live: crashes and rejoins the node stacks behind `hooks`.
  Injector(sim::Simulator& simulator, FaultPlan plan,
           std::vector<NodeHooks> hooks);
  // Record-only: the same state machine over `n_nodes` nodes, without
  // touching any layer.
  Injector(sim::Simulator& simulator, FaultPlan plan, std::size_t n_nodes);

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  // --- phy::FaultOverlay -----------------------------------------------
  // The live state already is the state at the calendar's now.
  [[nodiscard]] bool node_up(std::uint32_t node,
                             sim::Time /*now*/) const override {
    return node >= down_.size() || down_[node] == 0;
  }
  [[nodiscard]] double link_loss_db(std::uint32_t tx, std::uint32_t rx,
                                    sim::Time now) const override;

  // True when `t` falls inside any realized fault window (node outage
  // or link blackout). Used to split PDR into during/outside-outage.
  [[nodiscard]] bool in_fault_window(sim::Time t) const;

  // Total realized node downtime up to `now` (open outages included).
  [[nodiscard]] sim::Time total_node_downtime(sim::Time now) const;

  struct Counters {
    std::uint64_t crashes = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t blackouts = 0;  // windows scheduled
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // One realized fault window: a node outage or a link blackout.
  struct Window {
    sim::Time start{};
    sim::Time end{};
    bool open = false;        // end not yet known (node still down)
    bool node_outage = false; // vs. link blackout
    std::uint32_t node = 0;   // the crashed node (node outages only)
  };
  // Blackouts first (known up front), then node outages in crash order.
  [[nodiscard]] const std::vector<Window>& windows() const { return windows_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  struct ActiveBlackout {
    std::uint32_t a;
    std::uint32_t b;
    double loss_db;
    bool bidirectional;
  };

  void crash_node(std::uint32_t node, sim::Time up_at);
  void rejoin_node(std::uint32_t node, std::uint64_t epoch);
  void schedule_next_churn();
  void churn_event();

  sim::Simulator& sim_;
  FaultPlan plan_;
  std::vector<NodeHooks> hooks_;         // empty when record-only

  std::vector<std::uint8_t> down_;       // 1 while crashed
  std::vector<std::uint64_t> epoch_;     // guards stale rejoin events
  std::vector<std::size_t> open_window_; // index into windows_ while down
  std::vector<ActiveBlackout> active_;   // blackouts in force right now
  std::vector<Window> windows_;          // realized fault history

  sim::RngStream churn_rng_;
  Counters counters_;
};

}  // namespace wmn::fault
