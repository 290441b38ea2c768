// FaultTimeline: the fault::Injector's realized history, precomputed
// for the sharded engine, and that engine's phy::FaultOverlay.
//
// The Injector mutates per-node state from scheduled events on the one
// simulation calendar — which a sharded run does not have: a region
// thread consulting a shared injector mid-epoch would race another
// region's crash event. But the injector's behaviour is a pure function
// of (plan, master seed, node count) — see injector.hpp — so the
// timeline runs a record-only Injector on its own throwaway calendar
// to the scenario horizon, and every region thread then reads the
// frozen record without synchronisation. tests/test_shard_map.cpp pins
// the record against a live injector, window by window.
//
// As the overlay, it answers node_up(node, now) and link_loss_db(tx,
// rx, now) from the frozen windows at the caller's region clock. The
// crash/rejoin choreography is NOT performed here: the scenario
// schedules NodeHooks::crash()/rejoin() from record().windows() onto
// each victim's home-region calendar at construction time, which also
// gives those events the earliest insertion sequence at their
// timestamp — the same ordering the injector's ctor-scheduled events
// have in a serial run.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "phy/fault_overlay.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wmn::fault {

class FaultTimeline final : public phy::FaultOverlay {
 public:
  // Runs `plan` for `n_nodes` nodes to `horizon` (the scenario end,
  // inclusive — matching the serial run_until the injector lives in).
  FaultTimeline(std::uint64_t master_seed, const FaultPlan& plan,
                std::size_t n_nodes, sim::Time horizon);

  FaultTimeline(const FaultTimeline&) = delete;
  FaultTimeline& operator=(const FaultTimeline&) = delete;

  // --- phy::FaultOverlay (thread-safe: all state is frozen) ------------
  [[nodiscard]] bool node_up(std::uint32_t node, sim::Time now) const override;
  [[nodiscard]] double link_loss_db(std::uint32_t tx, std::uint32_t rx,
                                    sim::Time now) const override;

  // The finished record-only run: windows, counters, downtime and
  // in_fault_window, all read-only.
  [[nodiscard]] const Injector& record() const { return record_; }

 private:
  sim::Simulator sim_;  // the throwaway calendar record_ ran on
  Injector record_;
  std::vector<std::vector<std::uint32_t>> by_node_;  // node -> window indices
};

}  // namespace wmn::fault
