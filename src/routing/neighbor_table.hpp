// 1-hop neighbour table, fed by HELLO beacons.
//
// Besides liveness (a neighbour silent for `allowed_loss` hello
// intervals is declared gone, triggering link-break handling), the
// table stores each neighbour's advertised load index and degree — the
// inputs to CLNLR's neighbourhood load computation.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wmn::routing {

// Wide members first: 32 bytes instead of the 40 the declaration-order
// layout padded to — at CLNLR densities this table is sized by the node
// degree, so the entry layout shows up in bytes_per_node.
struct NeighborInfo {
  sim::Time last_heard{};
  double load_index = 0.0;   // sender's advertised cross-layer load
  net::Address addr;
  std::uint32_t last_seqno = 0;
  std::uint16_t degree = 0;  // sender's advertised neighbour count
};
// Layout pin (LP64) for the packing claim above.
static_assert(sizeof(void*) != 8 || sizeof(NeighborInfo) == 32,
              "NeighborInfo layout no longer packs to 32 bytes");

class NeighborTable {
 public:
  using LossCallback = std::function<void(net::Address)>;

  NeighborTable(sim::Simulator& simulator, sim::Time hello_interval,
                std::uint32_t allowed_loss);
  ~NeighborTable();

  NeighborTable(const NeighborTable&) = delete;
  NeighborTable& operator=(const NeighborTable&) = delete;

  // Record a heard HELLO (or any frame proving the neighbour alive).
  void heard(net::Address addr, std::uint32_t seqno, double load_index,
             std::uint16_t degree);

  // Refresh liveness only (e.g. data frame overheard from neighbour).
  void refresh(net::Address addr);

  [[nodiscard]] bool contains(net::Address addr) const {
    return neighbors_.contains(addr);
  }

  [[nodiscard]] std::size_t count() const { return neighbors_.size(); }

  [[nodiscard]] const NeighborInfo* info(net::Address addr) const;

  [[nodiscard]] std::vector<NeighborInfo> snapshot() const;

  // Mean advertised load of current neighbours (0 when alone).
  // Memoised: the value is a pure function of the map state, so it is
  // recomputed (same visit order, same rounding) only after heard(),
  // an expiry or pause() changed that state; refresh() touches only
  // liveness and keeps it.
  [[nodiscard]] double mean_neighbor_load() const;

  // Called when a neighbour expires from the table.
  void set_loss_callback(LossCallback cb) { loss_cb_ = std::move(cb); }

  // Fault injection: pause() cancels the sweep and forgets every
  // neighbour (no loss callbacks — the owning agent is crashing, not
  // detecting failures); resume() restarts the sweep on an empty table.
  void pause();
  void resume();

  // Dynamic footprint (buckets + entries) — feeds the bytes_per_node
  // bench counter.
  [[nodiscard]] std::size_t memory_bytes() const {
    using Node = std::pair<const net::Address, NeighborInfo>;
    return sizeof(*this) + neighbors_.bucket_count() * sizeof(void*) +
           neighbors_.size() * (sizeof(Node) + 16);
  }

 private:
  void sweep();

  sim::Simulator& sim_;
  sim::Time lifetime_;
  std::unordered_map<net::Address, NeighborInfo> neighbors_;
  LossCallback loss_cb_;
  sim::EventId sweep_timer_{};
  mutable double mean_load_ = 0.0;
  mutable bool mean_load_valid_ = false;
};

}  // namespace wmn::routing
