// The shared wireless medium.
//
// One WirelessChannel per simulation: it knows every attached radio,
// and on each transmission computes per-receiver received power through
// the propagation model, delivering an energy arrival (after speed-of-
// light delay) to every radio above the detection floor. Whether the
// arrival is a decodable frame, carrier-sense energy, or interference
// is the *receiving* radio's business (see WifiPhy).
//
// Arrival lanes: each transmission's copies ride ONE calendar entry (a
// sim::Lane, see sim/scheduler.hpp) instead of one event per receiver
// for the arrival's begin and another for its end. The ArrivalLane
// holds the receivers sorted by (arrival time, attach order) and the
// block of sequence numbers the per-receiver events would have drawn;
// each receiver's end_arrival is handed back to the same lane by
// WifiPhy::begin_arrival, with a sequence number reserved at the point
// the radio used to schedule it. Pop order is therefore exactly the
// per-event order (DESIGN.md §3c, "Arrival lanes"). Lanes are pooled
// and reused, so steady-state fan-out allocates nothing; the one
// packet copy a lane keeps is shared by all its receivers.
//
// Broadcast fan-out cost: all candidate-link math runs through the
// phy::LinkBudgetKernel over reusable SoA buffers (one batched
// distance pass + one batched model pass per transmission) instead of
// a virtual propagation call per pair. On top of that,
// enable_spatial_index() activates two layers:
//
//   * a phy::SpatialIndex (uniform grid fed by mobility epochs) culls
//     receivers provably out of range (PropagationModel::max_range_m)
//     before any propagation math;
//   * a per-source neighbour cache memoises the candidate list in SoA
//     form and, for pinned-position pairs (both mobility bounds are
//     points), the full link budget — power in dBm AND milliwatts plus
//     the propagation delay — so a static mesh pays the propagation
//     model (and the dBm->mW pow()) once per link per run.
//
// Even without the index, the full scan culls receivers whose batched
// distance exceeds the source's conservative max_range_m inversion
// (the same proof the spatial index rests on) before the model pass.
//
// The indexed path is bit-identical to the full scan: candidates are
// examined in attach order, culled pairs are provably below the floor
// and are bulk-accounted as copies_dropped_floor, and cached budgets
// are the exact values the kernel would recompute. With a fault
// overlay installed every transmission takes the full scan, which
// applies the overlay itself: a down receiver counts as
// copies_dropped_fault before any distance test (even out of range),
// and a blackout's link loss is subtracted before the floor test. The
// neighbour cache stays fault-free.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "phy/fault_overlay.hpp"
#include "phy/link_budget_kernel.hpp"
#include "phy/propagation.hpp"
#include "phy/spatial_index.hpp"
#include "phy/wifi_phy.hpp"
#include "sim/simulator.hpp"

namespace wmn::phy {

class ShardRouter;
class WirelessChannel;

// One transmission's copies in flight, as one calendar lane. Element i
// is receiver i's arrival begin, keyed (at_i, first_seq + i); once it
// ran, the same item can carry the arrival's end, keyed (at_i +
// duration, end_seq_i). Begins are sorted and ends are pushed in begin
// order with ascending sequence numbers, so both runs are monotone and
// the lane hands out whichever head is earlier.
class ArrivalLane final : public sim::Lane {
 public:
  explicit ArrivalLane(WirelessChannel& channel) : channel_(channel) {}

  // Called by WifiPhy::begin_arrival for `item` exactly where the radio
  // schedules its end_arrival(`key`): reserves the end's sequence number
  // now and queues the end in this lane.
  void schedule_end(std::uint32_t item, std::uint64_t key);

  Detached detach() override;
  void run(std::uint32_t token) override;
  void discard() override;

 private:
  friend class WirelessChannel;

  // One receiver's copy. The powers serve its begin; end_seq and key,
  // filled in when the begin runs, serve its end.
  struct Item {
    sim::Time at;                // arrival begins (propagation done)
    double dbm;                  // received power
    double mw;                   // the same, linear
    std::uint32_t rx = 0;        // receiver's attach index
    std::uint64_t end_seq = 0;   // its end event's seq; 0 = no end
    std::uint64_t key = 0;       // receiver's arrival key for the end
  };
  static constexpr std::uint32_t kEndBit = 0x80000000u;

  [[nodiscard]] Key begin_key(std::uint32_t i) const {
    return Key{items_[i].at, first_seq_ + i};
  }
  [[nodiscard]] Key end_key(std::uint32_t i) const {
    return Key{items_[i].at + duration_, items_[i].end_seq};
  }
  // Earliest pending element, if any; *is_begin tells which run.
  bool head(Key* key, bool* is_begin);

  WirelessChannel& channel_;
  sim::LaneId id_{};
  std::optional<net::Packet> packet_;  // shared by every receiver's copy
  sim::Time duration_{};
  std::uint64_t first_seq_ = 0;
  std::vector<Item> items_;  // sorted by (at, rx)
  std::uint32_t next_begin_ = 0;  // next begin to detach
  std::uint32_t begun_ = 0;       // begins that have run
  std::uint32_t next_end_ = 0;    // items before this have no end left
  std::uint32_t open_ends_ = 0;   // ends queued but not yet run
};

class WirelessChannel {
 public:
  WirelessChannel(sim::Simulator& simulator,
                  std::unique_ptr<PropagationModel> propagation);

  WirelessChannel(const WirelessChannel&) = delete;
  WirelessChannel& operator=(const WirelessChannel&) = delete;
  // Unregisters the pooled lanes; the simulator must still be alive.
  ~WirelessChannel();

  // Register a radio. The radio must outlive the channel's use of it.
  void attach(WifiPhy* phy);

  // --- sharded engine hooks (see phy/shard_router.hpp) ----------------
  // Register a radio homed in ANOTHER region as a delivery candidate:
  // grows the radio table, caches, and spatial index, but never takes
  // ownership — the phy keeps transmitting through its home channel.
  // Regions must attach/attach_remote in the same global node order so
  // attach indices agree on every region channel.
  void attach_remote(WifiPhy* phy);

  // Install the cross-region router and this channel's region id. With
  // a router installed, a transmission forwards any receiver homed
  // elsewhere to the router instead of its own arrival lane.
  void set_shard_router(ShardRouter* router, std::uint32_t region_id);

  // Router re-entry on the destination region: a lane of one that
  // delivers a re-materialised cross-region copy at `release_at` (>= the
  // physical arrival; see DESIGN.md §3e). Runs on the coordinating
  // thread at an epoch barrier, with every worker parked.
  void accept_cross(WifiPhy* rx, net::Packet packet, double p_dbm, double p_mw,
                    sim::Time release_at, sim::Time duration);

  // Broadcast `packet` from `src` to every other attached radio.
  // Called by WifiPhy::send(); not part of the public user API.
  void transmit(const WifiPhy& src, const net::Packet& packet, sim::Time duration);

  // Turn on the spatial neighbourhood index + link-budget cache for
  // the given deployment area. Callable before or after attaches; the
  // grid itself is built lazily on the first transmission (cell size
  // derives from the radios' detection range, known only then).
  // Results are bit-identical with the index on or off.
  void enable_spatial_index(double area_width_m, double area_height_m);

  [[nodiscard]] bool spatial_index_enabled() const { return index_enabled_; }
  // Diagnostics/tests: null until enabled AND the first indexed
  // transmission built the grid.
  [[nodiscard]] const SpatialIndex* spatial_index() const { return index_.get(); }

  [[nodiscard]] std::size_t radio_count() const { return radios_.size(); }

  // Received power between two attached radios right now — used by
  // scenario builders to check topology connectivity before a run.
  [[nodiscard]] double link_rx_power_dbm(const WifiPhy& tx, const WifiPhy& rx) const;

  // Install (or clear, with nullptr) the fault overlay. Non-owning; the
  // overlay must outlive its installation. See phy/fault_overlay.hpp.
  void set_fault_overlay(const FaultOverlay* overlay) { fault_ = overlay; }

  // Each copy this channel propagates ends in exactly one of delivered,
  // dropped_floor or dropped_fault, or is still in flight: without a
  // shard router, delivered + floor + fault + deliveries_in_flight() ==
  // (N-1) * transmissions at every instant. (With one, copies handed to
  // another region are counted by the region that delivers them.)
  struct Counters {
    std::uint64_t transmissions = 0;
    std::uint64_t copies_delivered = 0;  // reached a live receiver's radio
    std::uint64_t copies_dropped_floor = 0;
    std::uint64_t copies_dropped_fault = 0;  // receiver down at tx or arrival
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // Copies currently propagating (diagnostics / tests).
  [[nodiscard]] std::size_t deliveries_in_flight() const { return in_flight_; }

  // Dynamic footprint of the channel's own state (arrival lanes, SoA
  // caches, kernel batches, spatial index scratch) — feeds the
  // bytes_per_node bench counter.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  friend class ArrivalLane;

  // Per-source candidate list in SoA form, valid for one SpatialIndex
  // version, elements in ascending attach order. Memoised (pinned-
  // pair) entries carry the exact budget: power in dBm and mW plus the
  // propagation delay, all computed once at rebuild through the same
  // kernel the live path uses. The delay is kept as whole nanoseconds
  // (sim::Time's own unit, so the narrowing is exact); kLiveDelay marks
  // a live entry (a mobile endpoint), re-evaluated per transmission.
  // n_live == 0 (the static-mesh common case) enables the branch-free
  // fast loop, and such a cache is kept in (delay, attach) order
  // instead — arrival order, so its transmissions fill their lanes
  // already sorted.
  //
  // `culled` counts receivers provably below the detection floor for
  // this version (out of range, or a pinned pair whose exact cached
  // budget is under the receiver's floor) — bulk-added to
  // copies_dropped_floor per transmission so the counter matches the
  // full scan exactly.
  struct NeighborCache {
    static constexpr std::uint32_t kLiveDelay = 0xFFFFFFFFu;

    std::uint64_t built_version = ~std::uint64_t{0};
    std::uint64_t culled = 0;
    std::uint32_t n_live = 0;
    std::vector<std::uint32_t> rx_index;
    std::vector<double> power_dbm;
    std::vector<double> power_mw;
    std::vector<std::uint32_t> delay_ns;  // kLiveDelay = live entry

    [[nodiscard]] std::size_t memory_bytes() const {
      return rx_index.capacity() * sizeof(std::uint32_t) +
             power_dbm.capacity() * sizeof(double) +
             power_mw.capacity() * sizeof(double) +
             delay_ns.capacity() * sizeof(std::uint32_t);
    }
  };
  // Layout pin: one candidate costs 24 B across the four arrays.
  static_assert(sizeof(decltype(NeighborCache::rx_index)::value_type) +
                        sizeof(decltype(NeighborCache::power_dbm)::value_type) +
                        sizeof(decltype(NeighborCache::power_mw)::value_type) +
                        sizeof(decltype(NeighborCache::delay_ns)::value_type) ==
                    24,
                "a neighbour-cache candidate no longer costs 24 bytes");

  // Queue receiver `rx` (attach index) for the lane being filled, or
  // post it to the shard router when it is homed in another region.
  void stage(std::uint32_t rx, const net::Packet& packet, double p_dbm,
             double p_mw, sim::Time at, sim::Time duration);
  // Open one lane for everything staged (no-op when nothing is).
  void launch(const net::Packet& packet, sim::Time duration);
  void recycle(ArrivalLane& lane) { free_lanes_.push_back(&lane); }
  void refresh_ranges();
  void build_spatial_index();
  static void sort_by_arrival(NeighborCache& nc);
  void rebuild_neighbor_cache(std::uint32_t src_index);
  void transmit_indexed(const WifiPhy& src, const net::Packet& packet,
                        sim::Time duration, sim::Time now,
                        mobility::Vec2 tx_pos);
  void transmit_full_scan(const WifiPhy& src, const net::Packet& packet,
                          sim::Time duration, sim::Time now,
                          mobility::Vec2 tx_pos);

  sim::Simulator& sim_;
  std::unique_ptr<PropagationModel> propagation_;
  const FaultOverlay* fault_ = nullptr;
  ShardRouter* router_ = nullptr;
  std::uint32_t region_id_ = 0;
  std::vector<WifiPhy*> radios_;
  // Arrival lanes, pooled: stable addresses (the simulator holds them)
  // and registered once, for the channel's lifetime.
  std::vector<std::unique_ptr<ArrivalLane>> lanes_;
  std::vector<ArrivalLane*> free_lanes_;
  // The next lane's items, staged in attach order; launch() sorts them
  // and swaps the buffer into the lane. Empty between transmissions.
  std::vector<ArrivalLane::Item> staged_;
  std::size_t in_flight_ = 0;
  Counters counters_;
  // Reusable kernel buffers (hoisted out of any per-node state): one
  // for per-transmission evaluation, one for cache rebuilds.
  LinkBudgetKernel::Batch batch_;
  LinkBudgetKernel::Batch rebuild_batch_;

  // Conservative per-source detection ranges (max_range_m at the
  // minimum attached floor) — used by both the spatial index grid and
  // the full scan's distance prefilter. Recomputed after attaches.
  bool ranges_valid_ = false;
  double min_detection_floor_dbm_ = 0.0;
  std::vector<double> radio_range_m_;  // per attach index

  // --- spatial index state (inert unless enable_spatial_index()) ------
  bool index_enabled_ = false;
  double area_width_m_ = 0.0;
  double area_height_m_ = 0.0;
  std::unique_ptr<SpatialIndex> index_;
  std::vector<NeighborCache> neighbor_caches_;
  std::vector<std::uint32_t> gather_scratch_;
};

}  // namespace wmn::phy
