// AODV routing table: destination-sequenced distance-vector entries
// with lifetimes, precursor lists, and an optional path metric (used by
// metric-based route selection; equals hop count for baselines).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace wmn::routing {

enum class RouteState : std::uint8_t { kValid, kInvalid };

// Field order packs the entry to 56 bytes (wide members first, the
// byte-sized flags sharing one tail word) — at 400+ nodes the route
// tables are among the largest per-node structures, so the layout is
// part of the bytes_per_node budget. The table stores entries flat and
// keyed by their own `dest`, so 56 B is the whole per-route cost.
struct RouteEntry {
  double metric = 0.0;          // accumulated path metric (CLNLR load)
  sim::Time expires{};          // entry dies (or goes stale) at this time
  // Neighbours that route *through us* to `dest`; they get RERRs when
  // the route breaks. Sorted ascending and duplicate-free — a handful
  // of addresses at most, where a sorted vector is both smaller than a
  // hash set (24 bytes inline vs 56 + buckets) and already in the
  // normalised order the RERR path needs.
  std::vector<net::Address> precursors;
  net::Address dest;
  net::Address next_hop;
  std::uint32_t dest_seqno = 0;
  std::uint8_t hop_count = 0;
  bool valid_seqno = false;
  RouteState state = RouteState::kValid;
};
// Layout pin (LP64) for the packing claim above.
static_assert(sizeof(void*) != 8 || sizeof(RouteEntry) == 56,
              "RouteEntry layout no longer packs to 56 bytes");

class RouteTable {
 public:
  // Valid (non-expired, kValid) entry for dest, if any. `now` drives
  // lazy expiry: expired entries flip to kInvalid on access.
  [[nodiscard]] const RouteEntry* lookup(net::Address dest, sim::Time now);

  // Entry regardless of state (e.g. to read the last known seqno).
  [[nodiscard]] RouteEntry* find(net::Address dest);

  // Insert or overwrite an entry.
  RouteEntry& upsert(const RouteEntry& entry);

  // Refresh the lifetime of an active route (data traffic keeps routes
  // alive, per RFC 3561 section 6.2).
  void touch(net::Address dest, sim::Time expires);

  // Invalidate the route to `dest` (if present), bumping its seqno so
  // stale information cannot resurrect it. Returns the invalidated
  // entry, if one existed and was valid.
  std::optional<RouteEntry> invalidate(net::Address dest, sim::Time now);

  // All valid routes whose next hop is `via`, in ascending dest order
  // (link-break handling).
  [[nodiscard]] std::vector<net::Address> dests_via(net::Address via,
                                                    sim::Time now);

  void add_precursor(net::Address dest, net::Address precursor);

  // Remove `precursor` from every entry's precursor list — called when
  // the neighbour expires from the NeighborTable, so later RERRs are
  // not addressed to stations known to be gone.
  void remove_precursor(net::Address precursor);

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] std::size_t capacity() const { return table_.capacity(); }

  // Drop long-dead invalid entries (housekeeping; called by the agent's
  // periodic timer).
  void purge(sim::Time now, sim::Time dead_retention);

  // Forget everything (node crash: a rebooted router has no table).
  void clear() { table_.clear(); }

  // Dynamic footprint (entry slots at capacity + precursor storage) —
  // feeds the bytes_per_node bench counter.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  // First entry whose dest is not below `dest`.
  [[nodiscard]] std::vector<RouteEntry>::iterator lower(net::Address dest);

  // Sorted by dest, unique, grown ~1.25x (routing/flat_growth.hpp).
  // Every walk over it is in dest order — the order dests_via() hands
  // to RERRs — so no result depends on insertion history. Upsert and
  // purge move entries: a RouteEntry* is only good until the next one.
  std::vector<RouteEntry> table_;
};

}  // namespace wmn::routing
