// Calendar: the event-calendar interface extracted from sim::Scheduler.
//
// The sharded engine (sim/sharded_simulator.hpp) gives every region its
// own calendar. Rather than introduce a virtual base on the hottest
// path in the program, the calendar contract is a C++20 concept: any
// type that schedules closures at strongly-typed times, hands back
// cancellable ids, and pops in (time, insertion-seq) total order can
// drive a Simulator. sim::Scheduler — with its generation-tagged slot
// slab and O(1) lazy cancel — is the one production model; the concept
// is the seam where an alternative structure plugs in without touching
// the drivers. The seam is in use: arrival lanes (sim::Lane) merge
// whole monotone runs of events — one per wireless transmission — into
// the calendar through a single heap entry each, keyed by the same
// (time, insertion-seq) total order, so the heap holds one entry per
// transmission instead of two per receiver (DESIGN.md §3c).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace wmn::sim {

template <typename C>
concept Calendar = requires(C cal, const C ccal, Time at, EventId id,
                            Lane* lane, LaneId lane_id, Lane::Key key) {
  // Admission. schedule() accepts any event closure and returns a
  // handle that stays valid (for cancel / pending queries) until the
  // event fires or the slab slot is recycled.
  { cal.schedule(at, [] {}) } -> std::same_as<EventId>;
  { cal.cancel(id) };
  { ccal.pending(id) } -> std::convertible_to<bool>;

  // Inspection. next_time() is non-const: the slab scheduler sheds
  // lazily-cancelled heap tops while peeking.
  { ccal.empty() } -> std::convertible_to<bool>;
  { ccal.size() } -> std::convertible_to<std::size_t>;
  { cal.next_time() } -> std::same_as<Time>;
  { ccal.total_scheduled() } -> std::convertible_to<std::uint64_t>;

  // Extraction: pop() yields events in (time, insertion-seq) order —
  // the total order every determinism fingerprint in the repo relies
  // on, lane elements included. clear() drops everything (end-of-run
  // teardown).
  { cal.pop() };
  { cal.clear() };

  // Lanes: register a client-owned monotone run, draw the sequence
  // numbers its elements take, and announce new elements.
  { cal.add_lane(lane) } -> std::same_as<LaneId>;
  { cal.remove_lane(lane_id) };
  { cal.reserve_seqs(std::uint64_t{1}) } -> std::same_as<std::uint64_t>;
  { cal.lane_push(lane_id, key, std::uint32_t{1}) };
};

// The production calendar models the concept. If Scheduler's surface
// drifts, this fires at compile time in every TU that includes the
// sharded driver, not at link or run time.
static_assert(Calendar<Scheduler>,
              "sim::Scheduler must model the Calendar concept");

}  // namespace wmn::sim
