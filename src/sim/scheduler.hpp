// 4-ary-heap event calendar.
//
// Ordering is (timestamp, insertion sequence): two events scheduled for
// the same instant execute in the order they were scheduled, which the
// MAC layer relies on for deterministic slot resolution. The arity is a
// pure layout choice — (time, seq) is a total order, so the pop
// sequence is independent of heap shape; 4 children per node halves the
// tree depth, and the extra sibling compares stay inside one cache line
// of 24-byte entries.
//
// Storage: callables live in a slab of generation-tagged slots recycled
// through a free list; the heap itself holds small (time, seq, slot,
// gen) entries. Cancellation is O(1) and lazy — it releases the slot
// immediately (bumping its generation) and leaves the heap entry to be
// discarded when it surfaces, recognized by its stale generation. No
// hashing anywhere: pending() and the dead-entry test are one array
// index plus one integer compare. Together with the allocation-free
// EventFn this makes schedule/cancel/pop malloc-free after the slab and
// heap reach steady-state size.
//
// Arrival lanes: one heap entry can stand for a whole monotone run of
// logical events owned by a client (sim::Lane). The entry is keyed by
// the run's head element's exact (time, seq); pop() hands the head
// out as one event, re-keys the entry to the next element and sifts it
// down. Each lane element therefore still runs as one event, counts in
// size() until it pops, and is ordered against every other event by
// the same (time, seq) total order — a lane changes how many heap
// entries the calendar holds, never the pop sequence. The client draws
// its elements' sequence numbers from reserve_seqs() at exactly the
// points where it would have called schedule(), so sequence numbers,
// total_scheduled() and tie-breaks are those of the per-event
// schedule. The wireless channel uses one lane per transmission (see
// phy/channel.hpp and DESIGN.md §3c).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/check.hpp"
#include "sim/event.hpp"
#include "sim/time.hpp"

namespace wmn::sim {

// Client side of an arrival lane. The client keeps the elements; the
// scheduler keeps one heap entry keyed by the lane's head and asks the
// lane for the next key whenever it pops one. Contract: the elements a
// lane hands out are in ascending (time, seq) order, including any
// element pushed (Scheduler::lane_push) while one of its elements runs.
class Lane {
 public:
  // An element's exact calendar key: the (time, seq) an ordinary
  // schedule() call at the same point would have produced.
  struct Key {
    Time at;
    std::uint64_t seq;
  };
  struct Detached {
    std::uint32_t token;  // names the detached element for run()
    bool has_next;        // another element is pending in this lane
    Key next;             // its key, when has_next
  };

  // Remove the head element from the lane; it executes when the popped
  // event calls run(token). Called by Scheduler::pop() only.
  virtual Detached detach() = 0;
  virtual void run(std::uint32_t token) = 0;
  // Drop every pending element (Scheduler::clear()).
  virtual void discard() = 0;

 protected:
  // The scheduler holds a lane by address: lanes neither copy nor move,
  // and are never deleted through a Lane*.
  Lane() = default;
  ~Lane() = default;

 public:
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
};

// Registration handle of a lane (Scheduler::add_lane).
struct LaneId {
  std::uint32_t index = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Insert an event at absolute time `at`. Returns a cancellable id.
  // Defined inline below: schedule/pop run once per simulated event,
  // and keeping them visible to callers lets the fixed-size EventFn
  // moves and the heap arithmetic fold into the call site. Templated
  // on the callable so a lambda's captures are constructed directly in
  // the calendar slot (no intermediate full-capacity EventFn copy).
  template <typename F>
  EventId schedule(Time at, F&& fn);

  // Remove a pending event; no-op on fired, cancelled, or invalid ids.
  // Releases the callable (and anything it captures) eagerly.
  void cancel(EventId id);

  // True iff `id` is scheduled and not yet fired or cancelled.
  [[nodiscard]] bool pending(EventId id) const {
    const std::uint32_t slot = id_slot(id);
    return slot < slots_.size() && slots_[slot].gen == id_gen(id);
  }

  // True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  [[nodiscard]] std::size_t size() const { return live_count_; }

  // Timestamp of the next live event; Time::max() when empty.
  // Compacts stale heap tops as a side effect.
  [[nodiscard]] Time next_time();

  // Remove and return the next live event (a lane element counts as
  // one). Precondition: !empty().
  struct Fired {
    Time at;
    std::uint64_t seq;
    EventFn fn;
  };
  Fired pop();

  // Drop everything (used when a run is aborted). Lanes stay
  // registered; each one holding elements is told to discard() them.
  void clear();

  // --- arrival lanes ---------------------------------------------------
  // Register a lane; the scheduler keeps the pointer until remove_lane.
  // A lane must be removed before it is destroyed.
  LaneId add_lane(Lane* lane);

  // Unregister a lane, dropping its pending elements from size().
  void remove_lane(LaneId id);

  // Reserve `n` consecutive sequence numbers and return the first (an
  // element's seq; n ordinary schedule() calls would have drawn them).
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t first = next_seq_ + 1;
    next_seq_ += n;
    return first;
  }

  // Announce `count` new pending elements in lane `id`, the earliest of
  // which has key `head`. A head earlier than the lane's current key
  // re-keys the lane; a later one is handed out in turn by detach().
  void lane_push(LaneId id, Lane::Key head, std::uint32_t count);

  // Total events ever scheduled (diagnostics / micro-benchmarks).
  [[nodiscard]] std::uint64_t total_scheduled() const { return next_seq_; }

 private:
  // A slot whose generation matches a heap entry / EventId is live; the
  // generation is bumped whenever the slot is released (fire or
  // cancel), which invalidates every outstanding reference at once.
  // (A stale id could only alias after the same slot cycles through
  // 2^32 generations while the id is held — not a practical concern.)
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNilSlot;
  };

  // `slot` indexes slots_, or — with kLaneBit set — lanes_.
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  // A registered lane. At most one of its heap entries is live (the
  // one carrying `gen`); a re-key bumps gen and pushes a fresh entry.
  struct LaneRec {
    Lane* lane = nullptr;
    Lane::Key key{};            // key of the live heap entry
    std::uint32_t gen = 1;
    std::uint32_t pending = 0;  // logical events the lane still holds
    bool in_heap = false;
    std::uint32_t next_free = kNilSlot;
  };

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kLaneBit = 0x80000000u;
  static constexpr std::size_t kArity = 4;  // children per heap node

  // EventId layout: high 32 bits generation, low 32 bits slot + 1 (so
  // id 0 stays the invalid sentinel).
  static constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return EventId((std::uint64_t{gen} << 32) | (slot + 1));
  }
  static constexpr std::uint32_t id_slot(EventId id) {
    return static_cast<std::uint32_t>(id.value() & 0xFFFFFFFFu) - 1;
  }
  static constexpr std::uint32_t id_gen(EventId id) {
    return static_cast<std::uint32_t>(id.value() >> 32);
  }

  // Min-heap predicate on (time, seq).
  static bool later(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  static bool earlier(const Lane::Key& a, const Lane::Key& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  [[nodiscard]] bool stale(const Entry& e) const {
    if ((e.slot & kLaneBit) != 0) {
      return lanes_[e.slot & ~kLaneBit].gen != e.gen;
    }
    return slots_[e.slot].gen != e.gen;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void drop_dead_top();
  void remove_top();
  Fired pop_lane(const Entry& top);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<LaneRec> lanes_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint32_t free_lane_ = kNilSlot;
  std::size_t live_count_ = 0;
  std::uint64_t next_seq_ = 0;
};

// --- hot-path definitions (see the note on schedule() above) ---------

inline std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNilSlot;
    return slot;
  }
  WMN_CHECK(slots_.size() < kLaneBit, "scheduler slot slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

inline void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = EventFn{};  // drop captures now, not when the entry surfaces
  ++s.gen;           // invalidates every outstanding id / heap entry
  s.next_free = free_head_;
  free_head_ = slot;
  --live_count_;
}

// Both sifts move a hole instead of swapping: one 24-byte entry copy
// per level plus one at the end, versus three per level for std::swap.
inline void Scheduler::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

inline void Scheduler::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t smallest = first;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (later(heap_[smallest], heap_[c])) smallest = c;
    }
    if (!later(e, heap_[smallest])) break;
    heap_[i] = heap_[smallest];
    i = smallest;
  }
  heap_[i] = e;
}

inline void Scheduler::remove_top() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

inline void Scheduler::drop_dead_top() {
  while (!heap_.empty() && stale(heap_[0])) remove_top();
}

template <typename F>
inline EventId Scheduler::schedule(Time at, F&& fn) {
  WMN_CHECK(!at.is_negative(), "events cannot be scheduled before t=0");
  const std::uint64_t seq = ++next_seq_;  // ids start at 1; 0 = invalid
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::forward<F>(fn);
  heap_.push_back(Entry{at, seq, slot, s.gen});
  sift_up(heap_.size() - 1);
  ++live_count_;
  return make_id(slot, s.gen);
}

inline Time Scheduler::next_time() {
  drop_dead_top();
  return heap_.empty() ? Time::max() : heap_[0].at;
}

inline void Scheduler::lane_push(LaneId id, Lane::Key head,
                                 std::uint32_t count) {
  WMN_CHECK(!head.at.is_negative(), "events cannot be scheduled before t=0");
  LaneRec& r = lanes_[id.index];
  if (count == 0) return;
  r.pending += count;
  live_count_ += count;
  if (r.in_heap) {
    if (!earlier(head, r.key)) return;  // detach() reaches it in turn
    ++r.gen;                            // re-key: the old entry goes stale
  }
  r.in_heap = true;
  r.key = head;
  heap_.push_back(Entry{head.at, head.seq, id.index | kLaneBit, r.gen});
  sift_up(heap_.size() - 1);
}

// A lane element pops like an event: the entry is re-keyed in place to
// the lane's next element (keys only grow, so a sift-down restores the
// heap) or leaves the heap when the lane runs dry.
inline Scheduler::Fired Scheduler::pop_lane(const Entry& top) {
  LaneRec& r = lanes_[top.slot & ~kLaneBit];
  Lane* lane = r.lane;
  const Lane::Detached d = lane->detach();
  --r.pending;
  --live_count_;
  if (d.has_next) {
    r.key = d.next;
    heap_[0].at = d.next.at;
    heap_[0].seq = d.next.seq;
    sift_down(0);
  } else {
    WMN_CHECK_EQ(r.pending, std::uint32_t{0},
                 "lane ran dry with elements pending");
    r.in_heap = false;
    remove_top();
  }
  return Fired{top.at, top.seq,
               [lane, token = d.token] { lane->run(token); }};
}

inline Scheduler::Fired Scheduler::pop() {
  drop_dead_top();
  WMN_CHECK(!heap_.empty(), "pop() on empty scheduler");
  const Entry top = heap_[0];
  if ((top.slot & kLaneBit) != 0) return pop_lane(top);
  Fired out{top.at, top.seq, std::move(slots_[top.slot].fn)};
  release_slot(top.slot);
  remove_top();
  return out;
}

}  // namespace wmn::sim
