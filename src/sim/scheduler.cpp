#include "sim/scheduler.hpp"

#include "core/check.hpp"

namespace wmn::sim {

void Scheduler::cancel(EventId id) {
  if (!id.valid()) return;
  const std::uint32_t slot = id_slot(id);
  if (slot >= slots_.size() || slots_[slot].gen != id_gen(id)) return;
  release_slot(slot);  // heap entry goes stale; dropped when it surfaces
}

void Scheduler::clear() {
  for (const Entry& e : heap_) {
    if ((e.slot & kLaneBit) == 0 && !stale(e)) release_slot(e.slot);
  }
  heap_.clear();
  for (LaneRec& r : lanes_) {
    if (r.pending == 0) continue;
    live_count_ -= r.pending;
    r.pending = 0;
    r.in_heap = false;
    r.lane->discard();
  }
  WMN_CHECK_EQ(live_count_, std::size_t{0}, "clear() left live slots");
}

LaneId Scheduler::add_lane(Lane* lane) {
  WMN_CHECK_NOTNULL(lane, "add_lane(nullptr)");
  std::uint32_t index = free_lane_;
  if (index != kNilSlot) {
    free_lane_ = lanes_[index].next_free;
  } else {
    WMN_CHECK(lanes_.size() < kLaneBit, "scheduler lane table exhausted");
    index = static_cast<std::uint32_t>(lanes_.size());
    lanes_.emplace_back();
  }
  LaneRec& r = lanes_[index];
  r.lane = lane;
  r.next_free = kNilSlot;
  return LaneId{index};
}

void Scheduler::remove_lane(LaneId id) {
  WMN_CHECK_LT(id.index, lanes_.size(), "unknown lane");
  LaneRec& r = lanes_[id.index];
  WMN_CHECK_NOTNULL(r.lane, "lane removed twice");
  ++r.gen;  // its heap entry, if any, goes stale
  live_count_ -= r.pending;
  r.pending = 0;
  r.in_heap = false;
  r.lane = nullptr;
  r.next_free = free_lane_;
  free_lane_ = id.index;
}

}  // namespace wmn::sim
