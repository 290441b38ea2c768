// A generic sim::Lane for scheduler and simulator tests.
//
// Holds (key, payload) elements in a sorted map and always hands out
// the earliest, so it accepts any push the lane contract allows —
// including one earlier than its current head (the re-key case) — and
// lets tests drive lanes without the wireless channel. `Calendar` is
// sim::Scheduler or sim::Simulator: both expose add_lane, remove_lane
// and lane_push.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"

namespace wmn::sim::lane_testing {

template <typename Calendar>
class TestLane final : public Lane {
 public:
  using OnRun = std::function<void(std::uint32_t payload)>;

  TestLane(Calendar& calendar, OnRun on_run)
      : calendar_(calendar), on_run_(std::move(on_run)) {
    id_ = calendar_.add_lane(this);
  }
  ~TestLane() { calendar_.remove_lane(id_); }

  // Queue a batch of elements and announce it with its earliest key.
  void push(const std::vector<std::pair<Key, std::uint32_t>>& batch) {
    if (batch.empty()) return;
    Key head = batch.front().first;
    for (const auto& [key, payload] : batch) {
      elems_.emplace(std::pair{key.at.ns(), key.seq}, payload);
      if (key.at < head.at || (key.at == head.at && key.seq < head.seq)) {
        head = key;
      }
    }
    calendar_.lane_push(id_, head, static_cast<std::uint32_t>(batch.size()));
  }

  Detached detach() override {
    const auto it = elems_.begin();
    Detached d{};
    d.token = it->second;
    elems_.erase(it);
    d.has_next = !elems_.empty();
    if (d.has_next) {
      d.next = Key{Time::nanos(elems_.begin()->first.first),
                   elems_.begin()->first.second};
    }
    return d;
  }

  void run(std::uint32_t token) override { on_run_(token); }

  void discard() override {
    discarded_ += elems_.size();
    elems_.clear();
  }

  [[nodiscard]] std::size_t held() const { return elems_.size(); }
  [[nodiscard]] std::size_t discarded() const { return discarded_; }

 private:
  Calendar& calendar_;
  OnRun on_run_;
  LaneId id_{};
  std::map<std::pair<std::int64_t, std::uint64_t>, std::uint32_t> elems_;
  std::size_t discarded_ = 0;
};

}  // namespace wmn::sim::lane_testing
