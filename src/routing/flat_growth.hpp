// Growth policy of the routing layer's sorted flat tables (RouteTable,
// the AODV RREQ duplicate cache).
//
// Both tables live once per node and spend their lives near a steady
// high-water mark, so their capacity — not their size — is what the
// bytes_per_node budget pays. std::vector's doubling would round a
// mean high-water mark of ~88 RREQ records up to 128 slots; growing by
// ~1.25x instead bounds the slack at a quarter of the table, for a few
// more (one-off, warm-up time) reallocations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace wmn::routing {

// Smallest step, so tiny tables do not reallocate on every insert.
inline constexpr std::size_t kFlatGrowthMinStep = 4;

// Capacity after growing a full table of capacity `cap` by one step.
[[nodiscard]] constexpr std::size_t flat_grown_capacity(std::size_t cap) {
  return cap + std::max(cap / 4, kFlatGrowthMinStep);
}

// Insert `value` at index `at` of the sorted table `v`, growing a full
// table by one flat_grown_capacity() step first. Returns the inserted
// element. `value` must not alias an element of `v`.
template <typename T, typename V>
T& flat_insert(std::vector<T>& v, std::size_t at, V&& value) {
  if (v.size() == v.capacity()) v.reserve(flat_grown_capacity(v.capacity()));
  return *v.insert(v.begin() + static_cast<std::ptrdiff_t>(at),
                   std::forward<V>(value));
}

}  // namespace wmn::routing
