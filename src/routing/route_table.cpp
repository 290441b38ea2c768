#include "routing/route_table.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "routing/flat_growth.hpp"

namespace wmn::routing {

std::vector<RouteEntry>::iterator RouteTable::lower(net::Address dest) {
  return std::lower_bound(
      table_.begin(), table_.end(), dest,
      [](const RouteEntry& e, net::Address d) { return e.dest < d; });
}

RouteEntry* RouteTable::find(net::Address dest) {
  const auto it = lower(dest);
  return it != table_.end() && it->dest == dest ? &*it : nullptr;
}

const RouteEntry* RouteTable::lookup(net::Address dest, sim::Time now) {
  RouteEntry* e = find(dest);
  if (e == nullptr) return nullptr;
  if (e->state == RouteState::kValid && e->expires <= now) {
    e->state = RouteState::kInvalid;
    // Hold the dead entry for its seqno; purge() reclaims it later.
    e->expires = now;
  }
  return e->state == RouteState::kValid ? e : nullptr;
}

RouteEntry& RouteTable::upsert(const RouteEntry& entry) {
  // Next-hop validity: a usable route must point at a concrete
  // neighbour. A broadcast or null next hop would silently blackhole
  // every packet sent along it.
  WMN_CHECK(entry.dest.is_valid() && !entry.dest.is_broadcast(),
            "route entries are keyed by unicast destinations");
  if (entry.state == RouteState::kValid) {
    WMN_CHECK(entry.next_hop.is_valid() && !entry.next_hop.is_broadcast(),
              "valid route with an unusable next hop");
    WMN_CHECK_GE(entry.hop_count, std::uint8_t{1},
                 "a valid route spans at least one hop");
  }
  const auto it = lower(entry.dest);
  if (it != table_.end() && it->dest == entry.dest) return *it = entry;
  return flat_insert(table_, static_cast<std::size_t>(it - table_.begin()),
                     entry);
}

void RouteTable::touch(net::Address dest, sim::Time expires) {
  RouteEntry* e = find(dest);
  if (e == nullptr || e->state != RouteState::kValid) return;
  if (e->expires < expires) e->expires = expires;
}

std::optional<RouteEntry> RouteTable::invalidate(net::Address dest,
                                                 sim::Time now) {
  RouteEntry* e = find(dest);
  if (e == nullptr || e->state != RouteState::kValid) return std::nullopt;
  e->state = RouteState::kInvalid;
  // RFC 3561 section 6.11: increment the seqno of an invalidated route.
  if (e->valid_seqno) ++e->dest_seqno;
  e->expires = now;
  return *e;
}

std::vector<net::Address> RouteTable::dests_via(net::Address via, sim::Time now) {
  // The result feeds RERR destination lists — wire-visible packet
  // contents — so its order must be a function of the table's logical
  // content. The table is sorted by dest, so the walk already is.
  std::vector<net::Address> out;
  for (const RouteEntry& e : table_) {
    if (e.state == RouteState::kValid && e.expires > now && e.next_hop == via) {
      out.push_back(e.dest);
    }
  }
  return out;
}

void RouteTable::add_precursor(net::Address dest, net::Address precursor) {
  RouteEntry* e = find(dest);
  if (e == nullptr) return;
  auto& prec = e->precursors;
  const auto pos = std::lower_bound(prec.begin(), prec.end(), precursor);
  if (pos == prec.end() || *pos != precursor) prec.insert(pos, precursor);
}

void RouteTable::remove_precursor(net::Address precursor) {
  for (RouteEntry& e : table_) {
    const auto pos =
        std::lower_bound(e.precursors.begin(), e.precursors.end(), precursor);
    if (pos != e.precursors.end() && *pos == precursor) {
      e.precursors.erase(pos);
    }
  }
}

std::size_t RouteTable::memory_bytes() const {
  std::size_t bytes = sizeof(*this) + table_.capacity() * sizeof(RouteEntry);
  for (const RouteEntry& e : table_) {
    bytes += e.precursors.capacity() * sizeof(net::Address);
  }
  return bytes;
}

void RouteTable::purge(sim::Time now, sim::Time dead_retention) {
  // Each entry is judged on its own against `now`: an expired valid
  // route turns invalid (and is held for dead_retention from now), an
  // invalid one past its retention is dropped. The survivors keep
  // their dest order.
  auto keep = table_.begin();
  for (auto it = table_.begin(); it != table_.end(); ++it) {
    if (it->state == RouteState::kValid && it->expires <= now) {
      it->state = RouteState::kInvalid;
      it->expires = now;
    } else if (it->state == RouteState::kInvalid &&
               it->expires + dead_retention <= now) {
      continue;
    }
    if (keep != it) *keep = std::move(*it);
    ++keep;
  }
  table_.erase(keep, table_.end());
}

}  // namespace wmn::routing
