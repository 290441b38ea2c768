#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "core/check.hpp"
#include "phy/shard_router.hpp"
#include "phy/units.hpp"

namespace wmn::phy {

WirelessChannel::WirelessChannel(sim::Simulator& simulator,
                                 std::unique_ptr<PropagationModel> propagation)
    : sim_(simulator), propagation_(std::move(propagation)) {
  WMN_CHECK_NOTNULL(propagation_, "channel needs a propagation model");
}

void WirelessChannel::attach(WifiPhy* phy) {
  WMN_CHECK_NOTNULL(phy, "attach(nullptr)");
  phy->set_channel_index(static_cast<std::uint32_t>(radios_.size()));
  radios_.push_back(phy);
  phy->attach(this);
  neighbor_caches_.emplace_back();
  // A new radio can lower the shared detection floor and is a new
  // candidate for every existing source: recompute ranges and let the
  // version mismatch invalidate all cached neighbour lists.
  ranges_valid_ = false;
  if (index_ != nullptr) index_->add_node(phy->mobility());
}

void WirelessChannel::attach_remote(WifiPhy* phy) {
  WMN_CHECK_NOTNULL(phy, "attach_remote(nullptr)");
  // No set_channel_index / phy->attach: the home channel owns those.
  // The table still grows so attach indices stay globally consistent.
  radios_.push_back(phy);
  neighbor_caches_.emplace_back();
  ranges_valid_ = false;
  if (index_ != nullptr) index_->add_node(phy->mobility());
}

void WirelessChannel::set_shard_router(ShardRouter* router, std::uint32_t region_id) {
  router_ = router;
  region_id_ = region_id;
  // Cached candidate order depends on whether a router is installed.
  for (NeighborCache& nc : neighbor_caches_) {
    nc.built_version = ~std::uint64_t{0};
  }
}

WirelessChannel::~WirelessChannel() {
  for (const auto& lane : lanes_) sim_.remove_lane(lane->id_);
}

void WirelessChannel::accept_cross(WifiPhy* rx, net::Packet packet, double p_dbm,
                                   double p_mw, sim::Time release_at,
                                   sim::Time duration) {
  staged_.push_back(
      ArrivalLane::Item{release_at, p_dbm, p_mw, rx->channel_index()});
  launch(packet, duration);
}

void WirelessChannel::enable_spatial_index(double area_width_m,
                                           double area_height_m) {
  WMN_CHECK(area_width_m > 0.0 && area_height_m > 0.0,
            "spatial index needs a positive deployment area");
  WMN_CHECK(index_ == nullptr, "spatial index already built");
  index_enabled_ = true;
  area_width_m_ = area_width_m;
  area_height_m_ = area_height_m;
}

double WirelessChannel::link_rx_power_dbm(const WifiPhy& tx,
                                          const WifiPhy& rx) const {
  const sim::Time now = sim_.now();
  return propagation_->rx_power_dbm(tx.config().tx_power_dbm, tx.position(now),
                                    rx.position(now), tx.node_id(), rx.node_id());
}

void WirelessChannel::stage(std::uint32_t rx, const net::Packet& packet,
                            double p_dbm, double p_mw, sim::Time at,
                            sim::Time duration) {
  // Sharded runs route receivers homed in another region through the
  // barrier-merged inboxes; the destination region's lane delivers
  // (and counts) the copy.
  if (router_ != nullptr) {
    const std::uint32_t dst = router_->region_of(radios_[rx]->node_id());
    if (dst != region_id_) {
      router_->post(region_id_, dst, radios_[rx], packet, p_dbm, p_mw, at,
                    duration);
      return;
    }
  }
  staged_.push_back(ArrivalLane::Item{at, p_dbm, p_mw, rx});
}

void WirelessChannel::launch(const net::Packet& packet, sim::Time duration) {
  const std::size_t n = staged_.size();
  if (n == 0) return;
  // (arrival time, attach order): the order the per-receiver events
  // would pop in. Every path stages in attach order and a static
  // cache stages in exactly this order already.
  const auto arrival_order = [](const ArrivalLane::Item& a,
                                const ArrivalLane::Item& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.rx < b.rx;
  };
  if (!std::is_sorted(staged_.begin(), staged_.end(), arrival_order)) {
    std::sort(staged_.begin(), staged_.end(), arrival_order);
  }

  ArrivalLane* lane = nullptr;
  if (free_lanes_.empty()) {
    lanes_.push_back(std::make_unique<ArrivalLane>(*this));
    lane = lanes_.back().get();
    lane->id_ = sim_.add_lane(lane);
  } else {
    lane = free_lanes_.back();
    free_lanes_.pop_back();
  }
  // The n sequence numbers the per-receiver schedule() calls would have
  // drawn here, assigned in arrival order — exact, because no other
  // event can draw a number inside the block (DESIGN.md §3c).
  lane->first_seq_ = sim_.reserve_seqs(n);
  lane->packet_.emplace(packet);
  lane->duration_ = duration;
  lane->items_.swap(staged_);
  staged_.clear();
  lane->next_begin_ = 0;
  lane->begun_ = 0;
  lane->next_end_ = 0;
  lane->open_ends_ = 0;
  in_flight_ += n;
  sim_.lane_push(lane->id_, lane->begin_key(0), static_cast<std::uint32_t>(n));
}

// --- ArrivalLane --------------------------------------------------------

bool ArrivalLane::head(Key* key, bool* is_begin) {
  // Items before begun_ have run their begin, so their end is settled
  // (queued, or never coming); skip the ones without one.
  while (next_end_ < begun_ && items_[next_end_].end_seq == 0) ++next_end_;
  const bool end_left = next_end_ < begun_;
  const bool begin_left = next_begin_ < items_.size();
  if (begin_left && end_left) {
    const Key b = begin_key(next_begin_);
    const Key e = end_key(next_end_);
    *is_begin = b.at != e.at ? b.at < e.at : b.seq < e.seq;
    *key = *is_begin ? b : e;
    return true;
  }
  if (!begin_left && !end_left) return false;
  *is_begin = begin_left;
  *key = begin_left ? begin_key(next_begin_) : end_key(next_end_);
  return true;
}

sim::Lane::Detached ArrivalLane::detach() {
  Key key{};
  bool is_begin = false;
  const bool any = head(&key, &is_begin);
  WMN_CHECK(any, "detach() on a drained arrival lane");
  Detached d{};
  d.token = is_begin ? next_begin_++ : (next_end_++ | kEndBit);
  // The detached begin's own end is unknown until it runs; head() only
  // looks at ends below begun_, which excludes it.
  d.has_next = head(&d.next, &is_begin);
  return d;
}

void ArrivalLane::schedule_end(std::uint32_t item, std::uint64_t key) {
  Item& it = items_[item];
  it.key = key;
  it.end_seq = channel_.sim_.reserve_seqs(1);
  ++open_ends_;
  channel_.sim_.lane_push(id_, end_key(item), 1);
}

void ArrivalLane::run(std::uint32_t token) {
  WirelessChannel& ch = channel_;
  if ((token & kEndBit) != 0) {
    const Item& it = items_[token & ~kEndBit];
    --open_ends_;
    ch.radios_[it.rx]->end_arrival(it.key);
  } else {
    const std::uint32_t i = token;
    begun_ = i + 1;
    --ch.in_flight_;
    WifiPhy* rx = ch.radios_[items_[i].rx];
    // The receiver may have crashed during the propagation delay.
    if (ch.fault_ != nullptr &&
        !ch.fault_->node_up(rx->node_id(), ch.sim_.now())) {
      ++ch.counters_.copies_dropped_fault;
    } else {
      ++ch.counters_.copies_delivered;
      rx->begin_arrival(*this, i, *packet_, items_[i].dbm, items_[i].mw);
    }
    if (begun_ == items_.size()) packet_.reset();
  }
  if (begun_ == items_.size() && open_ends_ == 0) ch.recycle(*this);
}

void ArrivalLane::discard() {
  channel_.in_flight_ -= items_.size() - begun_;
  begun_ = next_begin_ = static_cast<std::uint32_t>(items_.size());
  next_end_ = begun_;
  open_ends_ = 0;
  packet_.reset();
  channel_.recycle(*this);
}

void WirelessChannel::refresh_ranges() {
  min_detection_floor_dbm_ = std::numeric_limits<double>::infinity();
  for (const WifiPhy* rx : radios_) {
    min_detection_floor_dbm_ =
        std::min(min_detection_floor_dbm_, rx->config().detection_floor_dbm);
  }
  radio_range_m_.resize(radios_.size());
  for (std::size_t i = 0; i < radios_.size(); ++i) {
    radio_range_m_[i] = propagation_->max_range_m(
        radios_[i]->config().tx_power_dbm, min_detection_floor_dbm_);
  }
  // Ranges feed the cached candidate lists: force rebuilds.
  for (NeighborCache& nc : neighbor_caches_) {
    nc.built_version = ~std::uint64_t{0};
  }
  ranges_valid_ = true;
}

void WirelessChannel::build_spatial_index() {
  // Cell size derives from the largest finite detection range; with
  // only unbounded models (max_range_m == inf) the grid degenerates to
  // coarse cells and every query returns everyone — correct, just not
  // culled — while the link-budget cache still pays off.
  double max_range = 0.0;
  for (const double r : radio_range_m_) {
    if (std::isfinite(r)) max_range = std::max(max_range, r);
  }
  const double cell =
      SpatialIndex::cell_size_for(max_range, area_width_m_, area_height_m_);
  index_ = std::make_unique<SpatialIndex>(area_width_m_, area_height_m_, cell);
  for (const WifiPhy* phy : radios_) index_->add_node(phy->mobility());
}

// Reorder an all-memoised cache into (delay, attach) order — the order
// its receivers' arrivals pop — so transmissions stage pre-sorted.
void WirelessChannel::sort_by_arrival(NeighborCache& nc) {
  const std::size_t n = nc.rx_index.size();
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&nc](std::uint32_t a, std::uint32_t b) {
              if (nc.delay_ns[a] != nc.delay_ns[b]) {
                return nc.delay_ns[a] < nc.delay_ns[b];
              }
              return nc.rx_index[a] < nc.rx_index[b];
            });
  const auto permute = [&order](auto& v) {
    std::remove_reference_t<decltype(v)> out;
    out.reserve(v.size());
    for (const std::uint32_t i : order) out.push_back(v[i]);
    v.swap(out);
  };
  permute(nc.rx_index);
  permute(nc.power_dbm);
  permute(nc.power_mw);
  permute(nc.delay_ns);
}

void WirelessChannel::rebuild_neighbor_cache(std::uint32_t src_index) {
  NeighborCache& nc = neighbor_caches_[src_index];
  nc.rx_index.clear();
  nc.power_dbm.clear();
  nc.power_mw.clear();
  nc.delay_ns.clear();
  nc.culled = 0;
  nc.n_live = 0;
  const WifiPhy& src = *radios_[src_index];
  index_->gather(src_index, radio_range_m_[src_index], gather_scratch_);
  nc.culled = radios_.size() - 1 - gather_scratch_.size();
  const bool src_pinned = index_->pinned(src_index);
  const mobility::Vec2 src_pos = index_->bounds(src_index).lo;

  // Both endpoints holding still for this index version means the
  // budget can be memoised: batch every such pair through the kernel
  // once (identical math to what a transmission would run, including
  // the shadowing per-link draw) and store power in both units plus
  // the propagation delay. Pairs already under the receiver's floor
  // fold into the bulk drop count.
  rebuild_batch_.clear();
  if (src_pinned) {
    for (const std::uint32_t i : gather_scratch_) {
      if (index_->pinned(i)) {
        rebuild_batch_.push(index_->bounds(i).lo, radios_[i]->node_id(), i);
      }
    }
    LinkBudgetKernel::evaluate(*propagation_, src.config().tx_power_dbm,
                               src_pos, src.node_id(), rebuild_batch_);
  }

  std::size_t cursor = 0;
  for (const std::uint32_t i : gather_scratch_) {
    if (src_pinned && index_->pinned(i)) {
      const double p_dbm = rebuild_batch_.power_dbm[cursor];
      const double dist = rebuild_batch_.distance_m[cursor];
      ++cursor;
      if (p_dbm < radios_[i]->config().detection_floor_dbm) {
        ++nc.culled;
        continue;
      }
      const std::int64_t delay = sim::Time::seconds(dist / kSpeedOfLight).ns();
      WMN_CHECK(delay >= 0 && delay < NeighborCache::kLiveDelay,
                "propagation delay does not fit the neighbour cache");
      nc.rx_index.push_back(i);
      nc.power_dbm.push_back(p_dbm);
      nc.power_mw.push_back(dbm_to_mw(p_dbm));
      nc.delay_ns.push_back(static_cast<std::uint32_t>(delay));
    } else {
      nc.rx_index.push_back(i);
      nc.power_dbm.push_back(0.0);
      nc.power_mw.push_back(0.0);
      nc.delay_ns.push_back(NeighborCache::kLiveDelay);
      ++nc.n_live;
    }
  }
  // With a shard router the cache stays in attach order: posts to the
  // router take their row sequence in staging order, and the merge
  // breaks release ties by it.
  if (nc.n_live == 0 && router_ == nullptr) sort_by_arrival(nc);
  nc.built_version = index_->version();
}

void WirelessChannel::transmit_indexed(const WifiPhy& src,
                                       const net::Packet& packet,
                                       sim::Time duration, sim::Time now,
                                       mobility::Vec2 tx_pos) {
  index_->refresh();
  const std::uint32_t s = src.channel_index();
  NeighborCache& nc = neighbor_caches_[s];
  if (nc.built_version != index_->version()) rebuild_neighbor_cache(s);
  // Every receiver the index culled is provably below its detection
  // floor: account the whole batch so the counter equals the full
  // scan's (N-1 - examined) + individually-dropped identity.
  counters_.copies_dropped_floor += nc.culled;
  const std::size_t n = nc.rx_index.size();

  if (nc.n_live == 0) {
    // Static mesh: every budget is memoised and the cache is in arrival
    // order. Branch-free sweep over the SoA arrays; per candidate this
    // is one staged lane item — no propagation math, no unit
    // conversions, no sort.
    for (std::size_t i = 0; i < n; ++i) {
      stage(nc.rx_index[i], packet, nc.power_dbm[i], nc.power_mw[i],
            now + sim::Time::nanos(nc.delay_ns[i]), duration);
    }
    return;
  }

  // Mixed cache: batch the mobile candidates through the kernel, then
  // merge with the memoised ones in ascending attach order (the order
  // the full scan visits; launch() sorts the lane).
  batch_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (nc.delay_ns[i] == NeighborCache::kLiveDelay) {
      const std::uint32_t r = nc.rx_index[i];
      batch_.push(radios_[r]->position(now), radios_[r]->node_id(), r);
    }
  }
  LinkBudgetKernel::evaluate(*propagation_, src.config().tx_power_dbm, tx_pos,
                             src.node_id(), batch_);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t rx = nc.rx_index[i];
    if (nc.delay_ns[i] != NeighborCache::kLiveDelay) {
      stage(rx, packet, nc.power_dbm[i], nc.power_mw[i],
            now + sim::Time::nanos(nc.delay_ns[i]), duration);
      continue;
    }
    const double p_dbm = batch_.power_dbm[cursor];
    const double dist = batch_.distance_m[cursor];
    ++cursor;
    if (p_dbm < radios_[rx]->config().detection_floor_dbm) {
      ++counters_.copies_dropped_floor;
      continue;
    }
    stage(rx, packet, p_dbm, dbm_to_mw(p_dbm),
          now + sim::Time::seconds(dist / kSpeedOfLight), duration);
  }
}

void WirelessChannel::transmit_full_scan(const WifiPhy& src,
                                         const net::Packet& packet,
                                         sim::Time duration, sim::Time now,
                                         mobility::Vec2 tx_pos) {
  // A receiver the fault overlay has down is a fault drop wherever it
  // stands, so it is counted before any distance or floor test.
  batch_.clear();
  for (WifiPhy* rx : radios_) {
    if (rx == &src) continue;
    if (fault_ != nullptr && !fault_->node_up(rx->node_id(), now)) {
      ++counters_.copies_dropped_fault;
      continue;
    }
    batch_.push(rx->position(now), rx->node_id(),
                rx->channel_index());
  }
  LinkBudgetKernel::compute_distances(batch_, tx_pos);

  // Distance prefilter: the source's conservative max_range_m
  // inversion at the minimum attached floor — the same proof the
  // spatial index culls with. Every pair farther out is provably below
  // every receiver's floor, so it can be floor-accounted without
  // paying the model's transcendentals. A fault overlay's link loss is
  // >= 0, so it only pushes such a pair further down. (The > 0.05 guard
  // keeps the proof exact where the distance floor could round a
  // degenerate range up.)
  const double r = radio_range_m_[src.channel_index()];
  std::size_t n = batch_.size();
  if (std::isfinite(r) && r > 0.05) {
    std::size_t write = 0;
    for (std::size_t read = 0; read < n; ++read) {
      if (batch_.distance_m[read] > r) {
        ++counters_.copies_dropped_floor;
        continue;
      }
      if (write != read) batch_.compact_keep(write, read);
      ++write;
    }
    batch_.resize_down(write);
    n = write;
  }

  LinkBudgetKernel::evaluate_with_distances(
      *propagation_, src.config().tx_power_dbm, tx_pos, src.node_id(), batch_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t rx = batch_.rx_index[i];
    double p_dbm = batch_.power_dbm[i];
    if (fault_ != nullptr) {
      p_dbm -= fault_->link_loss_db(src.node_id(), radios_[rx]->node_id(), now);
    }
    if (p_dbm < radios_[rx]->config().detection_floor_dbm) {
      ++counters_.copies_dropped_floor;
      continue;
    }
    stage(rx, packet, p_dbm, dbm_to_mw(p_dbm),
          now + sim::Time::seconds(batch_.distance_m[i] / kSpeedOfLight),
          duration);
  }
}

void WirelessChannel::transmit(const WifiPhy& src, const net::Packet& packet,
                               sim::Time duration) {
  // A crashed radio never reaches transmit() (WifiPhy::send checks up_),
  // but the belt is cheap and keeps the invariant local. The guard runs
  // before any counting: a downed source's send is not a transmission.
  const sim::Time now = sim_.now();
  if (fault_ != nullptr && !fault_->node_up(src.node_id(), now)) return;
  ++counters_.transmissions;
  const mobility::Vec2 tx_pos = src.position(now);

  if (!ranges_valid_) refresh_ranges();
  // The neighbour cache memoises fault-free budgets, so a fault overlay
  // sends every transmission through the full scan, which applies it.
  if (index_enabled_ && fault_ == nullptr) {
    // Grid sizing needs the detection ranges, so refresh_ranges()
    // must have run first.
    if (index_ == nullptr) build_spatial_index();
    transmit_indexed(src, packet, duration, now, tx_pos);
  } else {
    transmit_full_scan(src, packet, duration, now, tx_pos);
  }
  launch(packet, duration);
}

std::size_t WirelessChannel::memory_bytes() const {
  std::size_t bytes = sizeof(*this) +
                      staged_.capacity() * sizeof(ArrivalLane::Item) +
                      lanes_.capacity() * sizeof(std::unique_ptr<ArrivalLane>) +
                      free_lanes_.capacity() * sizeof(ArrivalLane*) +
                      radios_.capacity() * sizeof(WifiPhy*) +
                      radio_range_m_.capacity() * sizeof(double) +
                      gather_scratch_.capacity() * sizeof(std::uint32_t) +
                      batch_.memory_bytes() + rebuild_batch_.memory_bytes() +
                      neighbor_caches_.capacity() * sizeof(NeighborCache);
  for (const NeighborCache& nc : neighbor_caches_) bytes += nc.memory_bytes();
  for (const auto& lane : lanes_) {
    bytes += sizeof(ArrivalLane) +
             lane->items_.capacity() * sizeof(ArrivalLane::Item);
  }
  if (index_ != nullptr) bytes += index_->memory_bytes();
  return bytes;
}

}  // namespace wmn::phy
