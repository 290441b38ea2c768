#include "exp/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "core/check.hpp"
#include "exp/failure.hpp"
#include <set>

#include "mobility/placement.hpp"
#include "phy/units.hpp"
#include "sim/logging.hpp"
#include "stats/fairness.hpp"

namespace wmn::exp {

namespace {
constexpr std::uint64_t kPlacementSalt = 0x97AC'0000'0000'0000ULL;
constexpr std::uint64_t kFlowSalt = 0xF107'0000'0000'0000ULL;
constexpr std::uint64_t kMobilitySalt = 0x0B11'0000'0000'0000ULL;
constexpr std::uint64_t kArrivalSalt = 0xA881'7A10'0000'0000ULL;
}  // namespace

Scenario::Scenario(const ScenarioConfig& cfg) : cfg_(cfg), sim_(cfg.seed) {
  WMN_CHECK_GE(cfg_.n_nodes, std::size_t{2}, "a mesh needs at least two nodes");
  if (cfg_.intra_run_shards > 0) build_sharded();
  if (cfg_.event_budget != 0) {
    if (sharded_) {
      sharded_->set_event_budget(cfg_.event_budget);
    } else {
      sim_.set_event_budget(cfg_.event_budget);
    }
  }
  if (!sharded_) {
    channel_ = std::make_unique<phy::WirelessChannel>(sim_, make_propagation());
    if (cfg_.spatial_index) {
      channel_->enable_spatial_index(cfg_.area_width_m, cfg_.area_height_m);
    }
  }
  build_nodes();
  build_traffic();

  if (!cfg_.fault.empty()) {
    std::vector<fault::NodeHooks> hooks;
    hooks.reserve(nodes_.size());
    for (NodeStack& n : nodes_) {
      hooks.push_back({n.phy.get(), n.mac.get(), n.agent.get()});
    }
    if (sharded_) {
      build_fault_timeline(hooks);
    } else {
      injector_ = std::make_unique<fault::Injector>(sim_, cfg_.fault,
                                                    std::move(hooks));
      channel_->set_fault_overlay(injector_.get());
      registry_.set_outage_query(
          [this](sim::Time t) { return injector_->in_fault_window(t); });
    }
  }
}

Scenario::~Scenario() = default;

std::unique_ptr<phy::PropagationModel> Scenario::make_propagation() const {
  std::unique_ptr<phy::PropagationModel> prop =
      std::make_unique<phy::LogDistanceModel>();
  if (cfg_.shadowing_sigma_db > 0.0) {
    // Shadowing offsets are a pure hash of (seed, link pair), so every
    // region channel's chain agrees link-for-link.
    prop = std::make_unique<phy::LogNormalShadowing>(
        std::move(prop), cfg_.shadowing_sigma_db, cfg_.seed);
  }
  return prop;
}

sim::Simulator& Scenario::node_sim(std::size_t i) {
  return sharded_ ? sharded_->region(home_region_[i]) : sim_;
}

net::PacketFactory& Scenario::node_factory(std::size_t i) {
  return sharded_ ? *region_factories_[home_region_[i]] : factory_;
}

traffic::FlowRegistry& Scenario::node_registry(std::size_t i) {
  return sharded_ ? *region_registries_[home_region_[i]] : registry_;
}

// Select the region decomposition, the epoch (conservative lookahead),
// and the per-region engine state. Region count and epoch are pure
// functions of the scenario config — NEVER of intra_run_shards, which
// only caps the worker-thread count — so every shard count executes
// the identical event schedule (DESIGN.md §3e).
void Scenario::build_sharded() {
  const sim::Logger log("shard");
  const double range = make_propagation()->max_range_m(
      cfg_.phy.tx_power_dbm, cfg_.phy.detection_floor_dbm);
  sim::Time epoch = sim::ShardMap::lookahead(range, phy::kSpeedOfLight,
                                             cfg_.mac.sifs + cfg_.mac.slot);
  const sim::Time horizon = cfg_.warmup + cfg_.traffic_time + cfg_.drain;

  bool downgrade = false;
  if (cfg_.mobility.mobile()) {
    log.warn(sim::Time::zero(),
             "mobile nodes have no stable home region; sharding downgraded "
             "to one region");
    downgrade = true;
  }
  if (!cfg_.spatial_index) {
    log.warn(sim::Time::zero(),
             "sharding shares the spatial index's grid geometry; "
             "spatial_index=false downgrades to one region");
    downgrade = true;
  }
  if (epoch == sim::Time::max()) {
    log.warn(sim::Time::zero(),
             "propagation model has no finite detection range, so no finite "
             "lookahead exists; sharding downgraded to one region");
    downgrade = true;
  }

  const double cell = phy::SpatialIndex::cell_size_for(
      std::isfinite(range) ? range : 0.0, cfg_.area_width_m, cfg_.area_height_m);
  const phy::SpatialIndex::Grid g =
      phy::SpatialIndex::grid_for(cfg_.area_width_m, cfg_.area_height_m, cell);
  const sim::ShardGrid grid{g.nx, g.ny, g.cell_m};
  if (downgrade) {
    shard_map_ = std::make_unique<sim::ShardMap>(sim::ShardMap::single(grid));
  } else {
    shard_map_ = std::make_unique<sim::ShardMap>(
        sim::ShardMap::build(grid, sim::ShardMap::kRegionTarget));
  }
  const std::uint32_t regions = shard_map_->region_count();
  // One region has no cross-region edges: a single whole-horizon epoch
  // is the exact serial event semantics, minus ~500k no-op barriers.
  if (regions == 1) epoch = horizon;

  sharded_ = std::make_unique<sim::ShardedSimulator>(cfg_.seed, regions, epoch,
                                                     cfg_.intra_run_shards);
  if (regions > 1) {
    // A cross-region ACK/CTS can be released up to one epoch after its
    // physical arrival (the barrier clamp); widen the MAC timeout
    // slack by two epochs so the clamp shows up as latency, not as
    // spurious retries. Epoch is config-pure, so this is identical for
    // every shard count.
    cfg_.mac.ack_timeout_slack += epoch + epoch;
    cfg_.mac.cts_timeout_slack += epoch + epoch;
  }

  region_factories_.reserve(regions);
  region_registries_.reserve(regions);
  region_channels_.reserve(regions);
  for (std::uint32_t r = 0; r < regions; ++r) {
    region_factories_.push_back(std::make_unique<net::PacketFactory>());
    region_registries_.push_back(std::make_unique<traffic::FlowRegistry>());
    auto ch = std::make_unique<phy::WirelessChannel>(sharded_->region(r),
                                                     make_propagation());
    ch->enable_spatial_index(cfg_.area_width_m, cfg_.area_height_m);
    region_channels_.push_back(std::move(ch));
  }
}

// Precompute the fault history (fault::FaultTimeline runs a
// record-only injector off-line) and wire it into every region: the
// timeline is each region channel's overlay, and the crash/rejoin
// choreography is scheduled onto each victim's home-region calendar.
void Scenario::build_fault_timeline(
    const std::vector<fault::NodeHooks>& hooks) {
  const sim::Time horizon = cfg_.warmup + cfg_.traffic_time + cfg_.drain;
  timeline_ = std::make_unique<fault::FaultTimeline>(cfg_.seed, cfg_.fault,
                                                     nodes_.size(), horizon);
  for (const auto& ch : region_channels_) {
    ch->set_fault_overlay(timeline_.get());
  }
  const fault::Injector& record = timeline_->record();
  for (const auto& rr : region_registries_) {
    rr->set_outage_query(
        [&record](sim::Time t) { return record.in_fault_window(t); });
  }
  for (const fault::Injector::Window& w : record.windows()) {
    if (!w.node_outage) continue;
    sim::Simulator& s = node_sim(w.node);
    const fault::NodeHooks h = hooks[w.node];
    s.schedule_at(w.start, [h] { h.crash(); });
    if (!w.open) s.schedule_at(w.end, [h] { h.rejoin(); });
  }
}

void Scenario::build_nodes() {
  sim::RngStream placement_rng = sim_.make_stream(kPlacementSalt);
  std::vector<mobility::Vec2> positions;
  switch (cfg_.placement) {
    case Placement::kGrid:
      positions = mobility::grid_placement(cfg_.n_nodes, cfg_.area_width_m,
                                           cfg_.area_height_m);
      break;
    case Placement::kPerturbedGrid:
      positions = mobility::perturbed_grid_placement(
          cfg_.n_nodes, cfg_.area_width_m, cfg_.area_height_m,
          cfg_.placement_jitter_m, placement_rng);
      break;
    case Placement::kUniform:
      positions = mobility::uniform_placement(cfg_.n_nodes, cfg_.area_width_m,
                                              cfg_.area_height_m, placement_rng);
      break;
  }

  nodes_.resize(cfg_.n_nodes);
  if (sharded_) home_region_.resize(cfg_.n_nodes);
  for (std::size_t i = 0; i < cfg_.n_nodes; ++i) {
    NodeStack& n = nodes_[i];
    const auto id = static_cast<std::uint32_t>(i);
    const net::Address addr(id);

    if (cfg_.mobility.mobile()) {
      mobility::RandomWaypointConfig rwp;
      rwp.area_width_m = cfg_.area_width_m;
      rwp.area_height_m = cfg_.area_height_m;
      rwp.min_speed_mps = cfg_.mobility.min_speed_mps;
      rwp.max_speed_mps = cfg_.mobility.max_speed_mps;
      rwp.pause = cfg_.mobility.pause;
      // Mobility forces the single-region downgrade, so region 0 ==
      // "the" simulator in sharded mode.
      sim::Simulator& msim = sharded_ ? sharded_->region(0) : sim_;
      n.mobility = std::make_unique<mobility::RandomWaypointModel>(
          msim, rwp, positions[i], kMobilitySalt ^ id);
    } else {
      n.mobility = std::make_unique<mobility::ConstantPositionModel>(positions[i]);
    }
    if (sharded_) {
      // Home region: lowest grid cell the trajectory bounds overlap —
      // the cell of the bounding box's low corner (DESIGN.md §3e).
      const mobility::TrajectoryBounds b = n.mobility->trajectory_bounds();
      home_region_[i] = shard_map_->home_region(b.lo.x, b.lo.y);
    }

    sim::Simulator& s = node_sim(i);
    net::PacketFactory& f = node_factory(i);
    n.phy = std::make_unique<phy::WifiPhy>(s, cfg_.phy, id, n.mobility.get());
    if (!sharded_) channel_->attach(n.phy.get());
    n.mac = std::make_unique<mac::DcfMac>(s, cfg_.mac, addr, *n.phy, f);
    n.agent = core::make_agent(cfg_.protocol, cfg_.options, s, addr, *n.mac, f,
                               n.mobility.get());
    n.sink = std::make_unique<traffic::PacketSink>(s, *n.agent, node_registry(i));
  }

  if (sharded_) {
    // Every region channel registers every radio — home radios via
    // attach (which binds the phy to that channel), the rest via
    // attach_remote — in the same global node order, so attach indices
    // agree across regions and delivery iteration order is a pure
    // function of geometry.
    const std::uint32_t regions = shard_map_->region_count();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      for (std::uint32_t r = 0; r < regions; ++r) {
        if (r == home_region_[i]) {
          region_channels_[r]->attach(nodes_[i].phy.get());
        } else {
          region_channels_[r]->attach_remote(nodes_[i].phy.get());
        }
      }
    }
    std::vector<phy::WirelessChannel*> channels;
    std::vector<net::PacketFactory*> factories;
    for (std::uint32_t r = 0; r < regions; ++r) {
      channels.push_back(region_channels_[r].get());
      factories.push_back(region_factories_[r].get());
    }
    router_ = std::make_unique<phy::ShardRouter>(home_region_, std::move(channels),
                                                 std::move(factories));
    for (std::uint32_t r = 0; r < regions; ++r) {
      region_channels_[r]->set_shard_router(router_.get(), r);
    }
    sharded_->set_barrier_hook(router_.get());
  }
}

void Scenario::build_traffic() {
  sim::RngStream flow_rng = sim_.make_stream(kFlowSalt);
  const auto n_nodes = static_cast<std::uint32_t>(cfg_.n_nodes);

  switch (cfg_.traffic.pattern) {
    case TrafficSpec::Pattern::kRandomPairs:
      flow_pairs_ =
          traffic::random_pairs(cfg_.traffic.n_flows, n_nodes, flow_rng);
      break;
    case TrafficSpec::Pattern::kGateway: {
      // Gateways: the nodes nearest to anchor points spread along the
      // area diagonal — route diversity exists, as in deployed meshes.
      const std::size_t k = std::max<std::size_t>(cfg_.traffic.n_gateways, 1);
      const sim::Time t0 = sim_.now();
      for (std::size_t g = 0; g < k; ++g) {
        const double f = (static_cast<double>(g) + 1.0) /
                         (static_cast<double>(k) + 1.0);
        const mobility::Vec2 anchor{f * cfg_.area_width_m, f * cfg_.area_height_m};
        std::uint32_t best = 0;
        double best_d = 1e18;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
          const double d = nodes_[i].mobility->position(t0).distance_to(anchor);
          if (d < best_d) {
            best_d = d;
            best = static_cast<std::uint32_t>(i);
          }
        }
        if (std::find(gateways_.begin(), gateways_.end(), best) ==
            gateways_.end()) {
          gateways_.push_back(best);
        }
      }
      // Distinct random sources, each talking to its nearest gateway.
      std::set<std::uint32_t> used;
      std::size_t guard = 0;
      while (flow_pairs_.size() < cfg_.traffic.n_flows &&
             guard++ < cfg_.traffic.n_flows * 1000 + 1000) {
        const auto src =
            static_cast<std::uint32_t>(flow_rng.uniform_u64(0, n_nodes - 1));
        if (used.contains(src) ||
            std::find(gateways_.begin(), gateways_.end(), src) !=
                gateways_.end()) {
          continue;
        }
        used.insert(src);
        const mobility::Vec2 sp = nodes_[src].mobility->position(t0);
        std::uint32_t gw = gateways_.front();
        double gw_d = 1e18;
        for (std::uint32_t g : gateways_) {
          const double d = nodes_[g].mobility->position(t0).distance_to(sp);
          if (d < gw_d) {
            gw_d = d;
            gw = g;
          }
        }
        flow_pairs_.push_back({src, gw});
      }
      break;
    }
  }

  const sim::Time stop = cfg_.warmup + cfg_.traffic_time;

  // Seeded flow-arrival process: flows join over time instead of all
  // at once. A dedicated salted stream keeps the offsets independent of
  // the pair draws above (state-independent draw sequences).
  std::vector<sim::Time> starts(flow_pairs_.size(), cfg_.warmup);
  if (cfg_.traffic.mean_arrival_gap_s > 0.0) {
    sim::RngStream arrival_rng = sim_.make_stream(kArrivalSalt);
    // Offsets count from the traffic-window start, so the envelope's
    // clock starts at 0 here (vs. `warmup` for the session sources
    // below, which see absolute simulation time).
    const traffic::RateEnvelope offset_env(cfg_.traffic.rate_envelope, 0.0);
    const auto offsets = traffic::arrival_offsets(
        flow_pairs_.size(),
        sim::Time::seconds(cfg_.traffic.mean_arrival_gap_s),
        cfg_.traffic_time, arrival_rng, offset_env);
    for (std::size_t i = 0; i < starts.size(); ++i) starts[i] += offsets[i];
  }

  std::uint32_t flow_id = 0;
  for (std::size_t i = 0; i < flow_pairs_.size(); ++i) {
    const auto [src, dst] = flow_pairs_[i];
    const sim::Time start = starts[i];
    const std::uint32_t fid = flow_id++;
    switch (cfg_.traffic.model) {
      case TrafficSpec::Model::kPoissonOnOff: {
        traffic::PoissonOnOffConfig fc;
        fc.flow_id = fid;
        fc.dest = net::Address(dst);
        fc.packet_bytes = cfg_.traffic.packet_bytes;
        fc.rate_pps = cfg_.traffic.rate_pps;
        fc.mean_on = sim::Time::seconds(cfg_.traffic.mean_on_s);
        fc.mean_off = sim::Time::seconds(cfg_.traffic.mean_off_s);
        fc.start = start;
        fc.stop = stop;
        onoff_sources_.push_back(std::make_unique<traffic::PoissonOnOffSource>(
            node_sim(src), fc, *nodes_[src].agent, node_factory(src),
            node_registry(src)));
        break;
      }
      case TrafficSpec::Model::kHeavyTailOnOff: {
        traffic::HeavyTailOnOffConfig fc;
        fc.flow_id = fid;
        fc.dest = net::Address(dst);
        fc.packet_bytes = cfg_.traffic.packet_bytes;
        fc.rate_pps = cfg_.traffic.rate_pps;
        fc.pareto_shape = cfg_.traffic.pareto_shape;
        fc.mean_on = sim::Time::seconds(cfg_.traffic.mean_on_s);
        fc.mean_off = sim::Time::seconds(cfg_.traffic.mean_off_s);
        fc.start = start;
        fc.stop = stop;
        heavy_sources_.push_back(std::make_unique<traffic::HeavyTailOnOffSource>(
            node_sim(src), fc, *nodes_[src].agent, node_factory(src),
            node_registry(src)));
        break;
      }
      case TrafficSpec::Model::kSessions: {
        traffic::SessionSourceConfig fc;
        fc.flow_id = fid;
        fc.dest = net::Address(dst);
        fc.packet_bytes = cfg_.traffic.packet_bytes;
        fc.users = cfg_.traffic.users_per_node;
        fc.session_rate_per_user_per_s =
            cfg_.traffic.session_rate_per_user_per_s;
        fc.session_rate_pps = cfg_.traffic.session_rate_pps;
        fc.mean_session_pkts = cfg_.traffic.mean_session_pkts;
        fc.pareto_shape = cfg_.traffic.pareto_shape;
        fc.max_active_sessions = cfg_.traffic.max_active_sessions;
        fc.start = start;
        fc.stop = stop;
        // Session arrivals see absolute simulation time; anchor the
        // envelope at the traffic-window start.
        fc.envelope = traffic::RateEnvelope(cfg_.traffic.rate_envelope,
                                            cfg_.warmup.to_seconds());
        session_sources_.push_back(std::make_unique<traffic::SessionSource>(
            node_sim(src), fc, *nodes_[src].agent, node_factory(src),
            node_registry(src)));
        break;
      }
      case TrafficSpec::Model::kCbr: {
        traffic::CbrConfig fc;
        fc.flow_id = fid;
        fc.dest = net::Address(dst);
        fc.packet_bytes = cfg_.traffic.packet_bytes;
        fc.rate_pps = cfg_.traffic.rate_pps;
        fc.start = start;
        fc.stop = stop;
        cbr_sources_.push_back(std::make_unique<traffic::CbrSource>(
            node_sim(src), fc, *nodes_[src].agent, node_factory(src),
            node_registry(src)));
        break;
      }
    }
    // The source registered the flow in src's home-region registry;
    // deliveries are recorded by the sink in DST's home region, whose
    // registry must know the flow too (record_delivery drops unknown
    // flow ids as stray). The two records merge after the run.
    if (sharded_ && home_region_[dst] != home_region_[src]) {
      node_registry(dst).register_flow(fid, net::Address(src),
                                       net::Address(dst));
    }
  }
}

void Scenario::run() {
  check_violations_before_ = core::check_violations();
  const sim::Time horizon = cfg_.warmup + cfg_.traffic_time + cfg_.drain;
  // The one legitimate wall-clock read in simulation code: it measures
  // how long the run took on the host, is reported as wall_seconds, and
  // never feeds an event time, a seed, or a routing decision.
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(wmn-nondeterminism)
  if (sharded_) {
    sharded_->run_until(horizon);
  } else {
    sim_.run_until(horizon);
  }
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(wmn-nondeterminism)
  wall_seconds_ = std::chrono::duration<double>(t1 - t0).count();
  // A run cut short by supervision produced a truncated trace, not a
  // measurement: surface the structured reason, never partial metrics.
  const sim::Simulator::AbortReason reason =
      sharded_ ? sharded_->abort_reason() : sim_.abort_reason();
  const std::uint64_t budget =
      sharded_ ? sharded_->event_budget() : sim_.event_budget();
  switch (reason) {
    case sim::Simulator::AbortReason::kNone:
      break;
    case sim::Simulator::AbortReason::kEventBudget:
      throw RunAborted(FailureKind::kEventBudgetExhausted,
                       "event budget (" + std::to_string(budget) +
                           " events) exhausted at t=" +
                           std::to_string(engine_now().to_seconds()) + "s");
    case sim::Simulator::AbortReason::kCancelled:
      throw RunAborted(FailureKind::kDeadlineExceeded,
                       "cancelled by the run supervisor at t=" +
                           std::to_string(engine_now().to_seconds()) + "s");
  }
  if (sharded_) {
    // Fold the per-region registries into the classic one so metrics()
    // and flows() read the same structure either way.
    for (const auto& rr : region_registries_) registry_.merge_from(*rr);
  }
  ran_ = true;
}

RunMetrics Scenario::metrics() const {
  WMN_CHECK(ran_, "metrics() before run()");
  RunMetrics m;
  m.seed = cfg_.seed;
  m.wall_seconds = wall_seconds_;
  m.sim_event_count = static_cast<double>(
      sharded_ ? sharded_->events_executed() : sim_.events_executed());
  m.check_violations = core::check_violations() - check_violations_before_;

  m.data_sent = registry_.total_sent();
  m.data_delivered = registry_.total_delivered();
  m.pdr = registry_.aggregate_pdr();
  m.mean_delay_ms = registry_.mean_delay_s() * 1e3;
  m.mean_jitter_ms = registry_.mean_jitter_s() * 1e3;
  const double traffic_s = cfg_.traffic_time.to_seconds();
  m.throughput_kbps =
      static_cast<double>(registry_.total_delivered_bytes()) * 8.0 / traffic_s /
      1e3;

  double busy_sum = 0.0;
  std::uint64_t data_forwarded_total = 0;
  m.per_node_forwarded.reserve(nodes_.size());
  for (const NodeStack& n : nodes_) {
    const auto& rc = n.agent->counters();
    m.rreq_tx += rc.rreq_originated + rc.rreq_forwarded;
    m.rreq_suppressed += rc.rreq_suppressed;
    m.rrep_tx += rc.rrep_originated + rc.rrep_intermediate + rc.rrep_forwarded;
    m.rerr_tx += rc.rerr_sent;
    m.hello_tx += rc.hello_sent;
    m.discoveries += rc.discovery_started;
    m.discoveries_failed += rc.discovery_failed;
    data_forwarded_total += rc.data_forwarded;
    m.per_node_forwarded.push_back(static_cast<double>(rc.data_forwarded));

    const auto& mc = n.mac->counters();
    m.mac_queue_drops += mc.queue_drops;
    m.mac_retry_drops += mc.retry_drops;
    m.mac_retries += mc.retries;
    busy_sum += n.mac->busy_ratio();

    m.phy_collisions += n.phy->counters().rx_failed_sinr;
    m.total_energy_j += n.phy->energy_joules();
  }
  m.control_tx = m.rreq_tx + m.rrep_tx + m.rerr_tx + m.hello_tx;
  m.mean_busy_ratio = busy_sum / static_cast<double>(nodes_.size());
  if (m.discoveries > 0) {
    m.rreq_per_discovery =
        static_cast<double>(m.rreq_tx) / static_cast<double>(m.discoveries);
  }
  if (m.data_delivered > 0) {
    m.nrl = static_cast<double>(m.control_tx) /
            static_cast<double>(m.data_delivered);
    m.nrl_on_demand = static_cast<double>(m.control_tx - m.hello_tx) /
                      static_cast<double>(m.data_delivered);
    m.avg_path_hops = 1.0 + static_cast<double>(data_forwarded_total) /
                                static_cast<double>(m.data_delivered);
  }
  m.mean_node_energy_j = m.total_energy_j / static_cast<double>(nodes_.size());
  const double delivered_kbit =
      static_cast<double>(registry_.total_delivered_bytes()) * 8.0 / 1e3;
  if (delivered_kbit > 0.0) {
    m.energy_mj_per_kbit = m.total_energy_j * 1e3 / delivered_kbit;
  }

  std::vector<double> active;
  for (double f : m.per_node_forwarded) {
    if (f > 0.0) active.push_back(f);
  }
  m.forwarding_active_nodes = active.size();
  m.forwarding_jain = stats::jain_index(active);
  m.forwarding_peak_to_mean = stats::peak_to_mean(active);

  // Gateway-aggregation fairness (F11): delivered load per gateway, in
  // gateway discovery order. A protocol collapsing at one hotspot shows
  // up as Jain falling toward 1/K with the variance exploding.
  if (!gateways_.empty()) {
    m.gateway_count = gateways_.size();
    m.per_gateway_delivered.assign(gateways_.size(), 0.0);
    const auto flow_snapshot = registry_.snapshot();
    for (std::size_t g = 0; g < gateways_.size(); ++g) {
      const net::Address addr(gateways_[g]);
      for (const auto& f : flow_snapshot) {
        if (f.dst == addr) {
          m.per_gateway_delivered[g] += static_cast<double>(f.delivered);
        }
      }
    }
    m.gateway_jain = stats::jain_index(m.per_gateway_delivered);
    m.gateway_load_variance = stats::load_variance(m.per_gateway_delivered);
  }

  for (const auto& s : session_sources_) {
    m.sessions_started += s->sessions_started();
    m.sessions_completed += s->sessions_completed();
    m.sessions_rejected += s->sessions_rejected();
  }

  const fault::Injector* faults =
      timeline_ ? &timeline_->record() : injector_.get();
  if (faults != nullptr) {
    m.fault_enabled = true;
    const auto& fc = faults->counters();
    m.fault_crashes = fc.crashes;
    m.fault_rejoins = fc.rejoins;
    m.fault_blackouts = fc.blackouts;
    m.fault_downtime_s = faults->total_node_downtime(engine_now()).to_seconds();

    m.sent_during_outage = registry_.sent_during_outage();
    m.delivered_during_outage = registry_.delivered_during_outage();
    if (m.sent_during_outage > 0) {
      m.pdr_during_outage = static_cast<double>(m.delivered_during_outage) /
                            static_cast<double>(m.sent_during_outage);
    }
    const std::uint64_t sent_out = m.data_sent - m.sent_during_outage;
    if (sent_out > 0) {
      m.pdr_outside_outage =
          static_cast<double>(m.data_delivered - m.delivered_during_outage) /
          static_cast<double>(sent_out);
    }

    std::uint64_t recovery_ns = 0;
    for (const NodeStack& n : nodes_) {
      const auto& rc = n.agent->counters();
      m.local_repairs_attempted += rc.local_repair_attempted;
      m.local_repairs_succeeded += rc.local_repair_succeeded;
      m.route_recoveries += rc.route_recoveries;
      recovery_ns += rc.route_recovery_ns_total;
      m.route_recoveries_abandoned += rc.route_recovery_abandoned;
    }
    if (m.route_recoveries > 0) {
      m.route_recovery_mean_ms = static_cast<double>(recovery_ns) /
                                 static_cast<double>(m.route_recoveries) / 1e6;
    }

    // Stranded: the flow offered traffic but nothing ever arrived, or
    // deliveries dried up well before the senders stopped.
    const sim::Time traffic_end = cfg_.warmup + cfg_.traffic_time;
    const sim::Time slack =
        std::min(cfg_.traffic_time.scaled(0.25), sim::Time::seconds(10.0));
    for (const auto& f : registry_.snapshot()) {
      if (f.sent == 0) continue;
      if (!f.any_delivered || f.last_delivery < traffic_end - slack) {
        ++m.flows_stranded;
      }
    }
  }
  return m;
}

}  // namespace wmn::exp
