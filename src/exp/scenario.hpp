// Scenario: the top-level facade assembling a complete mesh simulation.
//
// One Scenario = one network (placement + radios + MACs + routing
// agents + traffic) inside one Simulator instance. Construction wires
// everything; run() executes; metrics() aggregates the paper's
// quantities. Scenarios are self-contained and share nothing, so the
// sweep layer runs them concurrently on a thread pool.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/protocols.hpp"
#include "exp/metrics.hpp"
#include "fault/fault_timeline.hpp"
#include "fault/injector.hpp"
#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"
#include "phy/shard_router.hpp"
#include "sim/shard_map.hpp"
#include "sim/sharded_simulator.hpp"
#include "traffic/cbr_source.hpp"
#include "traffic/flow_builder.hpp"
#include "traffic/heavy_tail_source.hpp"
#include "traffic/packet_sink.hpp"
#include "traffic/session_source.hpp"

namespace wmn::exp {

enum class Placement { kGrid, kPerturbedGrid, kUniform };

struct MobilitySpec {
  // max_speed == 0 -> static mesh routers (the WMN backbone default).
  double min_speed_mps = 0.5;
  double max_speed_mps = 0.0;
  sim::Time pause = sim::Time::seconds(2.0);
  [[nodiscard]] bool mobile() const { return max_speed_mps > 0.0; }
};

struct TrafficSpec {
  enum class Pattern { kRandomPairs, kGateway };
  // Source model per flow:
  //   kCbr          — constant bit rate (the paper's evaluation load);
  //   kPoissonOnOff — exponential ON/OFF bursts of CBR;
  //   kHeavyTailOnOff — Pareto ON periods (self-similar aggregate load);
  //   kSessions     — per-user session aggregation: each source node
  //                   carries `users_per_node` users whose sessions
  //                   arrive as a seeded Poisson process and transfer
  //                   Pareto-sized packet batches (the F11 production
  //                   workload).
  enum class Model { kCbr, kPoissonOnOff, kHeavyTailOnOff, kSessions };
  Pattern pattern = Pattern::kRandomPairs;
  Model model = Model::kCbr;
  std::size_t n_flows = 10;
  double rate_pps = 4.0;
  std::uint32_t packet_bytes = 512;
  // kGateway: this many gateways are placed spread across the area
  // (the nodes nearest to evenly spaced anchor points); each source
  // sends to its *nearest* gateway, as real WMN backhaul does.
  std::size_t n_gateways = 1;

  // kPoissonOnOff / kHeavyTailOnOff burst shape.
  double mean_on_s = 2.0;
  double mean_off_s = 2.0;
  double pareto_shape = 1.5;  // kHeavyTailOnOff / kSessions tail index

  // kSessions knobs (per source node).
  std::uint32_t users_per_node = 1000;
  double session_rate_per_user_per_s = 0.002;
  double session_rate_pps = 16.0;
  double mean_session_pkts = 20.0;
  std::uint32_t max_active_sessions = 64;

  // Seeded flow-arrival process: when > 0, flow start times are
  // staggered by a Poisson process with this mean inter-arrival gap
  // (clamped to the traffic window) instead of all flows starting at
  // once — new flows join a mesh that is already carrying load.
  double mean_arrival_gap_s = 0.0;

  // Piecewise-linear arrival-rate multiplier over the traffic window:
  // (seconds since traffic start, multiplier) knots, strictly
  // increasing in time. Scales session arrival rates and the staggered
  // flow-arrival process — a flash crowd is e.g. {0:1, 10:1, 12:8,
  // 20:8, 22:1}, a diurnal cycle a slow triangle wave. Empty (the
  // default) bypasses the envelope entirely: RNG draw sequence and
  // fingerprints are bit-identical to builds that predate it.
  std::vector<std::pair<double, double>> rate_envelope;
};

struct ScenarioConfig {
  std::size_t n_nodes = 100;
  double area_width_m = 1000.0;
  double area_height_m = 1000.0;
  Placement placement = Placement::kPerturbedGrid;
  double placement_jitter_m = 60.0;
  MobilitySpec mobility;
  TrafficSpec traffic;

  core::Protocol protocol = core::Protocol::kClnlr;
  core::ProtocolOptions options;
  phy::PhyConfig phy;
  mac::MacConfig mac;
  double shadowing_sigma_db = 0.0;

  // Deterministic fault schedule; empty (the default) means the fault
  // layer is never constructed — zero cost, zero RNG draws.
  fault::FaultPlan fault;

  sim::Time warmup = sim::Time::seconds(5.0);    // hellos settle
  sim::Time traffic_time = sim::Time::seconds(60.0);
  sim::Time drain = sim::Time::seconds(2.0);     // in-flight packets land
  std::uint64_t seed = 1;

  // Deterministic run-away guard: abort the run (Scenario::run() throws
  // exp::RunAborted, kEventBudgetExhausted) once the simulator has
  // executed this many events. A pure function of the event count —
  // bit-reproducible across hosts, unlike any wall-clock deadline.
  // 0 (the default) disables the budget; existing fingerprints are
  // untouched.
  std::uint64_t event_budget = 0;

  // Channel spatial neighbourhood index + link-budget cache. Results
  // are bit-identical either way (see docs/TOOLING.md); turn off only
  // to benchmark the full O(N^2) scan or to isolate a suspected index
  // bug.
  bool spatial_index = true;

  // Intra-run sharding (conservative PDES; DESIGN.md §3e). 0 (the
  // default) runs the classic serial engine — untouched code path,
  // untouched fingerprints. N >= 1 partitions the area into a FIXED
  // set of contiguous grid-cell regions (a pure function of geometry,
  // never of N) and advances them in parallel epochs on min(N,
  // regions) worker threads; cross-region deliveries merge at epoch
  // barriers in a fixed total order, so the fingerprint is
  // bit-identical for every shard count, including 1. Configurations
  // the engine cannot shard safely (mobile nodes, unbounded detection
  // range, spatial_index off) log a warning and degrade to one region
  // — still deterministic, never a wrong answer.
  std::uint32_t intra_run_shards = 0;
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& cfg);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  // Execute warmup + traffic + drain. Throws exp::RunAborted when the
  // run was cut short by the event budget (kEventBudgetExhausted) or a
  // cancelled token (kDeadlineExceeded) — a truncated trace is not a
  // measurement, so no metrics survive an abort.
  void run();

  // Cooperative cancellation: the simulator polls `token` every
  // `poll_every` events (see sim::Simulator::set_cancel_token; in a
  // sharded run every region polls it). The token must outlive run();
  // pass nullptr to detach.
  void set_cancel_token(const sim::CancelToken* token,
                        std::uint64_t poll_every = 1024) {
    if (sharded_) {
      sharded_->set_cancel_token(token, poll_every);
    } else {
      sim_.set_cancel_token(token, poll_every);
    }
  }

  // Aggregate metrics; valid after run().
  [[nodiscard]] RunMetrics metrics() const;

  // --- component access (tests, examples, custom experiments) ---------
  // The classic serial simulator. In a sharded run this engine is idle
  // (components live on the region simulators); use sharded_engine().
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  // True when intra_run_shards > 0 selected the sharded engine.
  [[nodiscard]] bool sharded() const { return sharded_ != nullptr; }
  // Null in classic mode.
  [[nodiscard]] sim::ShardedSimulator* sharded_engine() { return sharded_.get(); }
  [[nodiscard]] const sim::ShardMap* shard_map() const { return shard_map_.get(); }
  // Node i's home region (sharded mode; empty otherwise).
  [[nodiscard]] const std::vector<std::uint32_t>& home_regions() const {
    return home_region_;
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] routing::AodvAgent& agent(std::size_t i) { return *nodes_[i].agent; }
  [[nodiscard]] mac::DcfMac& node_mac(std::size_t i) { return *nodes_[i].mac; }
  [[nodiscard]] phy::WifiPhy& node_phy(std::size_t i) { return *nodes_[i].phy; }
  [[nodiscard]] const traffic::FlowRegistry& flows() const { return registry_; }
  [[nodiscard]] const std::vector<traffic::NodePair>& flow_pairs() const {
    return flow_pairs_;
  }
  // Gateway node indices (kGateway traffic only; empty otherwise).
  [[nodiscard]] const std::vector<std::uint32_t>& gateways() const {
    return gateways_;
  }
  // Session sources (Model::kSessions only; empty otherwise).
  [[nodiscard]] const std::vector<std::unique_ptr<traffic::SessionSource>>&
  session_sources() const {
    return session_sources_;
  }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  // Classic mode: the one channel. Sharded mode: region 0's channel.
  [[nodiscard]] phy::WirelessChannel& channel() {
    return sharded_ ? *region_channels_.front() : *channel_;
  }
  // Null when the config's FaultPlan is empty (and in sharded runs,
  // which precompute the history into a fault::FaultTimeline instead).
  [[nodiscard]] const fault::Injector* injector() const {
    return injector_.get();
  }
  // Factory for injecting extra (unmeasured) traffic into the mesh.
  [[nodiscard]] net::PacketFactory& packet_factory() { return factory_; }

  // Mean per-node dynamic footprint: each node's phy/mac/agent state
  // plus an equal share of the channel (caches, index, pending slots).
  // Surfaced as the bytes_per_node counter in BENCH_macro.json and
  // gated by bench/perf_gate.py.
  [[nodiscard]] std::size_t bytes_per_node() const {
    if (nodes_.empty()) return 0;
    std::size_t bytes = 0;
    for (const NodeStack& n : nodes_) {
      bytes += sizeof(NodeStack) + n.phy->memory_bytes() +
               n.mac->memory_bytes() + n.agent->memory_bytes();
    }
    if (sharded_) {
      // Every region channel sees every radio, so the per-region
      // tables genuinely replicate — the rollup charges all of them.
      for (const auto& ch : region_channels_) bytes += ch->memory_bytes();
    } else {
      bytes += channel_->memory_bytes();
    }
    return bytes / nodes_.size();
  }

 private:
  struct NodeStack {
    std::unique_ptr<mobility::MobilityModel> mobility;
    std::unique_ptr<phy::WifiPhy> phy;
    std::unique_ptr<mac::DcfMac> mac;
    std::unique_ptr<routing::AodvAgent> agent;
    std::unique_ptr<traffic::PacketSink> sink;
  };

  void build_sharded();
  void build_nodes();
  void build_traffic();
  void build_fault_timeline(const std::vector<fault::NodeHooks>& hooks);
  [[nodiscard]] std::unique_ptr<phy::PropagationModel> make_propagation() const;
  // The engine a node's components are scheduled on / allocate from /
  // report to: its home region's in sharded mode, the classic
  // simulator/factory/registry otherwise.
  [[nodiscard]] sim::Simulator& node_sim(std::size_t i);
  [[nodiscard]] net::PacketFactory& node_factory(std::size_t i);
  [[nodiscard]] traffic::FlowRegistry& node_registry(std::size_t i);
  [[nodiscard]] sim::Time engine_now() const {
    return sharded_ ? sharded_->now() : sim_.now();
  }

  ScenarioConfig cfg_;
  sim::Simulator sim_;
  // Sharded engine (intra_run_shards > 0): the region simulators own
  // the calendars every component schedules on, so they sit right
  // after sim_ — destroyed after the node stacks, like sim_ itself.
  std::unique_ptr<sim::ShardMap> shard_map_;
  std::unique_ptr<sim::ShardedSimulator> sharded_;
  net::PacketFactory factory_;
  // Per-region arenas/registries outlive the node stacks and channels
  // below (parked packets release arena references at channel
  // teardown).
  std::vector<std::unique_ptr<net::PacketFactory>> region_factories_;
  std::vector<std::unique_ptr<traffic::FlowRegistry>> region_registries_;
  std::vector<std::uint32_t> home_region_;  // per node (sharded mode)
  // nodes_ before channel_: the channel's spatial index detaches from
  // the mobility models in its destructor, so it must die first.
  std::vector<NodeStack> nodes_;
  std::unique_ptr<phy::WirelessChannel> channel_;
  std::vector<std::unique_ptr<phy::WirelessChannel>> region_channels_;
  std::unique_ptr<phy::ShardRouter> router_;
  std::unique_ptr<fault::FaultTimeline> timeline_;
  std::unique_ptr<fault::Injector> injector_;
  traffic::FlowRegistry registry_;
  std::vector<traffic::NodePair> flow_pairs_;
  std::vector<std::uint32_t> gateways_;
  std::vector<std::unique_ptr<traffic::CbrSource>> cbr_sources_;
  std::vector<std::unique_ptr<traffic::PoissonOnOffSource>> onoff_sources_;
  std::vector<std::unique_ptr<traffic::HeavyTailOnOffSource>> heavy_sources_;
  std::vector<std::unique_ptr<traffic::SessionSource>> session_sources_;
  bool ran_ = false;
  double wall_seconds_ = 0.0;
  // Snapshot of the global invariant-violation counter at run() start;
  // metrics() reports the per-run delta.
  std::uint64_t check_violations_before_ = 0;
};

}  // namespace wmn::exp
