// Repository benchmark harness.
//
// Runs one named workload for a wall-clock budget and prints, as the
// last line of stdout, one JSON object:
//
//   {"correct": bool, "attempted": N, "failed": F, "metrics": {...}}
//
// --trace 0 measures the end-to-end metrics with nothing installed in
// the simulator. --trace 1 additionally re-runs each scenario with a
// timing shim between every WifiPhy and its DcfMac and reports the
// per-layer metrics. The layers are observed from outside only, through
// public accessors; see README.md for the metric -> layer map.
//
// Every run is checked: it must not throw, must report no invariant
// violations, must pass basic sanity bounds, and its fingerprint must
// equal that of every other run of the same inputs (repeats, the traced
// run, and the run after the post-run replays).
//
// Usage: wmn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--smoke]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "core/protocols.hpp"
#include "exp/metrics.hpp"
#include "exp/scenario.hpp"

namespace {

using namespace wmn;
using Clock = std::chrono::steady_clock;
using Sample = std::map<std::string, double>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU seconds of the whole process, summed over its threads.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------
// Workloads. A run covers a fixed number of scenarios whose seeds derive
// from the --seed argument; a metric's reported value is the mean over
// those scenarios of its median over the run's repeats of each. The
// modelled metrics vary far more between scenarios (topology, flow
// placement, churn victims) than between repeats, so the scenario count
// is what keeps a run's figures steady across seeds.

// The ROADMAP 400-node point: 2000x2000 m perturbed grid, 40 CBR flows
// at 6 pkt/s, static, no faults.
exp::ScenarioConfig mesh400(bool smoke) {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 400;
  cfg.area_width_m = 2000.0;
  cfg.area_height_m = 2000.0;
  cfg.placement = exp::Placement::kPerturbedGrid;
  cfg.placement_jitter_m = 60.0;
  cfg.traffic.n_flows = 40;
  cfg.traffic.rate_pps = 6.0;
  cfg.traffic.packet_bytes = 512;
  cfg.protocol = core::Protocol::kClnlr;
  cfg.warmup = sim::Time::seconds(smoke ? 2.0 : 5.0);
  cfg.traffic_time = sim::Time::seconds(smoke ? 1.0 : 4.0);
  cfg.drain = sim::Time::seconds(2.0);
  return cfg;
}

// The 100-node T1 mesh carrying gateway-bound session traffic under
// Poisson node churn, with RFC 3561 degradation machinery on. The
// session rate sits below the collapse point: 0.004 /user/s drops PDR
// from ~0.74 to ~0.25.
exp::ScenarioConfig gateway_churn(bool smoke) {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 100;
  cfg.area_width_m = 1000.0;
  cfg.area_height_m = 1000.0;
  cfg.placement = exp::Placement::kPerturbedGrid;
  cfg.placement_jitter_m = 60.0;
  cfg.protocol = core::Protocol::kClnlr;
  cfg.traffic.pattern = exp::TrafficSpec::Pattern::kGateway;
  cfg.traffic.n_gateways = 3;
  cfg.traffic.n_flows = 12;
  cfg.traffic.packet_bytes = 512;
  cfg.traffic.model = exp::TrafficSpec::Model::kSessions;
  cfg.traffic.users_per_node = 1000;
  cfg.traffic.session_rate_per_user_per_s = 0.001;
  cfg.traffic.mean_arrival_gap_s = 1.0;
  cfg.options.aodv.local_repair = true;
  cfg.options.aodv.rrep_blacklist = true;
  cfg.options.aodv.rerr_to_precursors = true;
  cfg.warmup = sim::Time::seconds(5.0);
  cfg.traffic_time = sim::Time::seconds(smoke ? 10.0 : 30.0);
  cfg.drain = sim::Time::seconds(2.0);
  cfg.fault.churn.rate_per_s = 6.0 / 60.0;
  cfg.fault.churn.mean_downtime = sim::Time::seconds(10.0);
  cfg.fault.churn.start = cfg.warmup;
  cfg.fault.churn.stop = cfg.warmup + cfg.traffic_time;
  return cfg;
}

struct Workload {
  const char* name;
  std::size_t scenarios;  // per untraced run
  exp::ScenarioConfig (*config)(bool smoke);
  // intra_run_shards of the sharded run that the traced run compares
  // with the classic engine on the same inputs; 0 for none.
  std::uint32_t shards;
};

// Scenario counts fill one pass of a 50 s budget on the reference box.
// The sharded engine is not a workload of its own: four threads on four
// shared cores made its run_s spread past its bound. Its layer metrics
// come from the traced run of mesh400_cbr.
constexpr std::array<Workload, 2> kWorkloads{{
    {"mesh400_cbr", 14, mesh400, 4},
    {"gateway_churn", 34, gateway_churn, 0},
}};

// A traced run covers the first few of the workload's scenarios: each
// costs an untraced run, a traced run and, for a workload with `shards`,
// one sharded run.
constexpr std::size_t kTraceScenarios = 3;

// ---------------------------------------------------------------------
// Metric names and units, in output order.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"run_s", "s"},
    {"cpu_s", "s"},          {"peak_rss_mb", "MB"},
    {"bytes_per_node", "B"}, {"pdr", "ratio"},
    {"mean_delay_ms", "ms"}, {"nrl", "ratio"},
    {"throughput_kbps", "kbit/s"}, {"gateway_jain", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.events_per_tx", "ratio"},
    {"sim.pending_mean", "count"},
    {"sim.pending_peak", "count"},
    {"sim.outside_upcalls_s", "s"},
    {"shard.regions", "count"},
    {"shard.workers", "count"},
    {"shard.epoch_us", "us"},
    {"shard.events_per_epoch", "ratio"},
    {"shard.cpu_per_wall", "ratio"},
    {"shard.pdr_vs_classic", "ratio"},
    {"shard.delay_vs_classic", "ratio"},
    {"phy.transmissions", "count"},
    {"phy.arrivals_per_tx", "ratio"},
    {"phy.culled_per_tx", "ratio"},
    {"phy.sinr_fail_ratio", "ratio"},
    {"phy.link_budget_ns", "ns"},
    {"mac.upcall_s", "s"},
    {"mac.upcall_share", "ratio"},
    {"mac.rx_start_ns", "ns"},
    {"mac.rx_end_ns", "ns"},
    {"mac.tx_end_ns", "ns"},
    {"mac.cca_change_ns", "ns"},
    {"mac.cca_changes_per_tx", "ratio"},
    {"mac.retries_per_unicast", "ratio"},
    {"mac.queue_drop_ratio", "ratio"},
    {"mac.retry_drop_ratio", "ratio"},
    {"routing.rreq_per_discovery", "ratio"},
    {"routing.rreq_suppressed_ratio", "ratio"},
    {"routing.discovery_success_ratio", "ratio"},
    {"routing.link_breaks", "count"},
    {"routing.local_repair_success_ratio", "ratio"},
    {"routing.route_find_ns", "ns"},
    {"routing.mean_neighbor_load_ns", "ns"},
    {"routing.routes_per_node", "count"},
    {"routing.neighbors_per_node", "count"},
    {"traffic.data_originated", "count"},
    {"traffic.session_reject_ratio", "ratio"},
    {"fault.crashes", "count"},
    {"fault.downtime_s", "s"},
    {"fault.pdr_during_outage", "ratio"},
    {"fault.route_recovery_ms", "ms"},
    {"net.packets_created", "count"},
    {"net.arena_allocations_per_event", "ratio"},
    {"exp.metrics_s", "s"},
    {"exp.trace_overhead", "ratio"},
};

// ---------------------------------------------------------------------
// Tracing shim: forwards every PHY upcall to the node's MAC and keeps
// per-kind span aggregates (count, summed duration). One shim per node,
// each forwarding to that node's MAC; the harness sums them after run().

enum Upcall : std::size_t { kRxStart, kRxEnd, kTxEnd, kCcaChange, kUpcallKinds };

struct SpanStats {
  std::uint64_t count = 0;
  double seconds = 0.0;
};

class TimedListener final : public phy::PhyListener {
 public:
  TimedListener(phy::PhyListener& mac, const sim::Simulator& simulator)
      : mac_(mac), sim_(simulator) {}

  void on_rx_start() override {
    const Span span(spans[kRxStart]);
    mac_.on_rx_start();
  }
  void on_rx_end(std::optional<net::Packet> packet, double rx_power_dbm) override {
    const Span span(spans[kRxEnd]);
    mac_.on_rx_end(std::move(packet), rx_power_dbm);
  }
  void on_tx_end() override {
    // Calendar depth, sampled once per transmission; reading the
    // pending count schedules nothing.
    const std::size_t pending = sim_.events_pending();
    pending_sum += pending;
    pending_peak = std::max<std::uint64_t>(pending_peak, pending);
    ++pending_samples;
    const Span span(spans[kTxEnd]);
    mac_.on_tx_end();
  }
  void on_cca_change(bool busy) override {
    const Span span(spans[kCcaChange]);
    mac_.on_cca_change(busy);
  }

  std::array<SpanStats, kUpcallKinds> spans{};
  std::uint64_t pending_sum = 0;
  std::uint64_t pending_peak = 0;
  std::uint64_t pending_samples = 0;

 private:
  class Span {
   public:
    explicit Span(SpanStats& stats) : stats_(stats), t0_(Clock::now()) {}
    ~Span() {
      ++stats_.count;
      stats_.seconds += seconds_since(t0_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanStats& stats_;
    Clock::time_point t0_;
  };

  phy::PhyListener& mac_;
  const sim::Simulator& sim_;
};

// ---------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
};

class Bench {
 public:
  Bench(const Workload& w, const Options& opt) : w_(w), opt_(opt) {
    std::size_t n = opt.smoke ? 1 : w.scenarios;
    if (opt.trace != 0) n = std::min(n, kTraceScenarios);
    for (std::size_t r = 0; r < n; ++r) {
      exp::ScenarioConfig cfg = w.config(opt.smoke);
      cfg.seed = splitmix64(opt.seed * 1024 + r);
      configs_.push_back(cfg);
    }
    samples_.resize(n);
  }

  // An untimed warm-up run of the first scenario (caches, allocator,
  // page faults; it is also the reference its timed repeat must match),
  // then passes over the scenarios until the time budget is spent, at
  // least one full pass. Passes past the first add timing samples and
  // repeat-determinism checks.
  void run() {
    const auto start = Clock::now();
    const std::size_t n = configs_.size();
    for (std::size_t i = 0; i <= n || seconds_since(start) < opt_.seconds; ++i) {
      const bool warm_up = i == 0;
      const std::size_t rep = warm_up ? 0 : (i - 1) % n;
      try {
        Sample s = untraced(rep);
        if (warm_up) continue;
        if (opt_.trace == 0 || traced(rep, i <= n, s)) {
          samples_[rep].push_back(std::move(s));
        }
      } catch (const std::exception& e) {
        fail(rep, std::string("exception: ") + e.what());
      }
    }
  }

  // Mean over scenarios of each metric's median over repeats.
  [[nodiscard]] Sample aggregate() const {
    Sample out;
    std::size_t reps_with_samples = 0;
    for (const auto& rep_samples : samples_) {
      if (rep_samples.empty()) continue;
      ++reps_with_samples;
      for (const auto& [name, ignored] : rep_samples.front()) {
        std::vector<double> v;
        for (const Sample& s : rep_samples) v.push_back(s.at(name));
        out[name] += median(std::move(v));
      }
    }
    for (auto& [name, value] : out) value /= static_cast<double>(reps_with_samples);
    out["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  static constexpr int kSetupSamples = 5;

  void fail(std::size_t rep, const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "[perfbench] %s scenario %zu (seed %llu): %s\n", w_.name,
                 rep, static_cast<unsigned long long>(configs_[rep].seed),
                 why.c_str());
  }

  // Checks one run's outputs; `key` names the inputs whose runs must
  // all share a fingerprint. Returns false (and counts a failure) on
  // any violation.
  bool check(std::size_t rep, const std::string& key, const exp::RunMetrics& m) {
    const std::uint64_t fp = exp::fingerprint(m);
    const auto [it, inserted] = fingerprints_.emplace(key, fp);
    std::string why;
    if (m.check_violations > 0) {
      why = std::to_string(m.check_violations) + " invariant violations";
    } else if (!inserted && it->second != fp) {
      why = "fingerprint differs from an earlier run of the same inputs";
    } else if (m.data_sent == 0 || m.data_delivered == 0 ||
               m.data_delivered > m.data_sent || !(m.pdr > 0.0 && m.pdr <= 1.0) ||
               !std::isfinite(m.mean_delay_ms) || !std::isfinite(m.nrl) ||
               m.sim_event_count <= 0.0) {
      why = "metrics out of range";
    }
    if (why.empty()) return true;
    fail(rep, key + ": " + why);
    return false;
  }

  // One end-to-end measurement with nothing installed: Scenario
  // construction (median of kSetupSamples constructions), run(), and
  // metrics(), timed separately.
  Sample untraced(std::size_t rep) {
    ++attempted_;
    std::vector<double> setup;
    std::unique_ptr<exp::Scenario> s;
    for (int k = 0; k < kSetupSamples; ++k) {
      s.reset();
      const auto t0 = Clock::now();
      s = std::make_unique<exp::Scenario>(configs_[rep]);
      setup.push_back(seconds_since(t0));
    }
    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    s->run();
    const double run_s = seconds_since(t0);
    const double cpu_s = process_cpu_s() - c0;
    const auto t1 = Clock::now();
    const exp::RunMetrics m = s->metrics();
    const double metrics_s = seconds_since(t1);
    check(rep, "rep" + std::to_string(rep), m);
    return Sample{
        {"setup_s", median(setup)},
        {"run_s", run_s},
        {"cpu_s", cpu_s},
        {"bytes_per_node", static_cast<double>(s->bytes_per_node())},
        {"pdr", m.pdr},
        {"mean_delay_ms", m.mean_delay_ms},
        {"nrl", m.nrl},
        {"throughput_kbps", m.throughput_kbps},
        {"gateway_jain", m.gateway_jain},
        {"exp.metrics_s", metrics_s},
    };
  }

  // The traced run of one scenario, plus post-run replays of public
  // layer functions. Adds the per-layer metrics to `s`, which holds the
  // same scenario's untraced measurement; false if a check failed.
  bool traced(std::size_t rep, bool first_pass, Sample& s) {
    ++attempted_;
    // Declared first so the shims outlive the scenario's radios.
    std::vector<std::unique_ptr<TimedListener>> shims;
    exp::Scenario sc(configs_[rep]);
    const std::size_t n = sc.node_count();
    shims.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shims.push_back(std::make_unique<TimedListener>(sc.node_mac(i), sc.simulator()));
      sc.node_phy(i).set_listener(shims.back().get());
    }
    const auto t0 = Clock::now();
    sc.run();
    const double run_s = seconds_since(t0);
    for (std::size_t i = 0; i < n; ++i) sc.node_phy(i).set_listener(&sc.node_mac(i));
    const exp::RunMetrics m = sc.metrics();
    // Same key as the untraced run: the shim must be transparent.
    if (!check(rep, "rep" + std::to_string(rep), m)) return false;

    std::array<SpanStats, kUpcallKinds> spans{};
    std::uint64_t pending_sum = 0;
    std::uint64_t pending_peak = 0;
    std::uint64_t pending_samples = 0;
    for (const auto& shim : shims) {
      for (std::size_t k = 0; k < kUpcallKinds; ++k) {
        spans[k].count += shim->spans[k].count;
        spans[k].seconds += shim->spans[k].seconds;
      }
      pending_sum += shim->pending_sum;
      pending_peak = std::max(pending_peak, shim->pending_peak);
      pending_samples += shim->pending_samples;
    }
    double upcall_s = 0.0;
    for (const SpanStats& k : spans) upcall_s += k.seconds;
    const auto span_ns = [&](Upcall k) {
      return ratio(spans[k].seconds * 1e9, static_cast<double>(spans[k].count));
    };
    // --- counters from the public accessors -----------------------------
    // Only those metrics() does not already total.
    phy::WifiPhy::Counters pc;
    mac::DcfMac::Counters mc;
    routing::AodvAgent::Counters rc;
    double routes = 0.0;
    double neighbors = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& p = sc.node_phy(i).counters();
      pc.tx_frames += p.tx_frames;
      pc.rx_ok += p.rx_ok;
      pc.rx_missed_busy += p.rx_missed_busy;
      pc.rx_below_sensitivity += p.rx_below_sensitivity;
      pc.rx_dropped_down += p.rx_dropped_down;
      const auto& c = sc.node_mac(i).counters();
      mc.enqueued += c.enqueued;
      mc.tx_data_unicast += c.tx_data_unicast;
      const auto& a = sc.agent(i).counters();
      rc.rreq_received += a.rreq_received;
      rc.discovery_succeeded += a.discovery_succeeded;
      rc.link_breaks += a.link_breaks;
      rc.data_originated += a.data_originated;
      routes += static_cast<double>(sc.agent(i).routes().size());
      neighbors += static_cast<double>(sc.agent(i).neighbors().count());
    }
    const double tx = static_cast<double>(pc.tx_frames);
    const double arrivals =
        static_cast<double>(pc.rx_ok + m.phy_collisions + pc.rx_missed_busy +
                            pc.rx_below_sensitivity + pc.rx_dropped_down);
    // Copies the channel culled below the detection floor.
    const double culled = static_cast<double>(sc.channel().counters().copies_dropped_floor);
    const double events = m.sim_event_count;
    const double unicast_frames =
        static_cast<double>(mc.tx_data_unicast) - static_cast<double>(m.mac_retries);

    s["sim.events"] = events;
    s["sim.events_per_s"] = ratio(events, s.at("run_s"));
    s["sim.events_per_tx"] = ratio(events, tx);
    s["sim.pending_mean"] = ratio(static_cast<double>(pending_sum),
                                  static_cast<double>(pending_samples));
    s["sim.pending_peak"] = static_cast<double>(pending_peak);
    s["sim.outside_upcalls_s"] = run_s - upcall_s;
    s["phy.transmissions"] = tx;
    s["phy.arrivals_per_tx"] = ratio(arrivals, tx);
    s["phy.culled_per_tx"] = ratio(culled, tx);
    s["phy.sinr_fail_ratio"] =
        ratio(static_cast<double>(m.phy_collisions),
              static_cast<double>(pc.rx_ok + m.phy_collisions));
    s["mac.upcall_s"] = upcall_s;
    s["mac.upcall_share"] = ratio(upcall_s, run_s);
    s["mac.rx_start_ns"] = span_ns(kRxStart);
    s["mac.rx_end_ns"] = span_ns(kRxEnd);
    s["mac.tx_end_ns"] = span_ns(kTxEnd);
    s["mac.cca_change_ns"] = span_ns(kCcaChange);
    s["mac.cca_changes_per_tx"] = ratio(static_cast<double>(spans[kCcaChange].count), tx);
    s["mac.retries_per_unicast"] = ratio(static_cast<double>(m.mac_retries),
                                         static_cast<double>(mc.tx_data_unicast));
    s["mac.queue_drop_ratio"] =
        ratio(static_cast<double>(m.mac_queue_drops),
              static_cast<double>(mc.enqueued + m.mac_queue_drops));
    s["mac.retry_drop_ratio"] =
        ratio(static_cast<double>(m.mac_retry_drops), unicast_frames);
    s["routing.rreq_per_discovery"] = m.rreq_per_discovery;
    s["routing.rreq_suppressed_ratio"] =
        ratio(static_cast<double>(m.rreq_suppressed),
              static_cast<double>(rc.rreq_received));
    s["routing.discovery_success_ratio"] =
        ratio(static_cast<double>(rc.discovery_succeeded),
              static_cast<double>(m.discoveries));
    s["routing.link_breaks"] = static_cast<double>(rc.link_breaks);
    // metrics() totals local repairs on fault workloads only; they read
    // 0 elsewhere.
    s["routing.local_repair_success_ratio"] =
        ratio(static_cast<double>(m.local_repairs_succeeded),
              static_cast<double>(m.local_repairs_attempted));
    s["routing.routes_per_node"] = routes / static_cast<double>(n);
    s["routing.neighbors_per_node"] = neighbors / static_cast<double>(n);
    s["traffic.data_originated"] = static_cast<double>(rc.data_originated);
    s["traffic.session_reject_ratio"] =
        ratio(static_cast<double>(m.sessions_rejected),
              static_cast<double>(m.sessions_started + m.sessions_rejected));
    s["fault.crashes"] = static_cast<double>(m.fault_crashes);
    s["fault.downtime_s"] = m.fault_downtime_s;
    s["fault.pdr_during_outage"] = m.pdr_during_outage;
    s["fault.route_recovery_ms"] = m.route_recovery_mean_ms;
    s["net.packets_created"] = static_cast<double>(sc.packet_factory().packets_created());
    s["net.arena_allocations_per_event"] =
        ratio(static_cast<double>(sc.packet_factory().arena().allocations()), events);
    s["exp.trace_overhead"] = ratio(run_s, s.at("run_s"));

    if (!shard_metrics(rep, first_pass, m, s)) return false;
    return replay(sc, rep, m, s);
  }

  // The same inputs on the sharded engine, run untraced: its geometry,
  // its CPU per wall second, and its accuracy against the classic
  // engine's metrics `classic` (DESIGN §3e). The sharded metrics are
  // deterministic too, so one sharded run per scenario does; later
  // passes reuse it. False if that run failed its check.
  bool shard_metrics(std::size_t rep, bool first_pass, const exp::RunMetrics& classic,
                     Sample& s) {
    if (first_pass) {
      Sample out;
      for (const char* k : {"shard.regions", "shard.workers", "shard.epoch_us",
                            "shard.events_per_epoch", "shard.cpu_per_wall",
                            "shard.pdr_vs_classic", "shard.delay_vs_classic"}) {
        out[k] = 0.0;
      }
      if (w_.shards > 0) {
        ++attempted_;
        exp::ScenarioConfig cfg = configs_[rep];
        cfg.intra_run_shards = w_.shards;
        exp::Scenario sc(cfg);
        const double c0 = process_cpu_s();
        const auto t0 = Clock::now();
        sc.run();
        const double run_s = seconds_since(t0);
        const double cpu_s = process_cpu_s() - c0;
        const exp::RunMetrics sm = sc.metrics();
        if (!check(rep, "sharded" + std::to_string(rep), sm)) return false;
        const sim::ShardedSimulator& eng = *sc.sharded_engine();
        const double horizon_s = (cfg.warmup + cfg.traffic_time + cfg.drain).to_seconds();
        out["shard.regions"] = eng.region_count();
        out["shard.workers"] = eng.worker_threads();
        out["shard.epoch_us"] = eng.epoch().to_seconds() * 1e6;
        out["shard.events_per_epoch"] =
            ratio(sm.sim_event_count, std::ceil(horizon_s / eng.epoch().to_seconds()));
        out["shard.cpu_per_wall"] = ratio(cpu_s, run_s);
        out["shard.pdr_vs_classic"] = ratio(sm.pdr, classic.pdr);
        out["shard.delay_vs_classic"] = ratio(sm.mean_delay_ms, classic.mean_delay_ms);
      }
      shard_[rep] = std::move(out);
    }
    const auto it = shard_.find(rep);
    if (it == shard_.end()) return false;  // the first pass's sharded run failed
    s.insert(it->second.begin(), it->second.end());
    return true;
  }

  // Replays public layer functions on the finished run's state and
  // checks they left metrics() unchanged.
  bool replay(exp::Scenario& sc, std::size_t rep, const exp::RunMetrics& before,
              Sample& s) {
    const std::size_t n = sc.node_count();
    volatile double sink = 0.0;

    const phy::WirelessChannel& ch = sc.channel();
    double acc = 0.0;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) acc += ch.link_rx_power_dbm(sc.node_phy(i), sc.node_phy(j));
      }
    }
    const double pairs = static_cast<double>(n * (n - 1));
    s["phy.link_budget_ns"] = seconds_since(t0) * 1e9 / pairs;
    sink = sink + acc;

    std::uint64_t found = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      routing::RouteTable& rt = sc.agent(i).routes();
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && rt.find(sc.agent(j).address()) != nullptr) ++found;
      }
    }
    s["routing.route_find_ns"] = seconds_since(t0) * 1e9 / pairs;
    sink = sink + static_cast<double>(found);

    constexpr int kLoadPasses = 50;
    acc = 0.0;
    t0 = Clock::now();
    for (int p = 0; p < kLoadPasses; ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        acc += sc.agent(i).neighbors().mean_neighbor_load();
      }
    }
    s["routing.mean_neighbor_load_ns"] =
        seconds_since(t0) * 1e9 / static_cast<double>(n * kLoadPasses);
    sink = sink + acc;

    if (exp::fingerprint(sc.metrics()) == exp::fingerprint(before)) return true;
    fail(rep, "replayed layer calls changed metrics()");
    return false;
  }

  const Workload& w_;
  const Options& opt_;
  std::vector<exp::ScenarioConfig> configs_;
  std::vector<std::vector<Sample>> samples_;
  std::map<std::string, std::uint64_t> fingerprints_;
  std::map<std::size_t, Sample> shard_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "wmn_perfbench: %s\nusage: wmn_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--smoke") {
        opt.smoke = true;
      } else if (a == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        opt.trace = std::stoi(argv[++i]);
      } else {
        return usage(("unknown or incomplete argument '" + a + "'").c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for '" + a + "'").c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (opt.workload == k.name) w = &k;
  }
  if (w == nullptr) return usage("unknown workload");
  if (opt.trace != 0 && opt.trace != 1) return usage("--trace must be 0 or 1");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  // Count invariant violations per run instead of aborting the process,
  // so a violation is reported as a failed run.
  core::set_check_policy(core::CheckPolicy::kLogAndCount);

  Bench bench(*w, opt);
  bench.run();
  const Sample values = bench.aggregate();

  // Human-readable table first; the JSON result is the last line.
  std::string metrics;
  bool complete = true;
  const std::span<const MetricDef> defs =
      opt.trace != 0 ? std::span<const MetricDef>(kPerLayer)
                     : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      complete = false;
      continue;
    }
    std::printf("%-36s %16.6g %s\n", d.name, it->second, d.unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, it->second, d.unit);
    metrics += buf;
  }
  const bool correct = complete && bench.failed() == 0 && bench.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", bench.attempted(), bench.failed(),
              metrics.c_str());
  return correct ? 0 : 1;
}
