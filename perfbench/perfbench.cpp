// Performance benchmark of the PARM simulator.
//
// Runs one workload (or all four with --workload all) for a fixed host
// time, checks its outputs against invariants, and prints every metric by
// name and unit. The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/README.md describes the workloads, the metrics
// and what each layer metric is expected to move.
//
// The benchmark measures layers from outside: it times calls into public
// functions (SystemSimulator, FleetSimulator, run_campaign,
// PsnEstimator::estimate, the merged-fleet exporters) and reads the
// registries the simulators expose. It never enables the process-global
// Tracer and leaves parallel_noc / noc_shards at their defaults.
//
// Every pass builds its simulators or estimators from scratch, so each
// starts with an empty PsnCache and unfactorized PDN, as a user's run
// does.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "appmodel/workload.hpp"
#include "campaign/campaign.hpp"
#include "common/thread_pool.hpp"
#include "core/framework.hpp"
#include "exp/experiments.hpp"
#include "fleet/fleet_sim.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_profiler.hpp"
#include "pdn/psn_estimator.hpp"
#include "power/core_power.hpp"
#include "power/router_power.hpp"
#include "power/technology.hpp"
#include "power/vf_model.hpp"
#include "sim/system_sim.hpp"

namespace {

using namespace parm;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed, so every input the program sees comes from --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a over the bytes of the values fed to it.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Shortest round-trip decimal form of a double.
std::string fmt(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// --- Output checks -------------------------------------------------------

/// Invariant checks on program outputs; a failed one counts in failed_frac.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "check failed: " << what << "\n";
    }
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
};

// --- Spans ---------------------------------------------------------------

/// In-memory spans around the benchmark's calls into each layer, written
/// out as a Chrome trace when the traced run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int begin(std::string name, int parent) {
    spans_.push_back(Span{std::move(name), now_us(), -1.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }

  /// Durations (µs) of every span with this name.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end_us - s.start_us);
    }
    return out;
  }
  double total_us(const std::string& name) const {
    double sum = 0.0;
    for (double d : durations(name)) sum += d;
    return sum;
  }

  void write_chrome_trace(std::ostream& os) const {
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? "," : "") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << fmt(s.start_us)
         << ",\"dur\":" << fmt(s.end_us - s.start_us)
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    os << "]}\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it inert, so untraced passes pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent = -1)
      : log_(log), id_(log ? log->begin(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// --- Metrics -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, measured with tracing off. ops_per_s counts the
/// workload's natural unit of work: simulated 1 ms epochs (paper_matrix,
/// fleet_observed), campaign runs (fault_campaign) or PSN estimates
/// (psn_sweep). The simulated outcomes are seed-determined, so they are
/// compared exactly per seed (the "exact" record) rather than by a bound.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/// Per-layer metrics of the traced run, named by src/ module. A layer a
/// workload does not exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    {"sim.noc_us_per_epoch", "us"},
    {"sim.psn_us_per_epoch", "us"},
    {"sim.admission_us_per_epoch", "us"},
    {"sim.other_us_per_epoch", "us"},
    {"sim.phase_coverage_pct", "%"},
    {"sim.setup_ms", "ms"},
    {"sim.epochs", "count"},
    {"sim.apps_completed", "count"},
    {"sim.makespan_sim_s", "s"},
    {"sim.ve_count", "count"},
    {"sim.peak_psn_pct", "%"},
    {"noc.ns_per_router_cycle", "ns"},
    {"noc.window_us_p50", "us"},
    {"noc.window_us_p99", "us"},
    {"noc.router_cycles", "count"},
    {"noc.flits_injected", "count"},
    {"noc.flits_delivered", "count"},
    {"noc.panr_reroutes", "count"},
    {"pdn.solve_us_p50", "us"},
    {"pdn.estimate_us_p50", "us"},
    {"pdn.psn_cache_hit_rate", "ratio"},
    {"pdn.psn_cache_lookups", "count"},
    {"pdn.solves", "count"},
    {"pdn.steps", "count"},
    {"pdn.factorizations", "count"},
    {"mapping.place_us_p50", "us"},
    {"mapping.place_calls", "count"},
    {"core.candidates_per_admission", "ratio"},
    {"core.queue_drops", "count"},
    {"fleet.straggler_ratio", "ratio"},
    {"fleet.chip_epochs_max", "count"},
    {"common.pool_queue_wait_ms", "ms"},
    {"common.pool_batch_ms", "ms"},
    {"common.pool_pooled_batches", "count"},
    {"obs.export_ms", "ms"},
    {"obs.events_emitted", "count"},
    {"obs.events_dropped", "count"},
    {"obs.timeseries_samples", "count"},
    {"fault.link_fault_events", "count"},
    {"fault.dropped_flits", "count"},
    {"fault.retransmitted_packets", "count"},
    {"campaign.batch_ms_p50", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

/// Simulated outcomes and exact counts of one pass: for a fixed seed they
/// repeat exactly, with or without tracing.
using Exact = std::map<std::string, double>;
using Layers = std::map<std::string, double>;

/// What one pass of a workload produced.
struct Pass {
  double wall_s = 0.0;  ///< host time of the timed calls
  double ops = 0.0;     ///< units of work done
  double runs = 0.0;    ///< simulator runs (chips count once each)
  double peak_psn_pct = 0.0;
  Exact exact;
  Layers layers;  ///< filled on traced passes only
};

double hist_p(const obs::Registry& reg, const char* name, double p) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h ? h->percentile(p) : 0.0;
}
double hist_sum(const obs::Registry& reg, const std::string& name) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h ? h->sum() : 0.0;
}
double counter(const obs::Registry& reg, const char* name) {
  return static_cast<double>(reg.counter_value(name));
}
double phase_us(const obs::Registry& reg, const char* phase) {
  return hist_sum(reg, std::string("profile.phase.") + phase + "_us");
}

/// Sum of the six engine phases' profiled time (µs).
double phase_total_us(const obs::Registry& reg) {
  double sum = 0.0;
  for (int p = 0; p < obs::PhaseProfiler::kPhaseCount; ++p) {
    sum += phase_us(reg, obs::PhaseProfiler::phase_name(p));
  }
  return sum;
}

/// Engine-layer metrics read from a (merged) simulator registry.
/// `window_router_cycles` is the router-cycles one NoC window simulates.
void engine_layers(const obs::Registry& reg, double window_router_cycles,
                   Layers& out) {
  const double epochs = counter(reg, "sim.epochs");
  if (epochs > 0) {
    out["sim.noc_us_per_epoch"] = phase_us(reg, "noc") / epochs;
    out["sim.psn_us_per_epoch"] = phase_us(reg, "psn") / epochs;
    out["sim.admission_us_per_epoch"] = phase_us(reg, "admission") / epochs;
    out["sim.other_us_per_epoch"] =
        (phase_us(reg, "emergency") + phase_us(reg, "migration") +
         phase_us(reg, "telemetry")) /
        epochs;
  }
  out["sim.epochs"] = epochs;
  const double router_cycles =
      counter(reg, "noc.windows") * window_router_cycles;
  out["noc.router_cycles"] = router_cycles;
  if (router_cycles > 0) {
    out["noc.ns_per_router_cycle"] =
        hist_sum(reg, "noc.window_us") * 1e3 / router_cycles;
  }
  out["noc.window_us_p50"] = hist_p(reg, "noc.window_us", 50);
  out["noc.window_us_p99"] = hist_p(reg, "noc.window_us", 99);
  out["noc.flits_injected"] = counter(reg, "noc.flits_injected");
  out["noc.flits_delivered"] = counter(reg, "noc.flits_delivered");
  out["noc.panr_reroutes"] = counter(reg, "noc.panr_reroutes");
  out["pdn.solve_us_p50"] = hist_p(reg, "pdn.solve_us", 50);
  const double hits = counter(reg, "pdn.psn_cache_hits");
  const double lookups = hits + counter(reg, "pdn.psn_cache_misses");
  out["pdn.psn_cache_lookups"] = lookups;
  if (lookups > 0) out["pdn.psn_cache_hit_rate"] = hits / lookups;
  out["pdn.solves"] = counter(reg, "pdn.solves");
  out["pdn.steps"] = counter(reg, "pdn.steps");
  out["pdn.factorizations"] = counter(reg, "pdn.factorizations");
  out["mapping.place_us_p50"] = hist_p(reg, "mapper.place_us", 50);
  out["mapping.place_calls"] = counter(reg, "mapper.place_calls");
  const double admitted = counter(reg, "admission.admitted");
  if (admitted > 0) {
    out["core.candidates_per_admission"] =
        counter(reg, "admission.candidates") / admitted;
  }
  out["core.queue_drops"] = counter(reg, "core.queue_drops");
  out["obs.events_emitted"] = counter(reg, "recorder.events_emitted");
  out["obs.events_dropped"] = counter(reg, "recorder.events_dropped");
  out["obs.timeseries_samples"] = counter(reg, "timeseries.samples");
}

/// Engine counts that must repeat exactly for a fixed seed.
void engine_exact(const obs::Registry& reg, Exact& out) {
  for (const char* name :
       {"sim.epochs", "noc.windows", "noc.flits_injected",
        "noc.flits_delivered", "noc.panr_reroutes", "pdn.solves",
        "pdn.steps", "mapper.place_calls", "admission.candidates",
        "admission.admitted", "core.queue_drops"}) {
    out[name] = counter(reg, name);
  }
}

void add_pool_layers(const ThreadPool::Stats& before,
                     const ThreadPool::Stats& after, Layers& out) {
  out["common.pool_queue_wait_ms"] =
      static_cast<double>(after.queue_wait_ns - before.queue_wait_ns) / 1e6;
  out["common.pool_batch_ms"] =
      static_cast<double>(after.batch_ns - before.batch_ns) / 1e6;
  out["common.pool_pooled_batches"] =
      static_cast<double>(after.pooled_batches - before.pooled_batches);
}

/// Outcome invariants of one engine result: every arrival is completed,
/// dropped or (only on a timed-out run) unfinished, the counts agree with
/// the per-app records, and no NoC window deadlocked.
void check_result(const sim::SimResult& r, std::size_t arrivals,
                  const std::string& what, Checks& checks) {
  int completed = 0, dropped = 0, unfinished = 0, both = 0;
  for (const sim::AppOutcome& o : r.apps) {
    completed += o.completed;
    dropped += o.dropped;
    unfinished += !o.completed && !o.dropped;
    both += o.completed && o.dropped;
  }
  checks.expect(r.apps.size() == arrivals && both == 0 &&
                    completed == r.completed_count &&
                    dropped == r.dropped_count &&
                    completed + dropped + unfinished ==
                        static_cast<int>(arrivals) &&
                    (unfinished == 0 || r.timed_out),
                what + ": completed + dropped + unfinished != arrivals");
  checks.expect(r.deadlock_windows == 0, what + ": deadlocked NoC window");
}

double window_router_cycles(const sim::SimConfig& cfg, int routers) {
  return static_cast<double>(cfg.noc_window.warmup_cycles +
                             cfg.noc_window.measure_cycles) *
         routers;
}

std::string arrivals_digest(const std::vector<appmodel::AppArrival>& seq) {
  Digest d;
  for (const appmodel::AppArrival& a : seq) {
    d.add(a.profile_seed);
    d.add(a.arrival_s);
    d.add(a.deadline_s);
  }
  return d.hex();
}

// --- Workloads -----------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds pass `pass`'s inputs and constructs the objects it starts
  /// from; timed as setup_s and then discarded.
  virtual void setup(int pass) = 0;
  /// Runs pass `pass`, whose inputs depend only on the seed and `pass`.
  /// A non-null `spans` makes it a traced pass.
  virtual Pass run(int pass, SpanLog* spans, Checks& checks) = 0;
  /// Digest of the generated inputs of pass 0.
  virtual std::string inputs_digest() const = 0;
};

/// The six paper frameworks on one mixed sequence, one simulator at a
/// time: how users regenerate Figs. 6-8.
class PaperMatrix : public Workload {
 public:
  PaperMatrix(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void setup(int pass) override {
    const auto seq = sequence(pass);
    std::vector<std::unique_ptr<sim::SystemSimulator>> sims;
    for (const core::FrameworkConfig& fw : core::paper_frameworks()) {
      sims.push_back(
          std::make_unique<sim::SystemSimulator>(config(fw, false), seq));
    }
  }

  Pass run(int pass, SpanLog* spans, Checks& checks) override {
    Pass out;
    const bool traced = spans != nullptr;
    const auto seq = sequence(pass);
    obs::Registry merged;
    double run_us = 0.0;
    int routers = 0;
    const ThreadPool::Stats pool0 = ThreadPool::shared().stats();
    const auto t0 = Clock::now();
    for (const core::FrameworkConfig& fw : core::paper_frameworks()) {
      ScopedSpan outer(spans, fw.display_name());
      std::unique_ptr<sim::SystemSimulator> sim;
      {
        ScopedSpan s(spans, "construct", outer.id());
        sim = std::make_unique<sim::SystemSimulator>(config(fw, traced), seq);
      }
      sim::SimResult r;
      {
        ScopedSpan s(spans, "run", outer.id());
        const auto r0 = Clock::now();
        r = sim->run();
        run_us += seconds_between(r0, Clock::now()) * 1e6;
      }
      out.ops += counter(sim->metrics(), "sim.epochs");
      out.runs += 1;
      check_result(r, seq.size(), fw.display_name(), checks);
      out.exact["sim.apps_completed"] += r.completed_count;
      out.exact["sim.apps_dropped"] += r.dropped_count;
      out.exact["sim.ve_count"] += static_cast<double>(r.total_ve_count);
      out.exact["sim.makespan_sim_s"] += r.makespan_s;
      out.peak_psn_pct = std::max(out.peak_psn_pct, r.peak_psn_percent);
      routers = sim->platform().tile_count();
      merged.merge_from(sim->metrics());
    }
    out.wall_s = seconds_between(t0, Clock::now());
    engine_exact(merged, out.exact);
    if (traced) {
      engine_layers(merged, window_router_cycles(config({}, true), routers),
                    out.layers);
      out.layers["sim.phase_coverage_pct"] =
          run_us > 0 ? 100.0 * phase_total_us(merged) / run_us : 0.0;
      out.layers["sim.setup_ms"] = spans->total_us("construct") / 1e3;
      add_pool_layers(pool0, ThreadPool::shared().stats(), out.layers);
    }
    return out;
  }

  std::string inputs_digest() const override {
    return arrivals_digest(sequence(0));
  }

 private:
  std::vector<appmodel::AppArrival> sequence(int pass) const {
    appmodel::SequenceConfig seq;
    seq.kind = appmodel::SequenceKind::Mixed;
    seq.app_count = tiny_ ? 3 : 24;
    seq.inter_arrival_s = 0.05;
    seq.seed = mix_seed(seed_, 100 + static_cast<std::uint64_t>(pass));
    return appmodel::make_sequence(seq);
  }
  sim::SimConfig config(const core::FrameworkConfig& fw, bool traced) const {
    sim::SimConfig cfg = exp::default_sim_config();
    cfg.framework = fw;
    if (tiny_) cfg.max_sim_time_s = 0.3;
    cfg.profile_phases = traced;
    return cfg;
  }

  std::uint64_t seed_;
  bool tiny_;
};

/// An 8-chip round-robin fleet with the --serve capture set on, exporting
/// its merged event log, time series and Prometheus text to memory.
class FleetObserved : public Workload {
 public:
  FleetObserved(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void setup(int pass) override {
    fleet::FleetSimulator f(config(pass), stream(pass));
  }

  Pass run(int pass, SpanLog* spans, Checks& checks) override {
    Pass out;
    const auto arrivals = stream(pass);
    const fleet::FleetConfig cfg = config(pass);
    const ThreadPool::Stats pool0 = ThreadPool::shared().stats();
    const auto t0 = Clock::now();
    std::unique_ptr<fleet::FleetSimulator> f;
    {
      ScopedSpan s(spans, "construct");
      f = std::make_unique<fleet::FleetSimulator>(cfg, arrivals);
    }
    fleet::FleetResult r;
    {
      ScopedSpan s(spans, "run");
      r = f->run();
    }
    std::ostringstream events, series, prom;
    {
      ScopedSpan s(spans, "export");
      f->dump_events_jsonl(events);
      f->dump_timeseries_jsonl(series);
      f->metrics().write_prometheus(prom);
    }
    out.wall_s = seconds_between(t0, Clock::now());

    int completed = 0, dropped = 0;
    std::uint64_t ves = 0;
    double chip_epochs_max = 0.0, busy_max = 0.0, busy_sum = 0.0;
    for (int c = 0; c < cfg.chip_count; ++c) {
      const sim::SimResult& chip = r.chips[static_cast<std::size_t>(c)];
      completed += chip.completed_count;
      dropped += chip.dropped_count;
      ves += chip.total_ve_count;
      check_result(chip, f->chip_arrivals(c).size(),
                   "chip " + std::to_string(c), checks);
      const obs::Registry& reg = f->chip_sim(c).metrics();
      chip_epochs_max = std::max(chip_epochs_max, counter(reg, "sim.epochs"));
      const double busy = phase_total_us(reg);
      busy_max = std::max(busy_max, busy);
      busy_sum += busy;
    }
    const obs::Registry& merged = f->metrics();
    out.ops = counter(merged, "sim.epochs");
    out.runs = cfg.chip_count;
    checks.expect(completed == r.completed_count &&
                      dropped == r.dropped_count && ves == r.total_ve_count &&
                      r.apps.size() == arrivals.size(),
                  "fleet: merged counts differ from the sum over chips");
    checks.expect(counter(merged, "recorder.events_dropped") == 0,
                  "fleet: flight recorder dropped events");
    const std::string_view ev = events.view();
    checks.expect(static_cast<std::size_t>(
                      std::count(ev.begin(), ev.end(), '\n')) ==
                      f->events().size(),
                  "fleet: exported event lines != events().size()");
    checks.expect(!series.view().empty() && !prom.view().empty(),
                  "fleet: empty time-series or Prometheus export");

    out.exact["sim.apps_completed"] = r.completed_count;
    out.exact["sim.apps_dropped"] = r.dropped_count;
    out.exact["sim.ve_count"] = static_cast<double>(r.total_ve_count);
    out.exact["sim.makespan_sim_s"] = r.makespan_s;
    out.exact["obs.events"] = static_cast<double>(f->events().size());
    out.exact["obs.timeseries_samples"] =
        counter(merged, "timeseries.samples");
    out.peak_psn_pct = r.peak_psn_percent;
    engine_exact(merged, out.exact);
    if (spans != nullptr) {
      engine_layers(merged,
                    window_router_cycles(
                        cfg.chip, f->chip_sim(0).platform().tile_count()),
                    out.layers);
      out.layers["sim.setup_ms"] = spans->total_us("construct") / 1e3;
      out.layers["obs.export_ms"] = spans->total_us("export") / 1e3;
      out.layers["fleet.chip_epochs_max"] = chip_epochs_max;
      if (busy_sum > 0) {
        out.layers["fleet.straggler_ratio"] =
            busy_max / (busy_sum / cfg.chip_count);
      }
      add_pool_layers(pool0, ThreadPool::shared().stats(), out.layers);
    }
    return out;
  }

  std::string inputs_digest() const override {
    return arrivals_digest(stream(0));
  }

 private:
  std::vector<appmodel::AppArrival> stream(int pass) const {
    appmodel::SequenceConfig seq;
    seq.kind = appmodel::SequenceKind::Mixed;
    seq.app_count = tiny_ ? 8 : 32;
    seq.inter_arrival_s = 0.025;
    seq.seed = mix_seed(seed_, 200 + static_cast<std::uint64_t>(pass));
    return appmodel::make_sequence(seq);
  }
  fleet::FleetConfig config(int pass) const {
    fleet::FleetConfig cfg;
    cfg.chip = exp::default_sim_config();
    cfg.chip.framework.mapping = "PARM";
    cfg.chip.framework.routing = "PANR";
    cfg.chip.seed =
        mix_seed(seed_, 300 + static_cast<std::uint64_t>(pass)) % 1000000007;
    if (tiny_) cfg.chip.max_sim_time_s = 0.3;
    cfg.chip.profile_phases = true;
    cfg.chip.track_slo = true;
    cfg.chip.record_events = true;
    cfg.chip.record_timeseries = true;
    cfg.chip_count = 8;
    cfg.dispatch = "round-robin";
    return cfg;
  }

  std::uint64_t seed_;
  bool tiny_;
};

/// The CI fault campaign's shape: short faulty runs in replicate batches.
class FaultCampaign : public Workload {
 public:
  FaultCampaign(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void setup(int pass) override {
    fleet::FleetConfig batch = config(pass).fleet;
    batch.dispatch = "replicate";
    fleet::FleetSimulator f(batch, arrivals(pass));
  }

  Pass run(int pass, SpanLog* spans, Checks& checks) override {
    return spans ? replay(pass, *spans, checks) : run_campaign(pass, checks);
  }

  std::string inputs_digest() const override {
    Digest d;
    d.add(config(0).first_seed);
    return arrivals_digest(arrivals(0)) + d.hex();
  }

 private:
  Pass run_campaign(int pass, Checks& checks) {
    Pass out;
    const campaign::CampaignConfig cfg = config(pass);
    // Report-only observer on the no_deadlock predicate: reads each run's
    // peak PSN and simulated epochs, which the campaign report does not
    // aggregate.
    std::vector<campaign::PropertySpec> props = properties();
    const auto no_deadlock = props[kNoDeadlock].failed;
    props[kNoDeadlock].failed = [&out, no_deadlock](const sim::SimResult& r) {
      out.peak_psn_pct = std::max(out.peak_psn_pct, r.peak_psn_percent);
      out.ops += static_cast<double>(r.telemetry.samples().size());
      return no_deadlock(r);
    };
    const auto t0 = Clock::now();
    const campaign::CampaignReport rep =
        campaign::run_campaign(cfg, arrivals(pass), props);
    out.wall_s = seconds_between(t0, Clock::now());
    out.exact["sim.epochs"] = out.ops;
    out.runs = rep.runs;
    for (const campaign::PropertyResult& p : rep.properties) {
      checks.expect(p.wilson.lower <= p.failure_rate &&
                        p.failure_rate <= p.wilson.upper,
                    "campaign: Wilson interval excludes " + p.name + " rate");
    }
    checks.expect(rep.properties[kNoDeadlock].failures == 0,
                  "campaign: no_deadlock failed");
    checks.expect(rep.recorder_dropped_events == 0,
                  "campaign: flight recorder dropped events");
    Exact& e = out.exact;
    e["sim.apps_completed"] = static_cast<double>(rep.completed_apps);
    e["sim.apps_dropped"] = static_cast<double>(rep.dropped_apps);
    e["sim.ve_count"] = static_cast<double>(rep.total_ve_count);
    e["sim.makespan_sim_s"] = rep.avg_makespan_s;
    e["campaign.deadlock_windows"] = static_cast<double>(rep.deadlock_windows);
    e["fault.link_fault_events"] = static_cast<double>(rep.link_fault_events);
    e["fault.dropped_flits"] = static_cast<double>(rep.fault_dropped_flits);
    e["fault.retransmitted_packets"] =
        static_cast<double>(rep.retransmitted_packets);
    for (const campaign::PropertyResult& p : rep.properties) {
      e["campaign.failures." + p.name] = static_cast<double>(p.failures);
    }
    return out;
  }

  /// The traced run: the same seeds in the same batches, driven through
  /// FleetSimulator's "replicate" dispatch (the campaign's own primitive)
  /// so per-batch timings and chip registries are reachable.
  Pass replay(int pass, SpanLog& spans, Checks& checks) {
    Pass out;
    const campaign::CampaignConfig cfg = config(pass);
    const auto seq = arrivals(pass);
    const std::vector<campaign::PropertySpec> props = properties();
    std::vector<std::uint64_t> failures(props.size(), 0);
    obs::Registry merged;
    Exact& e = out.exact;
    double makespan_sum = 0.0, straggler_sum = 0.0, chip_epochs_max = 0.0;
    int batches = 0, routers = 0;
    const ThreadPool::Stats pool0 = ThreadPool::shared().stats();
    const auto t0 = Clock::now();
    for (int base = 0; base < cfg.runs; base += cfg.fleet.chip_count) {
      fleet::FleetConfig fc = cfg.fleet;
      fc.dispatch = "replicate";
      fc.chip_count = std::min(cfg.fleet.chip_count, cfg.runs - base);
      fc.chip.seed = cfg.first_seed + static_cast<std::uint64_t>(base);
      fc.chip.profile_phases = true;
      std::unique_ptr<fleet::FleetSimulator> f;
      {
        ScopedSpan s(&spans, "construct");
        f = std::make_unique<fleet::FleetSimulator>(fc, seq);
      }
      fleet::FleetResult r;
      {
        ScopedSpan s(&spans, "batch");
        r = f->run();
      }
      double busy_max = 0.0, busy_sum = 0.0;
      for (int c = 0; c < fc.chip_count; ++c) {
        const sim::SimResult& run = r.chips[static_cast<std::size_t>(c)];
        for (std::size_t p = 0; p < props.size(); ++p) {
          failures[p] += props[p].failed(run);
        }
        out.peak_psn_pct = std::max(out.peak_psn_pct, run.peak_psn_percent);
        e["sim.apps_completed"] += run.completed_count;
        e["sim.apps_dropped"] += run.dropped_count;
        e["sim.ve_count"] += static_cast<double>(run.total_ve_count);
        makespan_sum += run.makespan_s;
        e["campaign.deadlock_windows"] +=
            static_cast<double>(run.deadlock_windows);
        e["fault.link_fault_events"] +=
            static_cast<double>(run.link_fault_events);
        e["fault.dropped_flits"] +=
            static_cast<double>(run.fault_dropped_flits);
        e["fault.retransmitted_packets"] +=
            static_cast<double>(run.retransmitted_packets);
        const obs::Registry& reg = f->chip_sim(c).metrics();
        const double epochs = counter(reg, "sim.epochs");
        checks.expect(
            epochs == static_cast<double>(run.telemetry.samples().size()),
            "campaign replay: telemetry samples != sim.epochs");
        out.ops += epochs;
        chip_epochs_max = std::max(chip_epochs_max, epochs);
        const double busy = phase_total_us(reg);
        busy_max = std::max(busy_max, busy);
        busy_sum += busy;
      }
      if (busy_sum > 0) straggler_sum += busy_max / (busy_sum / fc.chip_count);
      routers = f->chip_sim(0).platform().tile_count();
      merged.merge_from(f->metrics());
      ++batches;
    }
    out.wall_s = seconds_between(t0, Clock::now());
    e["sim.epochs"] = out.ops;
    out.runs = cfg.runs;
    e["sim.makespan_sim_s"] = makespan_sum / cfg.runs;  // as run_campaign
    for (std::size_t p = 0; p < props.size(); ++p) {
      e["campaign.failures." + props[p].name] =
          static_cast<double>(failures[p]);
    }
    checks.expect(failures[kNoDeadlock] == 0,
                  "campaign replay: no_deadlock failed");
    checks.expect(counter(merged, "recorder.events_dropped") == 0,
                  "campaign replay: flight recorder dropped events");

    engine_layers(merged, window_router_cycles(cfg.fleet.chip, routers),
                  out.layers);
    out.layers["sim.setup_ms"] = spans.total_us("construct") / 1e3;
    out.layers["campaign.batch_ms_p50"] =
        median(spans.durations("batch")) / 1e3;
    out.layers["fleet.straggler_ratio"] = straggler_sum / batches;
    out.layers["fleet.chip_epochs_max"] = chip_epochs_max;
    for (const char* name : {"fault.link_fault_events", "fault.dropped_flits",
                             "fault.retransmitted_packets"}) {
      out.layers[name] = e[name];
    }
    add_pool_layers(pool0, ThreadPool::shared().stats(), out.layers);
    return out;
  }

  static constexpr std::size_t kNoDeadlock = 1;
  /// The three canonical properties, no_deadlock at index kNoDeadlock.
  static std::vector<campaign::PropertySpec> properties() {
    return {campaign::deadline_miss_property(1.0),
            campaign::no_deadlock_property(),
            campaign::delivery_floor_property(0.5, 1.0)};
  }
  std::vector<appmodel::AppArrival> arrivals(int pass) const {
    appmodel::SequenceConfig seq;
    seq.kind = appmodel::SequenceKind::Mixed;
    seq.app_count = tiny_ ? 2 : 6;
    seq.inter_arrival_s = 0.05;
    seq.seed = mix_seed(seed_, 400 + static_cast<std::uint64_t>(pass));
    return appmodel::make_sequence(seq);
  }
  campaign::CampaignConfig config(int pass) const {
    campaign::CampaignConfig cfg;
    sim::SimConfig& chip = cfg.fleet.chip;
    chip = exp::default_sim_config();
    chip.framework.mapping = "PARM";
    chip.framework.routing = "PANR";
    chip.max_sim_time_s = tiny_ ? 0.3 : 3.0;
    // Per-epoch samples let the observer count each run's simulated
    // epochs, the unit of ops_per_s; recording is observe-only.
    chip.record_telemetry = true;
    chip.faults.enabled = true;
    chip.faults.random_link_failures = 2;
    chip.faults.repair_after_s = 1.0;
    chip.faults.sensor_dropout_per_epoch = 0.01;
    chip.faults.bit_error_psn_slope = 0.002;
    cfg.fleet.chip_count = tiny_ ? 2 : 16;
    cfg.runs = tiny_ ? 2 : 16;
    cfg.first_seed =
        1 + mix_seed(seed_, 500 + static_cast<std::uint64_t>(pass)) %
                1000000007;
    return cfg;
  }

  std::uint64_t seed_;
  bool tiny_;
};

/// Fresh PsnEstimators (no PsnCache) over a grid of distinct operating
/// points on all six technology nodes: PDN solver time and nothing else.
class PsnSweep : public Workload {
 public:
  PsnSweep(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {
    build_grid();
  }

  /// Constructs each node's estimator and runs its first grid point, which
  /// stamps and factorizes the node's PDN.
  void setup(int /*pass*/) override {
    obs::Registry reg;
    const auto& nodes = power::all_technology_nodes();
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (i > 0 && points_[i].node == points_[i - 1].node) continue;
      const Point& p = points_[i];
      pdn::PsnEstimator est(nodes[p.node], pdn::PsnEstimatorConfig{}, &reg);
      (void)est.estimate(p.vdd, p.loads);
    }
  }

  Pass run(int /*pass*/, SpanLog* spans, Checks& checks) override {
    Pass out;
    obs::Registry reg;
    std::vector<std::unique_ptr<pdn::PsnEstimator>> est;
    std::vector<double> peaks(points_.size());
    const ThreadPool::Stats pool0 = ThreadPool::shared().stats();
    const auto t0 = Clock::now();
    {
      ScopedSpan s(spans, "construct");
      for (const power::TechnologyNode& tech :
           power::all_technology_nodes()) {
        est.push_back(std::make_unique<pdn::PsnEstimator>(
            tech, pdn::PsnEstimatorConfig{}, &reg));
      }
    }
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& p = points_[i];
      ScopedSpan s(spans, "estimate");
      peaks[i] = est[p.node]->estimate(p.vdd, p.loads).peak_percent;
    }
    out.wall_s = seconds_between(t0, Clock::now());
    out.ops = static_cast<double>(points_.size());

    double sum = 0.0;
    for (double v : peaks) {
      out.peak_psn_pct = std::max(out.peak_psn_pct, v);
      sum += v;
    }
    out.exact["pdn.estimates"] = out.ops;
    out.exact["pdn.peak_psn_sum"] = sum;
    out.exact["pdn.solves"] = counter(reg, "pdn.solves");
    out.exact["pdn.steps"] = counter(reg, "pdn.steps");
    if (spans != nullptr) {
      engine_layers(reg, 0.0, out.layers);
      out.layers["pdn.estimate_us_p50"] =
          median(spans->durations("estimate"));
      out.layers["sim.setup_ms"] = spans->total_us("construct") / 1e3;
      add_pool_layers(pool0, ThreadPool::shared().stats(), out.layers);
    }

    // Untimed checks: the cached path equals the cold rebuild on a
    // sample, and peak PSN never falls as Vdd rises within a series.
    for (std::size_t i = 0; i < points_.size(); i += sample_stride_) {
      const Point& p = points_[i];
      const pdn::DomainPsn hot = est[p.node]->estimate(p.vdd, p.loads);
      const pdn::DomainPsn cold = est[p.node]->estimate_cold(p.vdd, p.loads);
      bool same = std::abs(hot.peak_percent - cold.peak_percent) <= 1e-12 &&
                  std::abs(hot.avg_percent - cold.avg_percent) <= 1e-12;
      for (std::size_t t = 0; t < 4; ++t) {
        same = same && std::abs(hot.tiles[t].peak_percent -
                                cold.tiles[t].peak_percent) <= 1e-12;
      }
      checks.expect(same, "psn_sweep: estimate != estimate_cold at point " +
                              std::to_string(i));
    }
    for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
      if (points_[i].series != points_[i + 1].series) continue;
      checks.expect(peaks[i + 1] >= peaks[i],
                    "psn_sweep: peak PSN falls as Vdd rises in series " +
                        std::to_string(points_[i].series));
    }
    return out;
  }

  std::string inputs_digest() const override {
    Digest d;
    for (const Point& p : points_) {
      d.add(p.vdd);
      for (const pdn::TileLoad& l : p.loads) {
        d.add(l.i_avg);
        d.add(l.modulation);
        d.add(l.phase);
      }
    }
    return d.hex();
  }

 private:
  struct Point {
    std::size_t node;
    int series;  ///< points of one series differ only in Vdd, ascending
    double vdd;
    std::array<pdn::TileLoad, 4> loads;
  };

  /// Vdd × activity class × phase alignment per node. Vdd values are
  /// drawn from the seed inside the node's DVS range; the alignments are
  /// in-phase, staggered and seeded-random tile phases.
  void build_grid() {
    struct ActivityClass {
      double core_activity[4];
      double router_flits_per_cycle;
    };
    constexpr ActivityClass kClasses[] = {
        {{0.85, 0.85, 0.85, 0.85}, 0.06},  // compute-intensive
        {{0.55, 0.55, 0.55, 0.55}, 0.45},  // communication-intensive
        {{0.85, 0.4, 0.85, 0.4}, 0.2},     // High/Low interleaved
    };
    const int vdd_count = tiny_ ? 2 : 10;
    std::uint64_t state = mix_seed(seed_, 600);
    const auto uniform = [&state] {
      state = mix_seed(state, 0);
      return static_cast<double>(state >> 11) * 0x1.0p-53;
    };
    const auto& nodes = power::all_technology_nodes();
    int series = 0;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      const power::TechnologyNode& tech = nodes[n];
      const power::VoltageFrequencyModel vf(tech);
      const power::CorePowerModel core(tech);
      const power::RouterPowerModel router(tech);
      std::vector<double> vdds;
      for (int v = 0; v < vdd_count; ++v) {
        vdds.push_back(tech.vdd_ntc +
                       (tech.vdd_nominal - tech.vdd_ntc) * uniform());
      }
      std::sort(vdds.begin(), vdds.end());
      for (const ActivityClass& cls : kClasses) {
        double random_phase[4];
        for (double& ph : random_phase) ph = uniform();
        for (int align = 0; align < 3; ++align, ++series) {
          for (double vdd : vdds) {
            Point p{n, series, vdd, {}};
            const double f = vf.fmax(vdd);
            for (std::size_t k = 0; k < 4; ++k) {
              const double phase =
                  align == 0   ? 0.0
                  : align == 1 ? 0.25 * static_cast<double>(k)
                               : random_phase[k];
              p.loads[k] = pdn::TileLoad{
                  core.supply_current(vdd, f, cls.core_activity[k]) +
                      router.supply_current(
                          vdd, cls.router_flits_per_cycle * 1e9),
                  pdn::activity_to_modulation(cls.core_activity[k]), phase};
            }
            points_.push_back(p);
          }
        }
      }
    }
    sample_stride_ = tiny_ ? 1 : 17;
  }

  std::uint64_t seed_;
  bool tiny_;
  std::vector<Point> points_;
  std::size_t sample_stride_ = 1;
};

constexpr const char* kWorkloads[] = {"paper_matrix", "fleet_observed",
                                      "fault_campaign", "psn_sweep"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "paper_matrix") return std::make_unique<PaperMatrix>(seed, tiny);
  if (name == "fleet_observed") {
    return std::make_unique<FleetObserved>(seed, tiny);
  }
  if (name == "fault_campaign") {
    return std::make_unique<FaultCampaign>(seed, tiny);
  }
  if (name == "psn_sweep") return std::make_unique<PsnSweep>(seed, tiny);
  return nullptr;
}

// --- Host shape ----------------------------------------------------------

struct Host {
  int nproc = 0;
  std::size_t pool_threads = 0;
  std::string compiler, build_type;
  bool optimized = false, sanitized = false;

  static Host detect() {
    Host h;
    cpu_set_t set;
    h.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                  ? CPU_COUNT(&set)
                  : static_cast<int>(std::thread::hardware_concurrency());
    h.pool_threads = ThreadPool::shared().thread_count();
    h.compiler = obs::build_info().compiler;
    h.build_type = obs::build_info().build_type;
#ifdef __OPTIMIZE__
    h.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    h.sanitized = true;
#endif
    return h;
  }
  /// Results from unoptimized or sanitizer builds are labelled and must
  /// never serve as a baseline.
  bool baseline_eligible() const { return optimized && !sanitized; }
  std::string json() const {
    std::ostringstream os;
    os << "{\"nproc\":" << nproc << ",\"pool_threads\":" << pool_threads
       << ",\"compiler\":\"" << compiler << "\",\"build_type\":\""
       << build_type << "\",\"optimized\":" << (optimized ? "true" : "false")
       << ",\"sanitizer\":" << (sanitized ? "true" : "false")
       << ",\"baseline_eligible\":"
       << (baseline_eligible() ? "true" : "false") << "}";
    return os.str();
  }
};

/// High-water resident set of this process image. VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the launching process's
/// peak across exec.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// --- Runs ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
  int setup_repeats = 24;
};

struct Outcome {
  std::vector<std::pair<MetricDef, double>> metrics;
  int attempted = 0;
  int failed = 0;
  Exact exact;
  std::string inputs;
};

/// Returns freed heap to the system and resets VmHWM to the current
/// resident set, so each workload of a multi-workload run reports its own
/// peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

Outcome run_workload(const std::string& name, const Options& opt) {
  reset_peak_rss();
  Outcome res;
  Checks checks;
  const std::unique_ptr<Workload> w = make_workload(name, opt.seed, opt.tiny);
  res.inputs = w->inputs_digest();

  // Passes start while time remains; the last one runs to completion.
  const auto start = Clock::now();
  const auto more = [&](int passes) {
    return passes == 0 || seconds_between(start, Clock::now()) < opt.seconds;
  };
  const auto run_pass = [&](int pass, SpanLog* spans) {
    Pass p = w->run(pass, spans, checks);
    p.exact["sim.peak_psn_pct"] = p.peak_psn_pct;
    return p;
  };
  if (!opt.trace) {
    std::vector<double> rates;
    double ops = 0.0, runs = 0.0, wall = 0.0, rss_mib = 0.0;
    Pass first;
    for (int passes = 0; more(passes); ++passes) {
      Pass p = run_pass(passes, nullptr);
      rates.push_back(p.ops / p.wall_s);
      ops += p.ops;
      runs += p.runs;
      wall += p.wall_s;
      if (passes == 0) {
        // Later passes reuse heap the allocator kept, so their peak
        // depends on allocation history; the first pass's does not.
        rss_mib = peak_rss_mib();
        first = std::move(p);
      }
    }
    // Set-up is timed once the process is warm, over the inputs of
    // several passes, with the thread moved round the CPUs it may use: a
    // CPU slowed by a co-tenant, first-touch costs or one input's
    // peculiarities cannot set the median.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    std::vector<double> setups;
    for (int i = 0; i < opt.setup_repeats; ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
      const auto t0 = Clock::now();
      w->setup(i);
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    sched_setaffinity(0, sizeof allowed, &allowed);
    res.exact = first.exact;
    res.metrics = {{kEndToEnd[0], ops / wall},
                   {kEndToEnd[1], median(setups)},
                   {kEndToEnd[2], rss_mib}};
    std::cout << "passes " << rates.size();
    if (runs > 0) std::cout << ", simulator runs/s " << fmt(runs / wall);
    std::cout << ", ops/s per pass "
              << fmt(*std::min_element(rates.begin(), rates.end())) << ".."
              << fmt(*std::max_element(rates.begin(), rates.end())) << "\n";
  } else {
    // Untraced and traced passes over pass 0's inputs alternate until the
    // time is up. The traced pass must reproduce the untraced simulated
    // outcomes and counts exactly; the time difference is the tracing
    // overhead.
    SpanLog spans(start);
    std::vector<double> plain_s, traced_s;
    Pass reference, traced;
    for (int pairs = 0; more(pairs); ++pairs) {
      Pass p = run_pass(0, nullptr);
      plain_s.push_back(p.wall_s);
      SpanLog discarded(start);
      Pass t = run_pass(0, pairs == 0 ? &spans : &discarded);
      traced_s.push_back(t.wall_s);
      if (pairs == 0) {
        reference = std::move(p);
        traced = std::move(t);
      }
    }
    for (const auto& [k, v] : reference.exact) {
      const auto it = traced.exact.find(k);
      checks.expect(it != traced.exact.end() && it->second == v,
                    "observe-only: traced " + k + " differs from untraced");
    }
    Layers layers = traced.layers;
    for (const char* key : {"sim.apps_completed", "sim.makespan_sim_s",
                            "sim.ve_count", "sim.peak_psn_pct"}) {
      const auto it = reference.exact.find(key);
      if (it != reference.exact.end()) layers[key] = it->second;
    }
    const double plain = median(plain_s);
    layers["bench.trace_overhead_pct"] =
        100.0 * (median(traced_s) - plain) / plain;
    for (const MetricDef& def : kPerLayer) {
      const auto it = layers.find(def.name);
      res.metrics.push_back({def, it == layers.end() ? 0.0 : it->second});
      if (it != layers.end()) layers.erase(it);
    }
    if (!layers.empty()) {
      throw std::logic_error("per-layer metric missing from kPerLayer: " +
                             layers.begin()->first);
    }
    res.exact = reference.exact;
    if (!opt.trace_out.empty()) {
      std::ofstream os(opt.trace_out);
      spans.write_chrome_trace(os);
    }
    std::cout << "untraced/traced pairs " << plain_s.size() << "\n";
  }
  res.attempted = checks.attempted();
  res.failed = checks.failed();
  return res;
}

std::string exact_json(const Exact& e) {
  std::string out = "{";
  for (const auto& [k, v] : e) {
    out += (out.size() > 1 ? ",\"" : "\"") + k + "\":" + fmt(v);
  }
  return out + "}";
}

void print_outcome(const std::string& name, const Outcome& res,
                   const Options& opt, const std::string& host) {
  for (const auto& [def, v] : res.metrics) {
    std::printf("  %-32s %16.6g %s\n", def.name, v, def.unit);
  }
  std::printf("  checks: %d attempted, %d failed (failed_frac %.6g)\n",
              res.attempted, res.failed,
              static_cast<double>(res.failed) / std::max(1, res.attempted));
  std::cout << "detail {\"workload\":\"" << name << "\",\"seed\":" << opt.seed
            << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"size\":\""
            << (opt.tiny ? "tiny" : "full") << "\",\"host\":" << host
            << ",\"inputs_digest\":\"" << res.inputs
            << "\",\"exact\":" << exact_json(res.exact) << "}\n";
}

/// The result line. With several workloads the metric names are prefixed
/// with the workload name.
std::string result_json(
    const std::vector<std::pair<std::string, Outcome>>& all) {
  const bool prefix = all.size() > 1;
  int attempted = 0, failed = 0;
  std::string metrics;
  for (const auto& [name, res] : all) {
    attempted += res.attempted;
    failed += res.failed;
    for (const auto& [def, v] : res.metrics) {
      metrics += std::string(metrics.empty() ? "" : ",") + "\"" +
                 (prefix ? name + "." : "") + def.name +
                 "\":{\"value\":" + fmt(v) + ",\"unit\":\"" + def.unit +
                 "\"}";
    }
  }
  return "{\"correct\":" + std::string(failed == 0 ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{" +
         metrics + "}}";
}

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "error: " << msg << "\n"
            << "usage: perfbench --workload "
               "paper_matrix|fleet_observed|fault_campaign|psn_sweep|all "
               "[--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] "
               "[--trace-out FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    std::size_t used = val.size();
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        if (val.empty() || val[0] == '-') usage("bad value for --seed");
        opt.seed = std::stoull(val, &used);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val, &used);
      } else if (arg == "--trace" && (val == "0" || val == "1")) {
        opt.trace = val == "1";
      } else if (arg == "--size" && (val == "full" || val == "tiny")) {
        opt.tiny = val == "tiny";
      } else if (arg == "--trace-out") {
        opt.trace_out = val;
      } else {
        usage("unknown argument or bad value: " + arg + " " + val);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
    if (used != val.size()) usage("bad value for " + arg);
  }
  if (opt.workload != "all" && !make_workload(opt.workload, 0, true)) {
    usage("unknown or missing --workload");
  }
  if (!(opt.seconds > 0 && opt.seconds <= 3600)) {
    usage("--seconds must be in (0, 3600]");
  }
  if (opt.tiny) opt.setup_repeats = 2;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Host host = Host::detect();
  if (!host.baseline_eligible()) {
    std::cerr << "warning: unoptimized or sanitizer build; these results "
                 "must not be used as a baseline\n";
  }
  std::vector<std::string> names;
  if (opt.workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    names.push_back(opt.workload);
  }
  std::vector<std::pair<std::string, Outcome>> all;
  for (const std::string& name : names) {
    std::cout << "workload " << name << " seed " << opt.seed << " seconds "
              << opt.seconds << " trace " << opt.trace << "\n";
    Options one = opt;
    if (names.size() > 1 && !one.trace_out.empty()) {
      one.trace_out += "." + name;
    }
    Outcome res = run_workload(name, one);
    print_outcome(name, res, opt, host.json());
    all.emplace_back(name, std::move(res));
  }
  std::cout << result_json(all) << std::endl;
  return 0;
}
