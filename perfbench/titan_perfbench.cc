// Titan-Next benchmark binary: runs ONE workload per process and prints
// one JSON line of raw measurements; perfbench/run.py builds this binary,
// checks the reported objectives and controller counts against recorded
// references, and prints the benchmark result.
//
//   titan_perfbench --workload closed-loop-week|replan-rolling|assign-hot-path
//                   --variant N --seconds S --trace 0|1 [--size full|tiny]
//
// --trace 0 times the workload with tracing off and reports the end-to-end
// metrics. --trace 1 runs the timed region once untraced and once with an
// obs::TraceRecorder attached (spans around every layer call this file
// makes, plus the engine's own spans for the simulator), and reports the
// per-layer metrics, each layer's self time and the tracing overhead.
// Deterministic work counts are reported in both modes.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hash.h"
#include "core/rng.h"
#include "geo/region.h"
#include "geo/world.h"
#include "lp/model.h"
#include "net/network_db.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "titannext/controller.h"
#include "titannext/lp_builder.h"
#include "titannext/pipeline.h"

namespace {

using namespace titan;
using Clock = std::chrono::steady_clock;

// Workload seeds are kBaseSeed + variant; run.py maps --seed to a variant.
constexpr std::uint64_t kBaseSeed = 2024;
// Set-up is repeated this many times per run and setup_s is the median:
// many times where one set-up takes tens of milliseconds, fewer where it
// includes a plan LP (assign-hot-path, ~0.5 s).
constexpr int kSetupRepeats = 31;
constexpr int kPlanSetupRepeats = 7;
// Sim worker threads of closed-loop-week (the CI config).
constexpr int kSimThreads = 2;
// Arrivals between an assign_initial and its converge (the sim's
// arrival/convergence interleaving at a fixed pipeline depth).
constexpr std::size_t kConvergeDepth = 16;
// Offered load of the open-loop latency pass (traced runs only).
constexpr double kOpenLoopRate = 50000.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Exact quantile (nearest rank) of a sample vector.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1.0,
                       std::ceil(q * static_cast<double>(v.size())) - 1.0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Everything one run reports, serialized as the binary's last stdout line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, json_number(value), unit});
  }
  // Deterministic work count: an exact integer, reported in both modes.
  void count(const std::string& name, std::int64_t value) {
    counts_.push_back({name, std::to_string(value), "count"});
  }
  // A count that run.py compares exactly against the recorded reference.
  void gated(const std::string& name, std::int64_t value) {
    gated_.push_back({name, std::to_string(value), "count"});
  }
  void objective(double value) { objectives_.push_back(value); }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks_.push_back({name, ok, detail});
    if (!ok) ++failed_;
  }
  void attempted(std::int64_t n) { attempted_ += n; }
  void failed(std::int64_t n) { failed_ += n; }
  void note(const std::string& name, const std::string& text) { notes_[name] = text; }

  [[nodiscard]] std::string json(const std::string& workload, int variant,
                                 const std::string& size, bool trace) const {
    std::ostringstream o;
    o << "{\"workload\": " << json_string(workload) << ", \"variant\": " << variant
      << ", \"size\": " << json_string(size) << ", \"trace\": " << (trace ? 1 : 0)
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_;
    const auto entries = [&o](const char* key, const std::vector<Entry>& list) {
      o << ", " << json_string(key) << ": {";
      for (std::size_t i = 0; i < list.size(); ++i)
        o << (i ? ", " : "") << json_string(list[i].name) << ": {\"value\": " << list[i].value
          << ", \"unit\": " << json_string(list[i].unit) << "}";
      o << "}";
    };
    entries("metrics", metrics_);
    entries("counts", counts_);
    entries("gated", gated_);
    o << ", \"objectives\": [";
    for (std::size_t i = 0; i < objectives_.size(); ++i)
      o << (i ? ", " : "") << json_number(objectives_[i]);
    o << "], \"checks\": [";
    for (std::size_t i = 0; i < checks_.size(); ++i)
      o << (i ? ", " : "") << "{\"name\": " << json_string(checks_[i].name)
        << ", \"ok\": " << (checks_[i].ok ? "true" : "false")
        << ", \"detail\": " << json_string(checks_[i].detail) << "}";
    o << "], \"notes\": {";
    bool first = true;
    for (const auto& [k, v] : notes_) {
      o << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
      first = false;
    }
    o << "}}";
    return o.str();
  }

 private:
  struct Entry {
    std::string name, value, unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> metrics_, counts_, gated_;
  std::vector<Check> checks_;
  std::vector<double> objectives_;
  std::map<std::string, std::string> notes_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// --- tracing and layer accounting --------------------------------------

// Null recorder = tracing off: every obs::Span is then a no-op.
struct Tracing {
  obs::TraceRecorder* rec = nullptr;
  // Library-reported durations (e.g. LpPlanResult::solve_seconds) become
  // child spans nested at the end of the enclosing span, so the layer below
  // a call this file cannot bracket still gets its self time.
  std::vector<obs::TraceEvent> reported;
  void report(const char* name, double end_us, double seconds) {
    if (rec == nullptr || seconds <= 0.0) return;
    reported.push_back({name, "reported", 0, end_us - seconds * 1e6, seconds * 1e6});
  }
};

// Layer owning a span: the prefix before the first '.'; the simulator's
// own lane-0 spans belong to sim, except "replan", the engine's bracket
// around the titannext pipeline.
std::string layer_of(const std::string& name) {
  if (name == "replan") return "titannext";
  const auto dot = name.find('.');
  return dot == std::string::npos ? "sim" : name.substr(0, dot);
}

// Self time per layer: each lane-0 span's duration minus the part its
// direct children cover. Lane 0 is single-threaded, so spans nest; the
// simulator's per-shard lanes run inside lane-0 phases and are skipped.
std::map<std::string, double> self_seconds(std::vector<obs::TraceEvent> spans) {
  std::erase_if(spans, [](const obs::TraceEvent& e) { return e.lane != 0; });
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.duration_us > b.duration_us;
  });
  std::vector<double> covered(spans.size(), 0.0);
  std::vector<std::size_t> open;  // indices of enclosing spans
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && spans[i].start_us >= spans[open.back()].start_us +
                                                     spans[open.back()].duration_us)
      open.pop_back();
    if (!open.empty()) covered[open.back()] += spans[i].duration_us;
    open.push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[layer_of(spans[i].name)] +=
        std::max(0.0, spans[i].duration_us - covered[i]) * 1e-6;
  return self;
}

// Per-layer metric table. Every name is printed by every workload (0 where
// the workload does not exercise that layer), so traced runs share one
// schema; run.py and BENCHMARK.json list the same names.
class Layers {
 public:
  double& operator[](const std::string& name) { return values_.at(name).value; }
  void add(const std::string& name, double v) { (*this)[name] += v; }
  // Counts go out in every run; the rest only from traced runs.
  void emit_counts(Report& report) const {
    for (const auto& [name, m] : values_)
      if (m.unit == "count")
        report.count(name, static_cast<std::int64_t>(std::llround(m.value)));
  }
  void emit_measured(Report& report) const {
    for (const auto& [name, m] : values_)
      if (m.unit != "count") report.metric(name, m.value, m.unit);
  }

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> values_ = [] {
    std::map<std::string, Value> v;
    for (const char* n :
         {"lp.solves", "lp.pivots", "lp.phase1_pivots", "lp.dual_pivots", "lp.refactorizations",
          "lp.rows", "lp.cols", "lp.nnz", "lp.warm_seeded", "lp.warm_accepted",
          "lp.pruned_columns", "lp.promoted_columns", "titannext.plan_attempts",
          "titannext.blocks_solved", "titannext.admit_samples",
          "titannext.assign_initial_samples", "titannext.converge_samples",
          "titannext.late_ops", "titannext.ops", "titannext.fallbacks", "titannext.out_of_plan",
          "titannext.degraded", "titannext.shed", "forecast.calls", "forecast.hw_configs",
          "workload.calls", "workload.configs", "sim.calls", "sim.replans", "sim.events",
          "sim.forced_migrations", "trace.spans"})
      v[n] = {0.0, "count"};
    for (const char* n :
         {"lp.busy_s", "lp.phase1_s", "lp.phase2_s", "lp.refactor_s", "titannext.remap_s",
          "titannext.set_demand_s", "titannext.build_model_s", "titannext.plan_index_s",
          "titannext.rebind_s", "forecast.busy_s", "workload.generate_s", "geo.world_s",
          "net.db_s", "sim.construct_s", "sim.run_s", "sim.replan_s", "sim.event_apply_s",
          "sim.metric_aggregation_s", "self_s.lp", "self_s.titannext", "self_s.forecast",
          "self_s.sim", "self_s.workload", "self_s.geo", "self_s.net", "trace.untraced_s",
          "trace.traced_s"})
      v[n] = {0.0, "s"};
    for (const char* n :
         {"titannext.admit_p50_us", "titannext.admit_p99_us", "titannext.assign_initial_p50_us",
          "titannext.assign_initial_p99_us", "titannext.converge_p50_us",
          "titannext.converge_p99_us", "lp.us_per_pivot"})
      v[n] = {0.0, "us"};
    for (const char* n :
         {"lp.warm_accepted_frac", "titannext.fallback_frac", "titannext.out_of_plan_frac",
          "titannext.degrade_frac", "titannext.shed_frac", "trace.overhead_frac"})
      v[n] = {0.0, "ratio"};
    return v;
  }();
};

// Accumulates one plan_from_counts call into the layer table: the accepted
// solve's counts and every attempt's seconds.
void add_plan_stats(Layers& layers, const titannext::DayPlan& day) {
  layers.add("lp.solves", day.lp_attempts);
  layers.add("titannext.plan_attempts", day.lp_attempts);
  layers.add("lp.pivots", day.lp_iterations);
  layers.add("lp.phase1_pivots", day.lp_phase1_iterations);
  layers.add("lp.dual_pivots", day.lp_dual_iterations);
  layers.add("lp.refactorizations", day.lp_refactorizations);
  layers.add("lp.busy_s", day.lp_seconds);
  layers.add("lp.phase1_s", day.lp_phase1_seconds);
  layers.add("lp.phase2_s", day.lp_phase2_seconds);
  layers.add("lp.refactor_s", day.lp_refactor_seconds);
  layers.add("lp.warm_accepted", day.lp_warm_started ? 1 : 0);
  layers.add("lp.pruned_columns", day.lp_pruned_columns);
  layers.add("lp.promoted_columns", day.plan.result().promoted_columns);
  layers.add("titannext.build_model_s", day.lp_build_seconds);
  layers.add("titannext.blocks_solved", day.lp_blocks_solved);
}

// Nests the LP solve and model build that plan_from_counts times itself at
// the end of the span around it, so the lp layer gets its own self time.
void report_plan_spans(Tracing& tr, const titannext::DayPlan& day) {
  if (tr.rec == nullptr) return;
  const double end = tr.rec->now_us();
  tr.report("lp.solve", end, day.lp_seconds);
  tr.report("titannext.build_model", end - day.lp_seconds * 1e6, day.lp_build_seconds);
}

// Derived ratios, self times (set-up recorder and timed-region recorder
// each nest on their own time base) and the tracing overhead: the traced
// and untraced wall of the same timed work.
void finish_layers(Layers& layers, const std::vector<const Tracing*>& traces,
                   double untraced_s, double traced_s) {
  if (layers["lp.pivots"] > 0)
    layers["lp.us_per_pivot"] = layers["lp.busy_s"] * 1e6 / layers["lp.pivots"];
  if (layers["lp.warm_seeded"] > 0)
    layers["lp.warm_accepted_frac"] = layers["lp.warm_accepted"] / layers["lp.warm_seeded"];
  for (const Tracing* tr : traces) {
    auto events = tr->rec->events();
    layers.add("trace.spans", static_cast<double>(events.size()));
    events.insert(events.end(), tr->reported.begin(), tr->reported.end());
    for (const auto& [layer, s] : self_seconds(std::move(events))) layers.add("self_s." + layer, s);
  }
  layers["trace.untraced_s"] = untraced_s;
  layers["trace.traced_s"] = traced_s;
  layers["trace.overhead_frac"] = untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
}

// --- plan correctness ----------------------------------------------------

// Rebuilds the plan LP's structural vector from the plan the controller
// uses (assignment weights -> X columns; each peak column y_l set to the
// least value its rows allow) and returns LpModel::max_violation of it,
// scaled by the largest |rhs| so one tolerance fits every model size.
// Also returns the objective of the rebuilt point.
struct PlanCheck {
  double violation = 0.0;
  double objective = 0.0;
  int rows = 0, cols = 0;
  std::int64_t nnz = 0;
};

PlanCheck check_plan(const titannext::PlanInputs& inputs,
                     const titannext::LpBuildOptions& options,
                     const titannext::LpPlanResult& result) {
  const lp::LpModel model = titannext::build_model(inputs, options);
  const lp::SparseMatrix a = model.matrix();
  PlanCheck out;
  out.rows = model.num_constraints();
  out.cols = model.num_variables();
  out.nnz = static_cast<std::int64_t>(a.nnz());

  const auto& dcs = inputs.dcs();
  const int configs = static_cast<int>(inputs.demands().size());
  const int num_dcs = static_cast<int>(dcs.size());
  const int num_x = inputs.scope().timeslots * configs * num_dcs * 2;  // lp_builder layout
  std::vector<double> x(static_cast<std::size_t>(out.cols), 0.0);
  for (std::size_t t = 0; t < result.weights.size(); ++t)
    for (std::size_t c = 0; c < result.weights[t].size(); ++c)
      for (const auto& e : result.weights[t][c].entries) {
        const int m = static_cast<int>(std::find(dcs.begin(), dcs.end(), e.dc) - dcs.begin());
        const int p = e.path == net::PathType::kWan ? 0 : 1;
        x[static_cast<std::size_t>(((static_cast<int>(t) * configs + static_cast<int>(c)) *
                                        num_dcs +
                                    m) *
                                       2 +
                                   p)] = e.units;
      }
  std::vector<double> activity(static_cast<std::size_t>(out.rows), 0.0);
  for (int j = 0; j < num_x; ++j)
    if (x[static_cast<std::size_t>(j)] != 0.0) a.axpy_column(j, x[static_cast<std::size_t>(j)], activity);
  for (int j = num_x; j < out.cols; ++j) {
    double need = 0.0;
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      const int row = a.row_index(k);
      if (a.value(k) < 0.0)
        need = std::max(need, (activity[static_cast<std::size_t>(row)] -
                               model.rhs()[static_cast<std::size_t>(row)]) /
                                  -a.value(k));
    }
    x[static_cast<std::size_t>(j)] = need;
  }
  double scale = 1.0;
  for (const double b : model.rhs()) scale = std::max(scale, std::abs(b));
  out.violation = model.max_violation(x) / scale;
  out.objective = model.objective_value(x);
  return out;
}

// Feasibility tolerance of the relative violation above: solver
// feasibility tolerance plus the 1e-7 units the plan drops when it turns
// the LP solution into assignment weights, summed over a row.
constexpr double kViolationTol = 1e-6;

// Plan-level checks shared by replan-rolling and assign-hot-path: the
// solve must be optimal on its first attempt, the returned plan feasible,
// and the rebuilt point's objective equal to the solver's. The solver's
// objective goes to run.py for the recorded-reference check.
void check_day_plan(Report& report, Layers& layers, const titannext::DayPlan& day,
                    const titannext::LpBuildOptions& options, const std::string& label) {
  const auto& result = day.plan.result();
  report.check(label + " optimal on first attempt", day.valid() && day.lp_attempts == 1,
               "status " + lp::status_name(result.status) + ", attempts " +
                   std::to_string(day.lp_attempts));
  if (!day.valid() || day.lp_attempts != 1) return;
  const PlanCheck pc = check_plan(*day.inputs, options, result);
  char detail[160];
  std::snprintf(detail, sizeof detail, "relative violation %.3g (tol %.0e)", pc.violation,
                kViolationTol);
  report.check(label + " feasible", pc.violation <= kViolationTol, detail);
  const double rel = std::abs(pc.objective - result.objective) /
                     std::max(1.0, std::abs(result.objective));
  std::snprintf(detail, sizeof detail, "plan objective %.9g vs solver %.9g", pc.objective,
                result.objective);
  report.check(label + " objective consistent", rel <= 1e-6, detail);
  report.objective(result.objective);
  layers["lp.rows"] = std::max(layers["lp.rows"], static_cast<double>(pc.rows));
  layers["lp.cols"] = std::max(layers["lp.cols"], static_cast<double>(pc.cols));
  layers["lp.nnz"] = std::max(layers["lp.nnz"], static_cast<double>(pc.nnz));
}

// --- plan inputs of one scope ------------------------------------------

// Everything TitanNextPipeline needs for one scenario's scope, built the
// way SimEngine builds it.
struct ScopeInputs {
  sim::Scenario scenario;
  std::unique_ptr<geo::World> world;
  std::unique_ptr<net::NetworkDb> db;
  sim::ScenarioWorkload workload;
  std::vector<std::vector<double>> combined;  // [config][history ++ eval slot]
  std::map<std::pair<int, int>, double> fractions;
};

// steady-week's Europe scope with two training weeks, so Holt-Winters has
// the two weekly seasons it needs from the first replan on.
sim::Scenario europe_scenario(int variant, bool tiny, int horizon, int max_configs,
                              int eval_slots) {
  sim::Scenario s = sim::steady_week();
  s.seed = kBaseSeed + static_cast<std::uint64_t>(variant);
  s.training_weeks = 2;
  s.eval_days = (eval_slots + core::kSlotsPerDay - 1) / core::kSlotsPerDay;
  s.peak_slot_calls = tiny ? 40.0 : 200.0;
  s.pipeline.scope.timeslots = horizon;
  s.pipeline.scope.max_reduced_configs = max_configs;
  if (tiny) s.pipeline.top_k_forecast = 20;
  return s;
}

ScopeInputs make_inputs(const sim::Scenario& scenario, Tracing& tr) {
  ScopeInputs e;
  e.scenario = scenario;
  {
    obs::Span span(tr.rec, "geo.world");
    e.world = std::make_unique<geo::World>(geo::World::make());
  }
  {
    obs::Span span(tr.rec, "workload.generate");
    e.workload = sim::build_workload(scenario, *e.world);
    // Forecast input, built the way the simulator builds it: active counts
    // of the history followed by the realized eval counts.
    e.combined = e.workload.history.config_active_counts();
    const auto eval = e.workload.eval.config_active_counts();
    e.combined.resize(eval.size(),
                      std::vector<double>(static_cast<std::size_t>(scenario.history_slots()), 0.0));
    for (std::size_t c = 0; c < eval.size(); ++c)
      e.combined[c].insert(e.combined[c].end(), eval[c].begin(), eval[c].end());
  }
  {
    obs::Span span(tr.rec, "net.db");
    e.db = std::make_unique<net::NetworkDb>(*e.world);
  }
  const auto& regions = scenario.pipeline.scope.regions;
  const auto scope_dcs = geo::dcs_in(*e.world, regions);
  for (const auto c : geo::countries_in(*e.world, regions)) {
    const double f = e.db->loss().internet_unusable(c) ? 0.0 : scenario.titan_fraction_cap;
    for (const auto d : scope_dcs) e.fractions[{c.value(), d.value()}] = f;
  }
  return e;
}

// Untimed probes, run outside every timed region and span after a
// plan_from_counts call: its steps the library does not time itself,
// repeated on the same inputs. Demand set-up and the plan's lookup index
// are timed; with a previous warm context, remap_basis is timed too, and
// whether it returns a seed is the replan's warm-seeded count (the same
// condition solve_plan seeds on).
void probe_plan(Layers& layers, const ScopeInputs& in,
                const std::vector<std::vector<double>>& counts, const titannext::DayPlan& day,
                const titannext::PlanBasisContext* previous, int shift_slots) {
  if (!day.valid()) return;
  const auto& options = in.scenario.pipeline;
  auto t0 = Clock::now();
  titannext::PlanInputs inputs(*in.db, options.scope, in.fractions);
  inputs.set_demand(in.workload.eval.configs(), counts, options.use_reduction);
  layers.add("titannext.set_demand_s", seconds_since(t0));
  titannext::LpPlanResult result = day.plan.result();
  t0 = Clock::now();
  const titannext::OfflinePlan index(day.inputs.get(), std::move(result));
  layers.add("titannext.plan_index_s", seconds_since(t0));
  if (previous == nullptr || !previous->valid()) return;
  t0 = Clock::now();
  const bool seeded =
      titannext::remap_basis(*previous, *day.inputs, options.lp, shift_slots).has_value();
  layers.add("titannext.remap_s", seconds_since(t0));
  layers.add("lp.warm_seeded", seeded ? 1 : 0);
}

// Untraced (`traced` null): runs `setup` `repeats` times, keeps the last
// result and reports the median time as setup_s. Traced: runs it once with
// spans on `traced`.
template <typename F>
auto set_up(Report& report, Tracing* traced, int repeats, F&& setup) {
  if (traced != nullptr) return setup(*traced);
  Tracing off;
  std::vector<double> times;
  decltype(setup(off)) value{};
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    value = setup(off);
    times.push_back(seconds_since(t0));
  }
  report.metric("setup_s", median(times), "s");
  return value;
}

// Set-up layer times from one traced set-up.
void report_setup_layers(Layers& layers, const Tracing& tr) {
  for (const auto& e : tr.rec->events()) {
    const double s = e.duration_us * 1e-6;
    if (e.name == "geo.world") layers["geo.world_s"] = s;
    if (e.name == "workload.generate") layers["workload.generate_s"] = s;
    if (e.name == "net.db") layers["net.db_s"] = s;
    if (e.name == "sim.construct") layers["sim.construct_s"] = s;
  }
}

// Both recorders of a traced run: one for the set-up, one for the timed
// region.
struct TracedRun {
  obs::TraceRecorder setup_rec, run_rec;
  Tracing setup{&setup_rec, {}};
  Tracing run{&run_rec, {}};
};

// --- closed-loop-week --------------------------------------------------

// Replans the schedule implies: one per replan interval plus one forced
// replan at every disturbance edge that fires inside the window.
int expected_replans(const sim::Scenario& s) {
  std::set<int> slots;
  for (int t = 0; t < s.eval_slots(); t += s.replan_interval_slots) slots.insert(t);
  for (const auto& d : s.disturbances) {
    if (d.kind == sim::NetworkEventKind::kForecastBias) continue;
    const int begin = d.day * core::kSlotsPerDay + d.slot_in_day;
    if (begin < s.eval_slots()) slots.insert(begin);
    if (d.duration_slots > 0 && begin + d.duration_slots < s.eval_slots())
      slots.insert(begin + d.duration_slots);
  }
  return static_cast<int>(slots.size());
}

// The decomposed plan path, checked through the public API: the week's
// first window, planned the way the engine's first replan plans it (cold,
// on a Holt-Winters forecast, over the whole multi-region scope, which
// kAuto splits into region blocks plus a coupling LP). The simulator keeps
// its own plans inside, so this is the closed loop's objective check.
void check_first_window(Report& report, Layers& layers, sim::Scenario s) {
  s.pipeline.scope.timeslots = std::max(s.pipeline.scope.timeslots, s.replan_interval_slots);
  Tracing off;
  const ScopeInputs in = make_inputs(s, off);
  const titannext::TitanNextPipeline pipeline(*in.db, in.fractions, s.pipeline);
  const auto fc = titannext::forecast_counts(in.combined, s.history_slots(),
                                             s.pipeline.scope.timeslots,
                                             s.pipeline.top_k_forecast);
  const auto day = pipeline.plan_from_counts(in.workload.eval, fc.counts, fc.seconds);
  report.attempted(1);
  check_day_plan(report, layers, day, s.pipeline.lp, "first-window plan");
  report.note("first_window", std::to_string(day.lp_blocks_solved) + " region blocks, " +
                                  std::to_string(day.lp_iterations) + " pivots");
}

void closed_loop_week(Report& report, int variant, bool tiny, double seconds, bool trace) {
  sim::Scenario s = sim::make_scenario("na-cut-shifts-to-eu");
  s.seed = kBaseSeed + static_cast<std::uint64_t>(variant);
  s.training_weeks = 1;
  s.peak_slot_calls = tiny ? 20.0 : 200.0;
  if (tiny) {
    s.eval_days = 3;  // still covers the Wednesday outage
    s.pipeline.scope.max_reduced_configs = 12;
  }
  TracedRun tr;
  Layers layers;
  auto engine = set_up(report, trace ? &tr.setup : nullptr, kSetupRepeats, [&](Tracing& t) {
    if (t.rec != nullptr) {
      // The set-up layers one by one (SimEngine's constructor runs them
      // again internally).
      geo::World world = [&] {
        obs::Span span(t.rec, "geo.world");
        return geo::World::make();
      }();
      {
        obs::Span span(t.rec, "workload.generate");
        (void)sim::build_workload(s, world);
      }
      obs::Span span(t.rec, "net.db");
      const net::NetworkDb db(world);
    }
    obs::Span span(t.rec, "sim.construct");
    return std::make_unique<sim::SimEngine>(s);
  });
  const auto trace_calls = static_cast<std::int64_t>(engine->eval_trace().calls().size());
  layers["workload.calls"] = static_cast<double>(trace_calls);
  layers["workload.configs"] = static_cast<double>(engine->eval_trace().configs().size());
  const int want_replans = expected_replans(s);
  check_first_window(report, layers, s);

  // The timed region: whole simulated weeks, repeated while another fits
  // in `budget` seconds.
  const auto run_weeks = [&](double budget, Tracing& t) {
    engine->set_trace(t.rec);
    std::vector<sim::SimResult> results;
    const auto t0 = Clock::now();
    do {
      obs::Span span(t.rec, "sim.run");
      results.push_back(engine->run(kSimThreads));
    } while (seconds_since(t0) + results.back().wall_seconds <= budget);
    engine->set_trace(nullptr);
    return std::make_pair(std::move(results), seconds_since(t0));
  };

  Tracing off;
  const auto [results, wall] = run_weeks(trace ? 0.0 : seconds, off);
  std::vector<double> week_ms;
  std::int64_t calls = 0;
  for (const auto& r : results) {
    calls += r.calls;
    week_ms.push_back(r.wall_seconds * 1e3);
    report.attempted(r.calls + r.replans);
    report.check("no leaked calls", r.leaked_calls == 0,
                 std::to_string(r.leaked_calls) + " leaked");
    report.check("calls match the trace", r.calls == trace_calls,
                 std::to_string(r.calls) + " simulated, trace has " + std::to_string(trace_calls));
    report.check("replans match the schedule", r.replans == want_replans,
                 std::to_string(r.replans) + " replans, schedule implies " +
                     std::to_string(want_replans));
    for (const auto& st : r.replan_stats)
      if (st.attempts != 1) report.failed(1);  // not optimal on the first attempt
  }
  const auto& r = results.front();
  report.note("sim_calls_per_s", json_number(static_cast<double>(calls) / wall));
  report.note("sims", std::to_string(results.size()) + " x " + std::to_string(r.calls) +
                          " calls, " + std::to_string(r.replans) + " replans each");
  char checksum[24];
  std::snprintf(checksum, sizeof checksum, "%016llx",
                static_cast<unsigned long long>(r.checksum));
  report.note("checksum", checksum);

  // Deterministic work counts of one simulated week. The engine does not
  // expose whether a replan was seeded, so lp.warm_seeded (and the
  // accepted fraction) stay 0 here; lp.warm_accepted is observed.
  for (const auto& st : r.replan_stats) {
    layers.add("lp.solves", st.attempts);
    layers.add("titannext.plan_attempts", st.attempts);
    layers.add("lp.pivots", st.iterations);
    layers.add("lp.phase1_pivots", st.phase1_iterations);
    layers.add("lp.dual_pivots", st.dual_iterations);
    layers.add("lp.refactorizations", st.refactorizations);
    layers.add("lp.warm_accepted", st.warm_started ? 1 : 0);
    layers.add("lp.pruned_columns", st.pruned_columns);
    layers.add("titannext.blocks_solved", st.blocks_solved);
  }
  layers["sim.calls"] = static_cast<double>(r.calls);
  layers["sim.replans"] = r.replans;
  layers["sim.events"] = static_cast<double>(r.perf.events_processed);
  layers["sim.forced_migrations"] = static_cast<double>(r.forced_migrations);
  layers["titannext.fallbacks"] = static_cast<double>(r.fallback_assignments);
  layers["titannext.out_of_plan"] = static_cast<double>(r.out_of_plan);
  layers["titannext.degraded"] = static_cast<double>(r.degraded_calls);
  layers["titannext.shed"] = static_cast<double>(r.rejected_calls);
  const double n = static_cast<double>(std::max<std::int64_t>(1, r.calls));
  layers["titannext.fallback_frac"] = layers["titannext.fallbacks"] / n;
  layers["titannext.out_of_plan_frac"] = layers["titannext.out_of_plan"] / n;

  if (!trace) {
    report.metric("throughput_per_s", static_cast<double>(calls) / wall, "1/s");
    report.metric("step_p50_ms", median(week_ms), "ms");
  } else {
    const auto [traced, traced_wall] = run_weeks(0.0, tr.run);
    const auto& t = traced.front();
    // The engine reports each replan's LP time; nest it inside the
    // engine's "replan" span so the titannext and lp self times separate.
    std::size_t i = 0;
    for (const auto& e : tr.run_rec.events())
      if (e.lane == 0 && e.name == "replan" && i < t.replan_stats.size()) {
        const double lp_us = t.replan_stats[i++].solve_seconds * 1e6;
        tr.run.reported.push_back(
            {"lp.solve", "reported", 0, e.start_us + e.duration_us - lp_us, lp_us});
      }
    layers["lp.busy_s"] = t.plan_seconds;
    layers["lp.phase1_s"] = t.perf.lp_phase1_seconds;
    layers["lp.phase2_s"] = t.perf.lp_phase2_seconds;
    layers["lp.refactor_s"] = t.perf.lp_refactor_seconds;
    layers["titannext.build_model_s"] = t.perf.lp_build_seconds;
    layers["forecast.busy_s"] = t.forecast_seconds;
    layers["sim.run_s"] = t.wall_seconds;
    layers["sim.replan_s"] = t.perf.replan_seconds;
    layers["sim.event_apply_s"] = t.perf.event_apply_seconds;
    layers["sim.metric_aggregation_s"] = t.perf.metric_aggregation_seconds;
    report_setup_layers(layers, tr.setup);
    finish_layers(layers, {&tr.setup, &tr.run}, wall / static_cast<double>(results.size()),
                  traced_wall / static_cast<double>(traced.size()));
    layers.emit_measured(report);
  }
  layers.emit_counts(report);
}

// --- replan-rolling ----------------------------------------------------

struct RollingConfig {
  int traces, replans, first_slot, horizon, max_configs;
};

// Sixteen traces of four timed replans. LP work per replan swings with each
// trace's forecasts, and averaging over many traces keeps a run's figures
// steady from seed to seed. Trace i starts at first_slot + (i % kDayParts)
// * replans, so the run covers 06:00-14:00 four times over.
constexpr int kDayParts = 4;

RollingConfig rolling_config(bool tiny) {
  return tiny ? RollingConfig{2, 4, 16, 8, 10} : RollingConfig{16, 4, 12, 48, 20};
}

int first_slot_of(const RollingConfig& cfg, int trace) {
  return cfg.first_slot + (trace % kDayParts) * cfg.replans;
}

// One rolling sequence: a cold priming replan that fills the warm cache
// (untimed: production's loop pays it once per process), then
// `cfg.replans` timed replans, one per 30-minute slot, each on fresh
// Holt-Winters forecasts, through one WarmStartCache and one controller
// rebound to every new plan. Each replan is the library's
// TitanNextPipeline::plan_from_counts, in traced and untraced runs alike.
// Returns the timed replans' seconds.
std::vector<double> rolling_sequence(const ScopeInputs& in, const RollingConfig& cfg,
                                     int first_slot, const std::string& label, Report* check,
                                     Layers& timed_layers, Tracing& traced) {
  const auto& options = in.scenario.pipeline;
  const titannext::TitanNextPipeline pipeline(*in.db, in.fractions, options);
  titannext::WarmStartCache cache;
  titannext::DayPlan current;
  titannext::OfflinePlan live;  // the controller's plan copy (credit state)
  std::unique_ptr<titannext::OnlineController> controller;
  std::vector<double> times;
  // The untimed priming replan stays out of the layer totals and spans.
  Layers priming;
  Tracing untraced;
  for (int k = 0; k <= cfg.replans; ++k) {
    Layers& layers = k == 0 ? priming : timed_layers;
    Tracing& tr = k == 0 ? untraced : traced;
    const int slot = first_slot + k;
    // The context this replan's solve is seeded from, for the probe below.
    const titannext::PlanBasisContext previous = cache.last;
    const auto t0 = Clock::now();
    titannext::ForecastOutput fc;
    {
      obs::Span span(tr.rec, "forecast.counts");
      fc = titannext::forecast_counts(in.combined, in.scenario.history_slots() + slot,
                                      cfg.horizon, options.top_k_forecast);
    }
    cache.next_plan_begin = slot;
    titannext::DayPlan day;
    {
      obs::Span span(tr.rec, "titannext.plan_from_counts");
      day = pipeline.plan_from_counts(in.workload.eval, fc.counts, fc.seconds, &cache);
      report_plan_spans(tr, day);
    }
    {
      obs::Span span(tr.rec, "titannext.rebind");
      titannext::OfflinePlan fresh = day.plan;
      fresh.carry_credits_from(live);
      live = std::move(fresh);
      if (controller == nullptr)
        controller = std::make_unique<titannext::OnlineController>(*day.inputs, live);
      else
        controller->rebind(*day.inputs, live);
    }
    if (k > 0) times.push_back(seconds_since(t0));
    add_plan_stats(layers, day);
    probe_plan(layers, in, fc.counts, day, &previous, slot - previous.plan_begin);
    layers.add("forecast.calls", 1);
    layers.add("forecast.hw_configs", fc.hw_configs);
    layers.add("forecast.busy_s", fc.seconds);
    if (check != nullptr) {
      check->attempted(1);
      check_day_plan(*check, layers, day, options.lp, label + " replan " + std::to_string(k));
    }
    current = std::move(day);  // frees the previous generation's inputs
  }
  return times;
}

void replan_rolling(Report& report, int variant, bool tiny, double seconds, bool trace) {
  const RollingConfig cfg = rolling_config(tiny);
  // Trace i of a variant comes from workload seed kBaseSeed + variant *
  // traces + i. A trace's last replan forecasts from every slot before its
  // first slot + replans.
  const auto scenario_of = [&](int i) {
    return europe_scenario(variant * cfg.traces + i, tiny, cfg.horizon, cfg.max_configs,
                           first_slot_of(cfg, i) + cfg.replans);
  };
  TracedRun tr;
  Layers layers;
  // setup_s is one trace's set-up; the other traces are set up the same
  // way, untimed, just before their sequence (one trace in memory at once).
  auto first = set_up(report, trace ? &tr.setup : nullptr, kSetupRepeats, [&](Tracing& t) {
    return std::make_shared<ScopeInputs>(make_inputs(scenario_of(0), t));
  });
  Tracing off;
  // One batch: a rolling sequence per trace, each from a cold cache.
  // Returns the batch's summed replan seconds and appends each replan's.
  const auto batch = [&](Report* check, Layers& into, Tracing& t, std::vector<double>& times) {
    double total = 0.0;
    for (int i = 0; i < cfg.traces; ++i) {
      const auto in = i == 0 && first ? first
                                      : std::make_shared<ScopeInputs>(make_inputs(scenario_of(i), off));
      first.reset();
      if (check != nullptr) {
        into.add("workload.calls", static_cast<double>(in->workload.eval.calls().size()));
        into.add("workload.configs", static_cast<double>(in->workload.eval.configs().size()));
      }
      const auto seq = rolling_sequence(*in, cfg, first_slot_of(cfg, i),
                                        "trace " + std::to_string(i), check, into, t);
      times.insert(times.end(), seq.begin(), seq.end());
      for (const double s : seq) total += s;
    }
    return total;
  };

  // Whole batches, repeated while another fits in the time budget; the
  // first is checked and counted (every batch is the same deterministic
  // work).
  std::vector<double> times;
  double total = 0.0;
  int batches = 0;
  const auto t0 = Clock::now();
  do {
    Layers scratch;
    total += batch(batches == 0 ? &report : nullptr, batches == 0 ? layers : scratch, off, times);
    ++batches;
  } while (!trace && seconds_since(t0) * (batches + 1) / batches <= seconds);
  total /= batches;
  const int replans = cfg.traces * cfg.replans;
  report.note("replan_p50_s", json_number(median(times)));
  report.note("replan_total_s", json_number(total));
  report.note("replan_samples", std::to_string(times.size()) + " (" + std::to_string(batches) +
                                    " x " + std::to_string(cfg.traces) + " traces x " +
                                    std::to_string(cfg.replans) + " replans)");

  if (!trace) {
    report.metric("throughput_per_s", replans / total, "1/s");
    report.metric("step_p50_ms", median(times) * 1e3, "ms");
  } else {
    Layers traced;
    std::vector<double> traced_times;
    const double traced_total = batch(nullptr, traced, tr.run, traced_times);
    // Wall-clock splits come from the traced batch; counts stay those of
    // the checked untraced one (the same deterministic work).
    for (const char* name :
         {"lp.busy_s", "lp.phase1_s", "lp.phase2_s", "lp.refactor_s", "titannext.remap_s",
          "titannext.build_model_s", "titannext.set_demand_s", "titannext.plan_index_s",
          "forecast.busy_s"})
      layers[name] = traced[name];
    for (const auto& e : tr.run_rec.events())
      if (e.name == "titannext.rebind") layers.add("titannext.rebind_s", e.duration_us * 1e-6);
    report_setup_layers(layers, tr.setup);
    finish_layers(layers, {&tr.setup, &tr.run}, total, traced_total);
    layers.emit_measured(report);
  }
  layers.emit_counts(report);
}

// --- assign-hot-path ---------------------------------------------------

struct HotPath {
  std::shared_ptr<ScopeInputs> in;
  titannext::DayPlan day;
  std::vector<std::vector<double>> counts;  // the forecast the plan was solved for
  int hw_configs = 0;
};

struct Op {
  std::uint32_t call = 0;  // index into the eval trace
  bool converge = false;
};

// Controller outcome counts of one pass (deterministic).
struct Outcomes {
  std::int64_t ops = 0, admits = 0, assigns = 0, converges = 0;
  std::int64_t fallbacks = 0, out_of_plan = 0, degraded = 0, shed = 0, invalid = 0;
  bool operator==(const Outcomes&) const = default;
};

// Per-op latency samples of the open-loop pass, in microseconds from each
// op's due time (assign_initial's includes the admit issued before it).
struct Latencies {
  std::vector<double> admit, assign, converge;
};

class HotPathLoop {
 public:
  HotPathLoop(const HotPath& hp, std::uint64_t seed)
      : hp_(hp),
        calls_(hp.in->workload.eval.calls()),
        rng_(core::hash_key(seed, 0xA551, 0)),
        pending_(calls_.size()) {
    titannext::ControllerOptions opts;
    opts.admission.enabled = true;
    opts.admission.seed = seed;
    controller_ =
        std::make_unique<titannext::OnlineController>(*hp.day.inputs, hp.day.plan, opts);
    // Offered load past the reject threshold: survivors of the shed coin
    // are degraded, so the admit, degrade and shed branches all run.
    std::vector<double> load(geo::kNumContinents, 0.0);
    load[static_cast<std::size_t>(geo::Continent::kEurope)] = 1.25;
    controller_->set_admission_state(load);
    // One pass: every call arriving inside the plan horizon, in trace
    // order; each converges kConvergeDepth arrivals later.
    std::deque<std::uint32_t> in_flight;
    for (std::uint32_t i = 0; i < calls_.size(); ++i) {
      if (calls_[i].start_slot >= hp.day.inputs->scope().timeslots) continue;
      if (in_flight.size() >= kConvergeDepth) {
        ops_.push_back({in_flight.front(), true});
        in_flight.pop_front();
      }
      ops_.push_back({i, false});
      in_flight.push_back(i);
    }
    for (const auto i : in_flight) ops_.push_back({i, true});
  }

  [[nodiscard]] const std::vector<Op>& ops() const { return ops_; }

  // Executes one op (an arrival is admit + assign_initial) and returns the
  // controller calls it made. With `lat`, each call's latency from `due`
  // is recorded.
  int run(const Op& op, Outcomes& out, Latencies* lat = nullptr, Clock::time_point due = {}) {
    const auto& call = calls_[op.call];
    const auto& config = hp_.in->workload.eval.configs().get(call.config);
    const auto t = call.start_slot;
    const auto record = [&](std::vector<double> Latencies::*samples) {
      if (lat != nullptr)
        (lat->*samples)
            .push_back(std::chrono::duration<double, std::micro>(Clock::now() - due).count());
    };
    auto& p = pending_[op.call];
    if (op.converge) {
      if (!p.admitted) return 0;  // shed at arrival: nothing to converge
      workload::CallConfig effective = config;
      effective.media = media::step_down(config.media, p.initial.degrade_steps);
      const auto conv = controller_->converge(p.initial, effective, t, rng_);
      record(&Latencies::converge);
      ++out.converges;
      if (conv.out_of_plan) ++out.out_of_plan;
      if (!conv.final_assignment.valid()) ++out.invalid;
      return 1;
    }
    const auto region = hp_.in->world->country(call.first_joiner).continent;
    const auto verdict = controller_->admit(region, call.id, config.media);
    record(&Latencies::admit);
    ++out.admits;
    p.admitted = verdict.admit;
    if (!verdict.admit) {
      ++out.shed;
      return 1;
    }
    if (verdict.degrade_steps > 0) ++out.degraded;
    p.initial = controller_->assign_initial(
        call.first_joiner, media::step_down(config.media, verdict.degrade_steps), t, rng_);
    record(&Latencies::assign);
    p.initial.degrade_steps = verdict.degrade_steps;
    ++out.assigns;
    if (!p.initial.from_plan) ++out.fallbacks;
    if (!p.initial.assignment.valid()) ++out.invalid;
    return 2;
  }

  Outcomes pass() {
    Outcomes out;
    for (const auto& op : ops_) out.ops += run(op, out);
    return out;
  }

 private:
  struct Pending {
    titannext::InitialAssignment initial;
    bool admitted = false;
  };
  const HotPath& hp_;
  const std::vector<workload::CallRecord>& calls_;
  core::Rng rng_;
  std::unique_ptr<titannext::OnlineController> controller_;
  std::vector<Pending> pending_;
  std::vector<Op> ops_;
};

void gate_outcomes(Report& report, const std::string& prefix, const Outcomes& o) {
  report.gated(prefix + ".fallbacks", o.fallbacks);
  report.gated(prefix + ".out_of_plan", o.out_of_plan);
  report.gated(prefix + ".degraded", o.degraded);
  report.gated(prefix + ".shed", o.shed);
  report.gated(prefix + ".ops", o.ops);
}

void assign_hot_path(Report& report, int variant, bool tiny, double seconds, bool trace) {
  // Half-day horizon: the lookup shape bench_assign_latency measures.
  const int horizon = tiny ? 8 : core::kSlotsPerDay / 2;
  const sim::Scenario s = europe_scenario(variant, tiny, horizon, tiny ? 10 : 40, horizon);
  TracedRun tr;
  Layers layers;
  const auto hp = set_up(report, trace ? &tr.setup : nullptr, kPlanSetupRepeats, [&](Tracing& t) {
    auto out = std::make_shared<HotPath>();
    out->in = std::make_shared<ScopeInputs>(make_inputs(s, t));
    const titannext::TitanNextPipeline pipeline(*out->in->db, out->in->fractions, s.pipeline);
    titannext::ForecastOutput fc;
    {
      obs::Span span(t.rec, "forecast.counts");
      fc = titannext::forecast_counts(out->in->combined, s.history_slots(), horizon,
                                      s.pipeline.top_k_forecast);
    }
    out->hw_configs = fc.hw_configs;
    obs::Span span(t.rec, "titannext.plan_from_counts");
    out->day = pipeline.plan_from_counts(out->in->workload.eval, fc.counts, fc.seconds);
    report_plan_spans(t, out->day);
    out->counts = std::move(fc.counts);
    return out;
  });
  report.attempted(1);
  check_day_plan(report, layers, hp->day, s.pipeline.lp, "set-up plan");
  if (!hp->day.valid()) return;
  add_plan_stats(layers, hp->day);
  probe_plan(layers, *hp->in, hp->counts, hp->day, nullptr, 0);
  layers["forecast.calls"] = 1;
  layers["forecast.hw_configs"] = hp->hw_configs;
  layers["forecast.busy_s"] = hp->day.forecast_seconds;
  layers["workload.calls"] = static_cast<double>(hp->in->workload.eval.calls().size());
  layers["workload.configs"] = static_cast<double>(hp->in->workload.eval.configs().size());

  HotPathLoop loop(*hp, s.seed);
  // Warm-up pass (untimed): fills the controller's recently-used-config
  // memory and the plan's credit rows. Its counts, and those of every
  // timed pass, are exact.
  const Outcomes first = loop.pass();
  gate_outcomes(report, "first_pass", first);
  // Closed loop, one caller: back-to-back passes until `budget` runs out.
  // Returns one pass's outcomes (every pass must repeat them) and appends
  // each pass's milliseconds.
  const auto timed_passes = [&](double budget, Tracing& t, std::vector<double>& pass_ms) {
    Outcomes steady;
    const auto t0 = Clock::now();
    do {
      const auto p0 = Clock::now();
      Outcomes o;
      {
        obs::Span span(t.rec, "titannext.controller_pass");
        o = loop.pass();
      }
      pass_ms.push_back(seconds_since(p0) * 1e3);
      if (pass_ms.size() == 1) steady = o;
      else if (!(o == steady)) report.check("timed passes repeat", false, "pass counts differ");
      report.attempted(o.ops);
      report.failed(o.invalid);
    } while (seconds_since(t0) < budget);
    return steady;
  };
  std::vector<double> pass_ms;
  Tracing off;
  const Outcomes steady = timed_passes(trace ? seconds / 3.0 : seconds, off, pass_ms);
  // Throughput of the median pass, which bursts of contention on a shared
  // machine move less than the total wall or a low quantile.
  const double pass_p50_ms = median(pass_ms);
  const double ops_per_s = static_cast<double>(steady.ops) / (pass_p50_ms * 1e-3);
  gate_outcomes(report, "pass", steady);
  report.check("no invalid assignments", first.invalid == 0 && steady.invalid == 0,
               std::to_string(steady.invalid) + " invalid per pass");
  report.note("assign_ops_per_s", json_number(ops_per_s));
  report.note("passes", std::to_string(pass_ms.size()) + " timed passes of " +
                            std::to_string(steady.ops) + " ops");
  layers["titannext.ops"] = static_cast<double>(steady.ops);
  layers["titannext.fallbacks"] = static_cast<double>(steady.fallbacks);
  layers["titannext.out_of_plan"] = static_cast<double>(steady.out_of_plan);
  layers["titannext.degraded"] = static_cast<double>(steady.degraded);
  layers["titannext.shed"] = static_cast<double>(steady.shed);
  const auto frac = [](std::int64_t part, std::int64_t whole) {
    return static_cast<double>(part) / static_cast<double>(std::max<std::int64_t>(1, whole));
  };
  layers["titannext.fallback_frac"] = frac(steady.fallbacks, steady.assigns);
  layers["titannext.out_of_plan_frac"] = frac(steady.out_of_plan, steady.converges);
  layers["titannext.degrade_frac"] = frac(steady.degraded, steady.admits);
  layers["titannext.shed_frac"] = frac(steady.shed, steady.admits);

  if (!trace) {
    report.metric("throughput_per_s", ops_per_s, "1/s");
    report.metric("step_p50_ms", pass_p50_ms, "ms");
  } else {
    std::vector<double> traced_ms;
    timed_passes(seconds / 3.0, tr.run, traced_ms);
    // Open loop: ops issued on a fixed schedule at kOpenLoopRate whatever
    // the controller's pace, each timed from its due time.
    Latencies lat;
    Outcomes open;
    std::int64_t late = 0;
    const auto& stream = loop.ops();
    const auto n = static_cast<std::size_t>(kOpenLoopRate * seconds / 3.0);
    lat.admit.reserve(n);
    lat.assign.reserve(n);
    lat.converge.reserve(n);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(static_cast<double>(i) /
                                                                 kOpenLoopRate));
      auto now = Clock::now();
      while (now < due) now = Clock::now();
      if (now - due > std::chrono::milliseconds(1)) ++late;
      loop.run(stream[i % stream.size()], open, &lat, due);
    }
    layers["titannext.admit_p50_us"] = quantile(lat.admit, 0.50);
    layers["titannext.admit_p99_us"] = quantile(lat.admit, 0.99);
    layers["titannext.assign_initial_p50_us"] = quantile(lat.assign, 0.50);
    layers["titannext.assign_initial_p99_us"] = quantile(lat.assign, 0.99);
    layers["titannext.converge_p50_us"] = quantile(lat.converge, 0.50);
    layers["titannext.converge_p99_us"] = quantile(lat.converge, 0.99);
    layers["titannext.admit_samples"] = static_cast<double>(lat.admit.size());
    layers["titannext.assign_initial_samples"] = static_cast<double>(lat.assign.size());
    layers["titannext.converge_samples"] = static_cast<double>(lat.converge.size());
    layers["titannext.late_ops"] = static_cast<double>(late);
    report.note("open_loop", json_number(kOpenLoopRate) + " ops/s, " + std::to_string(n) +
                                 " ops, " + std::to_string(late) + " issued >1 ms late");
    report_setup_layers(layers, tr.setup);
    // Overhead on equal work: one pass, untraced and traced.
    finish_layers(layers, {&tr.setup, &tr.run}, pass_p50_ms * 1e-3, median(traced_ms) * 1e-3);
    layers.emit_measured(report);
  }
  layers.emit_counts(report);
}

struct Args {
  std::string workload;
  int variant = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--variant") a.variant = std::stoi(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--size") a.tiny = value == "tiny";
    else throw std::invalid_argument("unknown argument " + key);
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    Report report;
    if (a.workload == "closed-loop-week")
      closed_loop_week(report, a.variant, a.tiny, a.seconds, a.trace);
    else if (a.workload == "replan-rolling")
      replan_rolling(report, a.variant, a.tiny, a.seconds, a.trace);
    else if (a.workload == "assign-hot-path")
      assign_hot_path(report, a.variant, a.tiny, a.seconds, a.trace);
    else
      throw std::invalid_argument("unknown workload '" + a.workload + "'");
    if (!a.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("%s\n", report.json(a.workload, a.variant, a.tiny ? "tiny" : "full", a.trace)
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "titan_perfbench: %s\n", e.what());
    return 2;
  }
}
