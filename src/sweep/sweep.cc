#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/rng.h"
#include "core/stats.h"

namespace titan::sweep {

const std::vector<std::string>& metric_names() {
  static const std::vector<std::string> names = {
      "calls",
      "replans",
      "dc_migrations",
      "migration_rate",
      "route_changes",
      "forced_migrations",
      "transit_failovers",
      "out_of_plan",
      "out_of_plan_rate",
      "fallback_assignments",
      "leaked_calls",
      "internet_share",
      "mean_mos",
      "wan_sum_of_peaks_mbps",
      "wan_worst_day_mbps",
      "wan_total_traffic_gb",
      // Per-region slices for the three planning regions (schema v2):
      // arrivals by the first joiner's continent, WAN GB by the serving
      // DC's continent. Out-of-scope regions report 0.
      "calls_na",
      "calls_eu",
      "calls_asia",
      "wan_gb_na",
      "wan_gb_eu",
      "wan_gb_asia",
      // Replan-latency surface of the warm-start loop (schema v3). The
      // iteration counts are deterministic; plan_solve_seconds is the one
      // wall-clock metric in the schema — reported for observability, and
      // exempted from baseline comparison (infinite tolerance), since
      // timings are machine-dependent.
      "replan_iterations",
      "replan_phase1_iterations",
      "warm_replans",
      "plan_solve_seconds",
      // Region blocks solved by the decomposed path across all replans
      // (schema v4). Deterministic.
      "replan_blocks_solved",
      // Overload regime (schema v5): admission-control sheds and media
      // step-downs, plus the realized per-region shed fraction (rejected /
      // offered arrivals) for the three planning regions. All zero outside
      // the overload scenarios.
      "rejected_calls",
      "degraded_calls",
      "shed_fraction_na",
      "shed_fraction_eu",
      "shed_fraction_asia",
  };
  return names;
}

std::vector<double> metric_values(const sim::SimResult& r) {
  double worst_day = 0.0;
  for (const double d : r.wan.per_day_sum_of_peaks_mbps) worst_day = std::max(worst_day, d);
  std::int64_t replan_iterations = 0, replan_phase1 = 0, warm_replans = 0;
  std::int64_t replan_blocks = 0;
  for (const auto& stat : r.replan_stats) {
    replan_iterations += stat.iterations;
    replan_phase1 += stat.phase1_iterations;
    warm_replans += stat.warm_started ? 1 : 0;
    replan_blocks += stat.blocks_solved;
  }
  return {
      static_cast<double>(r.calls),
      static_cast<double>(r.replans),
      static_cast<double>(r.dc_migrations),
      r.migration_rate(),
      static_cast<double>(r.route_changes),
      static_cast<double>(r.forced_migrations),
      static_cast<double>(r.transit_failovers),
      static_cast<double>(r.out_of_plan),
      r.out_of_plan_rate(),
      static_cast<double>(r.fallback_assignments),
      static_cast<double>(r.leaked_calls),
      r.internet_share,
      r.mean_mos,
      r.wan.sum_of_peaks_mbps,
      worst_day,
      r.wan.total_traffic_gb,
      static_cast<double>(
          r.calls_by_region[static_cast<std::size_t>(geo::Continent::kNorthAmerica)]),
      static_cast<double>(r.calls_by_region[static_cast<std::size_t>(geo::Continent::kEurope)]),
      static_cast<double>(r.calls_by_region[static_cast<std::size_t>(geo::Continent::kAsia)]),
      r.wan_gb_by_region[static_cast<std::size_t>(geo::Continent::kNorthAmerica)],
      r.wan_gb_by_region[static_cast<std::size_t>(geo::Continent::kEurope)],
      r.wan_gb_by_region[static_cast<std::size_t>(geo::Continent::kAsia)],
      static_cast<double>(replan_iterations),
      static_cast<double>(replan_phase1),
      static_cast<double>(warm_replans),
      r.plan_seconds,
      static_cast<double>(replan_blocks),
      static_cast<double>(r.rejected_calls),
      static_cast<double>(r.degraded_calls),
      r.shed_fraction(geo::Continent::kNorthAmerica),
      r.shed_fraction(geo::Continent::kEurope),
      r.shed_fraction(geo::Continent::kAsia),
  };
}

const std::vector<std::size_t>& timing_metric_indices() {
  static const std::vector<std::size_t> indices = [] {
    std::vector<std::size_t> out;
    const auto& names = metric_names();
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == "plan_solve_seconds") out.push_back(i);
    return out;
  }();
  return indices;
}

void mask_timing_metrics(SweepResult& result) {
  for (auto& run : result.runs)
    for (const std::size_t m : timing_metric_indices())
      if (m < run.values.size()) run.values[m] = 0.0;
  for (auto& agg : result.aggregates)
    for (const std::size_t m : timing_metric_indices())
      if (m < agg.stats.size()) agg.stats[m] = MetricStats{};
  std::fill(result.task_seconds.begin(), result.task_seconds.end(), 0.0);
}

MetricStats compute_stats(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("compute_stats: empty sample");
  MetricStats s;
  s.count = samples.size();
  s.mean = core::mean(samples);
  const auto qs = core::quantiles(samples, {0.5, 0.95});
  s.p50 = qs[0];
  s.p95 = qs[1];
  s.min = *std::min_element(samples.begin(), samples.end());
  s.max = *std::max_element(samples.begin(), samples.end());
  s.stddev = core::stddev(samples);
  return s;
}

sim::Scenario sweep_scenario(const SweepSpec& spec, const std::string& name,
                             std::uint64_t seed) {
  sim::Scenario s = sim::make_scenario(name);
  s.seed = seed;
  if (spec.peak_slot_calls > 0.0) s.peak_slot_calls = spec.peak_slot_calls;
  if (spec.training_weeks > 0) s.training_weeks = spec.training_weeks;
  if (spec.eval_days > 0) s.eval_days = spec.eval_days;
  if (spec.replan_interval_slots > 0) {
    s.replan_interval_slots = spec.replan_interval_slots;
    s.pipeline.scope.timeslots = spec.replan_interval_slots;
  }
  if (spec.shards > 0) s.shards = spec.shards;
  // A cap, not a replacement: scenarios whose own default is already
  // tighter (the multi-region scopes trade LP size for DC count) keep it.
  if (spec.max_reduced_configs > 0)
    s.pipeline.scope.max_reduced_configs =
        std::min(s.pipeline.scope.max_reduced_configs, spec.max_reduced_configs);
  if (spec.oracle_counts) s.oracle_counts = true;
  return s;
}

SweepSpec validate_sweep_spec(SweepSpec spec) {
  if (spec.scenarios.empty()) spec.scenarios = sim::scenario_names();
  const auto& known = sim::scenario_names();
  for (const auto& name : spec.scenarios)
    if (std::find(known.begin(), known.end(), name) == known.end())
      throw std::invalid_argument("unknown scenario: " + name);
  if (spec.num_seeds < 1) throw std::invalid_argument("sweep needs num_seeds >= 1");
  if (spec.sim_threads.empty()) throw std::invalid_argument("sweep needs sim_threads");
  for (const int t : spec.sim_threads)
    if (t < 1) throw std::invalid_argument("sim_threads entries must be >= 1");
  return spec;
}

SweepTaskResult run_sweep_task(const SweepSpec& spec, const std::string& scenario,
                               std::uint64_t seed) {
  const auto task_start = std::chrono::steady_clock::now();
  sim::SimEngine engine(sweep_scenario(spec, scenario, seed));

  SweepTaskResult task;
  const std::size_t variants = spec.sim_threads.size();
  task.records.resize(variants);
  std::vector<sim::SimResult> sims;
  sims.reserve(variants);
  for (std::size_t v = 0; v < variants; ++v) {
    sims.push_back(engine.run(spec.sim_threads[v]));
    sim::SimResult& r = sims.back();
    RunRecord& record = task.records[v];
    record.scenario = scenario;
    record.seed = seed;
    record.threads = spec.sim_threads[v];
    record.checksum = r.checksum;
    record.values = metric_values(r);
    // Mask the wall-clock fields in place (the record has already captured
    // everything it needs): what remains must be bit-identical across
    // thread counts.
    r.zero_wallclock();
  }
  // The engine's core promise: thread count changes nothing. Compare the
  // full SimResult (streams included) bit-for-bit.
  for (std::size_t v = 1; v < variants; ++v) {
    if (!(sims[0] == sims[v])) {
      task.determinism_violations.push_back(
          scenario + " seed " + std::to_string(seed) + ": threads " +
          std::to_string(spec.sim_threads[0]) + " vs " +
          std::to_string(spec.sim_threads[v]) + " diverged");
    }
  }
  task.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - task_start).count();
  return task;
}

SweepResult assemble_sweep_result(const SweepSpec& spec, std::vector<RunRecord> runs,
                                  std::vector<std::string> determinism_violations,
                                  std::vector<double> task_seconds) {
  SweepResult result;
  result.spec = spec;
  // The result's spec echo describes *what* was swept, never how it was
  // scheduled: normalize the execution knobs so equality (and baseline
  // comparison) across differently-scheduled sweeps holds, matching the
  // serialized form, which omits them.
  result.spec.workers = 0;
  result.spec.task_order_seed = 0;
  result.runs = std::move(runs);
  result.task_seconds = std::move(task_seconds);
  // Violations arrive in completion order; canonicalize.
  std::sort(determinism_violations.begin(), determinism_violations.end());
  result.determinism_violations = std::move(determinism_violations);

  // Aggregate across seeds, per scenario, from the first-variant runs.
  const std::size_t seeds = static_cast<std::size_t>(spec.num_seeds);
  const std::size_t variants = spec.sim_threads.size();
  result.aggregates.reserve(spec.scenarios.size());
  for (std::size_t sc = 0; sc < spec.scenarios.size(); ++sc) {
    ScenarioAggregate agg;
    agg.scenario = spec.scenarios[sc];
    agg.seeds = spec.num_seeds;
    for (std::size_t m = 0; m < metric_names().size(); ++m) {
      std::vector<double> samples;
      samples.reserve(seeds);
      for (std::size_t sd = 0; sd < seeds; ++sd)
        samples.push_back(result.runs[(sc * seeds + sd) * variants].values[m]);
      agg.stats.push_back(compute_stats(samples));
    }
    result.aggregates.push_back(std::move(agg));
  }
  return result;
}

SweepRunner::SweepRunner(SweepSpec spec) : spec_(validate_sweep_spec(std::move(spec))) {}

SweepResult SweepRunner::run() const {
  const std::size_t num_scenarios = spec_.scenarios.size();
  const std::size_t seeds = static_cast<std::size_t>(spec_.num_seeds);
  const std::size_t variants = spec_.sim_threads.size();

  // One task per (scenario, seed): the task builds the engine once and runs
  // it at every requested thread count, writing each record into its
  // canonical slot — execution order can never reorder the output.
  struct Task {
    std::size_t scenario_index;
    std::size_t seed_index;
  };
  std::vector<Task> tasks;
  tasks.reserve(num_scenarios * seeds);
  for (std::size_t sc = 0; sc < num_scenarios; ++sc)
    for (std::size_t sd = 0; sd < seeds; ++sd) tasks.push_back({sc, sd});
  if (spec_.task_order_seed != 0) {
    core::Rng rng(spec_.task_order_seed);
    for (std::size_t i = tasks.size(); i > 1; --i)
      std::swap(tasks[i - 1],
                tasks[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }

  std::vector<RunRecord> runs(tasks.size() * variants);
  std::vector<double> task_seconds(tasks.size(), 0.0);
  std::vector<std::string> violations;
  std::mutex violations_mu;

  std::exception_ptr first_error;
  std::mutex error_mu;
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < tasks.size(); i = next.fetch_add(1)) {
      try {
        const Task& task = tasks[i];
        const std::string& name = spec_.scenarios[task.scenario_index];
        const std::uint64_t seed = spec_.base_seed + task.seed_index;
        SweepTaskResult done = run_sweep_task(spec_, name, seed);

        // Canonical slots: workers never race here because each task index
        // is claimed by exactly one worker.
        const std::size_t base =
            (task.scenario_index * seeds + task.seed_index) * variants;
        for (std::size_t v = 0; v < variants; ++v)
          runs[base + v] = std::move(done.records[v]);
        task_seconds[task.scenario_index * seeds + task.seed_index] = done.seconds;
        if (!done.determinism_violations.empty()) {
          std::lock_guard<std::mutex> lock(violations_mu);
          for (auto& violation : done.determinism_violations)
            violations.push_back(std::move(violation));
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  int workers = spec_.workers;
  if (workers <= 0) workers = static_cast<int>(std::thread::hardware_concurrency());
  workers = std::max(1, std::min<int>(workers, static_cast<int>(tasks.size())));
  if (workers == 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(work);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  return assemble_sweep_result(spec_, std::move(runs), std::move(violations),
                               std::move(task_seconds));
}

}  // namespace titan::sweep
