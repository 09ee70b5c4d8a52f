// Performance-trajectory report: the JSON schema behind
// `bench_sim_scenarios --perf-json` and the committed
// bench/baselines/BENCH_sim_throughput.json baseline.
//
// The report captures, per scenario, the run's throughput (calls/sec,
// events/sec over the wall clock), the controller's per-call
// assignment-latency distribution (p50/p90/p99/max from the
// obs::Histogram), the engine's phase-timing totals, and a small block of
// *deterministic* companions (calls, events, replans, simplex iterations,
// LU refactorizations and kernel work) that anchor cross-machine
// comparisons: when the deterministic block differs, the workload or the
// pivot path changed and throughput deltas are not comparable.
//
// The wall-clock diff against a committed baseline is informational by
// design — wall clock varies across machines and CI hosts — so
// perf_diff_text never influences an exit code; it exists to make the
// performance trajectory *visible* in every CI run. The deterministic
// blocks are gated exactly by perf_deterministic_check
// (docs/observability.md).
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/engine.h"
#include "sweep/dispatch.h"
#include "sweep/json.h"

namespace titan::sweep {

// Bumped when the report layout changes shape (field renames/removals);
// additive fields do not bump it.
inline constexpr int kPerfSchemaVersion = 1;

// One scenario entry of the "scenarios" array: throughput, latency
// quantiles, phase totals, and the deterministic anchors.
[[nodiscard]] Json perf_scenario_json(const sim::SimResult& r);

// The full report: {"schema_version", "config": {...}, "scenarios": [...]}.
// `config` echoes the workload knobs the runs used (peak, weeks, threads,
// seed) so a baseline diff can refuse apples-to-oranges comparisons.
[[nodiscard]] Json perf_report_json(const std::vector<sim::SimResult>& results,
                                    double peak_slot_calls, int weeks, int threads,
                                    std::uint64_t seed);

// Generic registry export: {"counters": {...}, "gauges": {...},
// "histograms": {name: {count, sum, mean, min, max, p50, p90, p99,
// buckets: [[lower, upper, count], ...nonzero only]}}}. Deterministic in
// the registry contents (maps iterate name-sorted).
[[nodiscard]] Json registry_json(const obs::Registry& registry);

// Per-worker timing artifact of a distributed sweep (`bench_sim_sweep
// --workers-proc N --perf-json PATH`): {"schema_version", "dispatch":
// {"workers", "retries", "seconds", "worker_stats": [{"worker",
// "tasks_completed", "faults", "respawns", "busy_seconds"}, ...]},
// "registry": {...}}. Wall-clock observability only — never compared, never
// part of the sweep result bytes (docs/sweep.md).
[[nodiscard]] Json dispatch_report_json(const DispatchReport& report,
                                        const obs::Registry& registry);

// Human-readable, informational comparison of two perf reports (current vs
// baseline): per-scenario throughput ratios, latency-quantile movement,
// and a loud note when the deterministic anchors differ (the workload
// changed; timing deltas are then expected). Tolerant of missing scenarios
// or fields — reports them instead of throwing.
[[nodiscard]] std::string perf_diff_text(const Json& baseline, const Json& current);

// Assignment-latency budget gate behind `bench_assign_latency --check`
// (docs/observability.md, "Assignment-latency budget"). `budget` is the
// committed bench/baselines/assign_latency_budget.json:
//
//   {"schema_version": 1,
//    "config": {"rate_per_sec": ..., "warmup_seconds": ...,
//               "measure_seconds": ..., "cooldown_seconds": ...},
//    "budget": {"p99_us": ..., "min_samples": ...}}
//
// and `report` is the harness's perf-report-schema output. Unlike
// perf_diff_text this check IS enforcing — CI fails on violation — so the
// failure modes are strict: a missing/NaN p99, fewer measured samples than
// `min_samples` (an empty window passes no budget vacuously), any
// config key pinned by the budget differing in the report (a p99 is only
// meaningful at its pinned offered load and window layout), or a
// schema-version mismatch all fail, they are not notes.
struct PerfCheck {
  bool ok = false;
  std::string text;  // human-readable verdict, pass or fail
};
[[nodiscard]] PerfCheck latency_budget_check(const Json& budget, const Json& report);

// Exact gate on the deterministic blocks behind `bench_sim_scenarios
// --perf-baseline PATH --check`: fails on a config that differs from the
// baseline's, on a scenario present in only one of the two reports, and on
// any key of a scenario's `deterministic` block that is missing on one side
// or differs in value, naming the scenario and the key. The block is a
// pure function of the workload and the code (pivots, refactorizations,
// kernel work, the run checksum), so any difference means the pivot path
// or the kernel work changed. Wall-clock fields are never compared.
[[nodiscard]] PerfCheck perf_deterministic_check(const Json& baseline, const Json& current);

}  // namespace titan::sweep
