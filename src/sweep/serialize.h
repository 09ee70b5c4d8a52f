// SweepResult <-> JSON.
//
// The sweep JSON is the contract between `bench_sim_sweep`, the committed
// regression baseline under bench/baselines/, and CI artifacts, so the
// mapping is versioned (`schema`) and loss-free: serialize -> parse ->
// re-serialize is byte-identical (doubles go through %.17g, checksums
// through fixed-width hex, object keys keep insertion order). Execution
// knobs (worker count, task shuffle seed) are intentionally NOT part of
// the document — two sweeps that differ only in how they were scheduled
// serialize to the same bytes.
#pragma once

#include <string>

#include "sweep/json.h"
#include "sweep/sweep.h"

namespace titan::sweep {

// v2: per-region metric slices (calls_na/eu/asia, wan_gb_na/eu/asia) joined
// the metric schema when PlanScope grew multi-region support; v1 baselines
// must be regenerated, not compared.
// v3: replan-latency metrics of the warm-start loop (replan_iterations,
// replan_phase1_iterations, warm_replans) plus plan_solve_seconds — the LP
// time `Solution::solve_seconds` always measured but the sweep never
// surfaced. Earlier baselines must be regenerated, not compared.
// v4: LP scale-out counters (dual-simplex pivots, replan_blocks_solved,
// pruned candidate columns) from the dual-simplex warm path and the
// region-block decomposition. Earlier baselines must be regenerated, not
// compared.
// v5: overload-regime metrics (rejected_calls, degraded_calls,
// shed_fraction_na/eu/asia) from admission control, plus the three overload
// scenarios joining the scenario library. Earlier baselines must be
// regenerated, not compared.
// v6: the dual-simplex pivot and pruned-column counters dropped with the
// dual simplex and candidate-column pruning they counted. Earlier
// baselines must be regenerated, not compared.
inline constexpr int kSweepSchemaVersion = 6;

// Building blocks of the document mapping, exposed because the worker
// protocol (sweep/protocol.h) transports the same spec and run-record
// shapes line by line. `strict` additionally rejects unknown object keys
// ("sweep spec json: unknown field 'x'" / "run record json: unknown field
// 'x'") — protocol messages must not silently carry fields this binary
// does not understand, while the committed baseline documents keep the
// historical tolerant read.
[[nodiscard]] Json sweep_spec_to_json(const SweepSpec& spec);
[[nodiscard]] SweepSpec sweep_spec_from_json(const Json& j, bool strict = false);
[[nodiscard]] Json run_record_to_json(const RunRecord& run);
[[nodiscard]] RunRecord run_record_from_json(const Json& j, bool strict = false);

// Seeds are full uint64 values; JSON numbers (doubles) lose precision past
// 2^53, so they travel as decimal strings everywhere in the sweep formats.
[[nodiscard]] Json seed_to_json(std::uint64_t seed);
[[nodiscard]] std::uint64_t seed_from_json(const Json& j);

// `include_runs` = false drops the per-run records (aggregates only), for
// compact CI artifacts; the committed baseline keeps runs for forensics.
[[nodiscard]] Json to_json(const SweepResult& result, bool include_runs = true);
[[nodiscard]] std::string to_json_text(const SweepResult& result, bool include_runs = true);

// Throws std::invalid_argument on malformed documents, unknown schema
// versions, or metric schemas that do not match this binary's.
[[nodiscard]] SweepResult from_json(const Json& doc);
[[nodiscard]] SweepResult from_json_text(const std::string& text);

}  // namespace titan::sweep
