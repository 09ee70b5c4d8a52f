// Distributed-sweep wire protocol: work specs and partial results.
//
// The sweep's task seam (sweep/sweep.h: one (scenario, seed) task, an
// order-invariant reduction) becomes a process boundary here: a dispatcher
// (sweep/dispatch.h) sends one `WorkSpec` per task to a worker process
// (`bench_sim_sweep --worker`) as a single JSON line on its stdin, and the
// worker answers with one `PartialResult` line on its stdout. The framing
// is newline-delimited JSON through the same sweep/json writer the
// committed baselines use, so encode -> decode -> encode is byte-stable
// and doubles survive exactly.
//
// Versioning and strictness: both message types carry an explicit
// `protocol` version, and decoding is *strict* — an unknown protocol
// version or an unknown field is rejected with exact, pinned error text
// instead of being ignored. A dispatcher and worker from different builds
// must fail loudly at the first message, never merge subtly mismatched
// metrics (the metric schema itself is checked per record, the way the
// baseline reader does).
#pragma once

#include <string>

#include "sweep/json.h"
#include "sweep/sweep.h"

namespace titan::sweep {

// v1: initial protocol — WorkSpec{protocol, scenario, seed, spec} plus a
// pinned LP solver mode, PartialResult{protocol, scenario, seed,
// task_seconds, records, determinism_violations}.
// v2: WorkSpec drops the LP solver mode with the solver paths it chose
// between; a v1 spec is rejected for its version.
// Bump on any field rename/removal or semantic change; dispatcher and
// workers are always the same binary today, but the version check is what
// makes pointing the dispatcher at remote workers safe later
// (docs/sweep.md).
inline constexpr int kWorkProtocolVersion = 2;

// One task of a sweep: everything a worker needs to reproduce the
// dispatcher's simulation bit-for-bit — the sweep-wide overrides (`spec`;
// execution knobs are not serialized), the (scenario, seed) coordinate,
// and the sim-thread counts (inside `spec`).
struct WorkSpec {
  int protocol = kWorkProtocolVersion;
  std::string scenario;
  std::uint64_t seed = 0;
  SweepSpec spec;

  bool operator==(const WorkSpec&) const = default;
};

// A worker's answer to one WorkSpec: the task's run records (one per
// spec.sim_threads entry, in that order), any determinism violations the
// worker's own thread-count audit found, and the task's wall seconds
// (observability only — never compared).
struct PartialResult {
  int protocol = kWorkProtocolVersion;
  std::string scenario;
  std::uint64_t seed = 0;
  double task_seconds = 0.0;
  std::vector<RunRecord> records;
  std::vector<std::string> determinism_violations;

  bool operator==(const PartialResult&) const = default;
};

[[nodiscard]] Json to_json(const WorkSpec& spec);
[[nodiscard]] Json to_json(const PartialResult& partial);

// Single-line (no embedded newline) encodings — the wire framing.
[[nodiscard]] std::string to_json_line(const WorkSpec& spec);
[[nodiscard]] std::string to_json_line(const PartialResult& partial);

// Strict decoders. Throw std::invalid_argument with exact text:
//   "work spec json: protocol version N (this binary speaks 2)"
//   "work spec json: unknown field 'x'"
// and the "partial result json: ..." equivalents. Nested spec / record
// objects are parsed strict too.
[[nodiscard]] WorkSpec work_spec_from_json(const Json& j);
[[nodiscard]] WorkSpec work_spec_from_text(const std::string& text);
[[nodiscard]] PartialResult partial_result_from_json(const Json& j);
[[nodiscard]] PartialResult partial_result_from_text(const std::string& text);

// Executes a work spec in this process — the entire body of a worker's
// loop, also the reference implementation fault-injection tests compare
// against. Throws std::invalid_argument on an invalid spec (unknown
// scenario, bad sim_threads).
[[nodiscard]] PartialResult run_work_spec(const WorkSpec& spec);

}  // namespace titan::sweep
