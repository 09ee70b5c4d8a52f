// Closed-loop discrete-event simulation engine.
//
// Drives the full Titan-Next stack end-to-end the way production runs it
// (§8): the online controller assigns calls in real time from the current
// offline plan while the LP re-plans on fresh forecasts every
// `replan_interval` slots, under injectable disturbances (fiber cuts, DC
// drains, forecast-miss regimes, flash crowds). Per slot the engine
//
//   1. fires due network events (mutating the engine's own NetworkDb),
//   2. re-plans when the replan timer — or a disturbance — demands it,
//      re-binding every shard's controller to the fresh plan,
//   3. evacuates active *and pending* calls stranded on severed links or
//      drained DCs; partial drains (magnitude in (0,1)) evacuate a
//      deterministic per-call-id subset proportional to the drained share,
//   4. drains call events (end / arrival / convergence) shard-parallel —
//      a convergence whose call already ended is dropped, never resurrected,
//   5. accounts per-slot WAN link and Internet pair usage (active calls;
//      calls still converging are not yet at full media flow),
//   6. runs §6.4 route-quality failover against load-dependent Internet
//      loss/RTT (elasticity knee included); failed-over traffic moves
//      Internet -> WAN, never the reverse. Pairs whose failover was caused
//      by a congested transit are then steered to the DC's next transit
//      provider (`LossModel::fail_over`, Titan's §4.2-finding-6 knob), so
//      later calls see a clean Internet path again.
//
// Determinism: calls are partitioned across a fixed shard count by call-id
// hash; each shard owns an RNG stream, a controller, a plan copy (credit
// state), and a metric sink. Merges happen in shard index order, so a
// given (scenario, seed) produces bit-identical results at any worker
// thread count.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/slot_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/scenario.h"

namespace titan::sim {

// Per-replan LP statistics: how much simplex work one pass of the replan
// loop cost and whether it ran warm (seeded from the previous basis) or
// cold. Iteration counts are deterministic; `solve_seconds` is wall clock
// and must be zeroed (SimResult::zero_wallclock) before bitwise compares.
struct ReplanStat {
  core::SlotIndex slot = 0;      // eval slot the replan fired at
  int iterations = 0;            // simplex iterations of the accepted solve
  int phase1_iterations = 0;     // phase-1 share (for warm solves: the
                                 // feasibility-restoration iterations)
  // Region blocks the decomposed path solved (0 = monolithic);
  // deterministic.
  int blocks_solved = 0;
  // Always 0: the dual simplex and candidate-column pruning are gone;
  // perfbench still reads both.
  int dual_iterations = 0;
  int pruned_columns = 0;
  bool warm_started = false;
  // True when this replan was disturbance-forced (a network event, not the
  // scheduled cadence). A purely-forced replan keeps the warm cache AND
  // the current horizon anchor, so the seed transfers at shift 0 and only
  // rhs-side damage is left for the restoration pass to repair —
  // warm_started on a forced stat is the repair's success signal.
  bool forced = false;
  int attempts = 1;              // headroom-relaxation attempts consumed
  double solve_seconds = 0.0;
  // Wall-clock breakdown of the LP work (accumulated across attempts, like
  // solve_seconds): model construction, simplex phase 1 (or the warm
  // restoration pass), phase 2, and the LU refactorization share counted
  // inside whichever phase triggered it. All zeroed by zero_wallclock().
  double build_seconds = 0.0;
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  double refactor_seconds = 0.0;
  int refactorizations = 0;  // deterministic, like `iterations`
  bool operator==(const ReplanStat&) const = default;
};

// Run-level performance observability, carried by SimResult next to the
// deterministic metrics. Two kinds of content live here, with opposite
// masking rules (docs/observability.md):
//
//  * wall-clock phase totals and the assignment-latency histogram — these
//    legitimately differ between runs and are masked by
//    SimResult::zero_wallclock() before bitwise compares;
//  * deterministic fields (`events_processed`, `call_duration_slots`) —
//    pure functions of the workload, bit-identical at any thread count,
//    deliberately left un-masked so determinism tests cover the histogram
//    merge path.
struct SimPerf {
  // Phase totals in seconds across the whole run, engine's view.
  double event_apply_seconds = 0.0;        // phase A+B: evacuation + event drain + usage
  double metric_aggregation_seconds = 0.0; // barrier merges, phase C, final merge
  double replan_seconds = 0.0;             // replan() end to end (forecast + LP + rebind)
  double shard_work_seconds = 0.0;         // summed per-shard job time (all phases)
  // LP breakdown accumulated across replans (per-replan values sit in
  // SimResult::replan_stats).
  double lp_build_seconds = 0.0;
  double lp_phase1_seconds = 0.0;
  double lp_phase2_seconds = 0.0;
  double lp_refactor_seconds = 0.0;

  // Per-call controller latency in microseconds: one sample per
  // assign_initial and one per converge. Wall clock — masked.
  obs::Histogram assign_latency_us{obs::Histogram::Options{0.01, 1e6, 8}};

  // Admission/degradation decision latency in microseconds: one sample per
  // arrival while admission control is enabled (the overload scenarios) —
  // the cost of deciding to admit, step down, or shed a call. Wall clock —
  // masked; empty in every non-overload scenario.
  obs::Histogram admission_latency_us{obs::Histogram::Options{0.01, 1e6, 8}};

  // Call durations in slots, recorded at arrival. Deterministic.
  obs::Histogram call_duration_slots{obs::Histogram::Options{1.0, 1e5, 4}};
  std::int64_t events_processed = 0;  // call events drained (deterministic)

  bool operator==(const SimPerf&) const = default;

  void zero_wallclock() {
    event_apply_seconds = metric_aggregation_seconds = replan_seconds = 0.0;
    shard_work_seconds = 0.0;
    lp_build_seconds = lp_phase1_seconds = lp_phase2_seconds = lp_refactor_seconds = 0.0;
    assign_latency_us.reset();
    admission_latency_us.reset();
  }
};

struct SimResult {
  std::string scenario;
  int eval_slots = 0;
  int threads = 1;

  std::int64_t calls = 0;
  std::int64_t dc_migrations = 0;       // convergence-time inter-DC moves
  std::int64_t route_changes = 0;       // route-quality failovers (Internet -> WAN)
  std::int64_t forced_migrations = 0;   // network-event evacuations
  std::int64_t transit_failovers = 0;   // pairs steered to an alternate transit
  std::int64_t out_of_plan = 0;         // true config absent from the plan
  std::int64_t fallback_assignments = 0;
  // Overload regime (admission control): calls refused outright — at
  // arrival by the shed policy, or force-rejected when an evacuation found
  // no live DC anywhere in scope — and calls admitted with a degraded media
  // shape. Both 0 in every non-overload scenario.
  std::int64_t rejected_calls = 0;
  std::int64_t degraded_calls = 0;
  // Lifecycle invariant check: calls still occupying the active/pending sets
  // after their end (or convergence) event was due. Always 0 — a nonzero
  // value means the engine leaked a call and its usage streams are corrupt.
  std::int64_t leaked_calls = 0;
  int replans = 0;
  // One entry per replan, in firing order (replan_stats.size() == replans):
  // the replan-latency surface of the warm-start loop.
  std::vector<ReplanStat> replan_stats;

  double plan_seconds = 0.0;      // LP time across replans
  double forecast_seconds = 0.0;  // forecasting time across replans
  double wall_seconds = 0.0;

  double internet_share = 0.0;  // participant-weighted
  double mean_mos = 0.0;        // MOS proxy over converged calls

  // Per-continent slices (indexed by geo::Continent): arrivals by the first
  // joiner's continent, and WAN traffic (GB over the window) by the serving
  // DC's continent. Regions outside the plan scope stay 0; a cross-region
  // load shift moves wan_gb between entries.
  std::array<std::int64_t, geo::kNumContinents> calls_by_region{};
  std::array<double, geo::kNumContinents> wan_gb_by_region{};
  // Overload slices by the first joiner's continent (where the shed lands).
  std::array<std::int64_t, geo::kNumContinents> rejected_by_region{};
  std::array<std::int64_t, geo::kNumContinents> degraded_by_region{};

  eval::WanUsage wan;            // day-peak cost metric over the sim window
  eval::SlotMetricsSink streams; // full per-slot streams

  // Bit-exact fingerprint of every assignment decision, in shard order.
  std::uint64_t checksum = 0;

  // Performance observability (never feeds `checksum`; wall-clock parts
  // masked by zero_wallclock()).
  SimPerf perf;

  // Links severed by fiber-cut/link-scale events, with their firing slot.
  std::vector<std::pair<core::SlotIndex, core::LinkId>> severed_links;

  [[nodiscard]] double out_of_plan_rate() const {
    return calls > 0 ? static_cast<double>(out_of_plan) / static_cast<double>(calls) : 0.0;
  }
  [[nodiscard]] double migration_rate() const {
    return calls > 0 ? static_cast<double>(dc_migrations) / static_cast<double>(calls) : 0.0;
  }
  // Rejected / offered arrivals for one region (`calls` counts offered
  // arrivals, rejected included) — the per-region shed fraction.
  [[nodiscard]] double shed_fraction(geo::Continent region) const {
    const auto r = static_cast<std::size_t>(region);
    return calls_by_region[r] > 0 ? static_cast<double>(rejected_by_region[r]) /
                                        static_cast<double>(calls_by_region[r])
                                  : 0.0;
  }
  // Throughput rates derived from the wall clock (reporting only).
  [[nodiscard]] double calls_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(calls) / wall_seconds : 0.0;
  }
  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(perf.events_processed) / wall_seconds : 0.0;
  }

  // Bitwise equality over every field, streams included. Callers comparing
  // runs for determinism must first zero the wall-clock fields (threads,
  // plan/forecast/wall seconds and the per-replan solve seconds), which
  // legitimately differ between runs — zero_wallclock() does exactly that.
  bool operator==(const SimResult&) const = default;

  // Masks every nondeterministic (wall-clock) field so two runs of the same
  // (scenario, seed) compare bit-identical regardless of thread count.
  void zero_wallclock() {
    threads = 0;
    plan_seconds = forecast_seconds = wall_seconds = 0.0;
    for (auto& r : replan_stats) {
      r.solve_seconds = 0.0;
      r.build_seconds = r.phase1_seconds = r.phase2_seconds = r.refactor_seconds = 0.0;
    }
    perf.zero_wallclock();
  }
};

class SimEngine {
 public:
  // Materializes the scenario: world, a private mutable NetworkDb, the
  // workload split (surges applied), Titan fractions, and the disturbance
  // schedule with names resolved to ids.
  explicit SimEngine(const Scenario& scenario);
  ~SimEngine();

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }
  [[nodiscard]] const geo::World& world() const { return *world_; }
  [[nodiscard]] const net::NetworkDb& network() const { return *db_; }
  [[nodiscard]] const workload::Trace& eval_trace() const { return workload_.eval; }
  // History-peak compute anchor (cores); 0 unless scenario.capacity_anchor.
  // Aggregate serving capacity is anchor x compute_headroom — the
  // denominator of the overload tests' demand/capacity ratio.
  [[nodiscard]] double capacity_anchor_cores() const { return capacity_anchor_cores_; }

  // Optional span recorder for the run's phase timing (null = tracing off,
  // the default; the hot loops then never read the trace clock). Lane 0
  // carries the engine's per-slot phases, lane 1 + i the per-shard jobs.
  // The recorder must outlive run(); its output is a visualization
  // artifact and never feeds the result (docs/observability.md).
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  // Runs the whole scenario with `threads` workers. Repeatable: each run
  // rebuilds all mutable state (including disturbance effects) from the
  // scenario, so consecutive runs of one engine are identical.
  [[nodiscard]] SimResult run(int threads = 1);

 private:
  struct Shard;

  void reset_network();
  void apply_network_event(const NetworkEvent& event);
  // Re-plans the horizon starting at `slot`. A disturbance-driven
  // ("forced") replan keeps the warm cache and passes the *current*
  // horizon anchor: a network change damages the rhs side (capacities,
  // bounds) of the plan LP while the model layout stays put, which is
  // exactly what the dual-simplex warm path repairs at shift 0; the
  // solver's own gates (dual feasibility, factorization, repair budget)
  // fall back to a cold solve when the change was too structural. The
  // caller records the forced flag on the ReplanStat.
  void replan(core::SlotIndex slot, std::vector<Shard>& shards);

  Scenario scenario_;
  std::unique_ptr<geo::World> world_;
  std::unique_ptr<net::NetworkDb> db_;
  ScenarioWorkload workload_;
  std::map<std::pair<int, int>, double> fractions_;
  // Continent lookup tables for the hot per-slot accounting loops.
  std::vector<geo::Continent> country_region_;  // by country id
  std::vector<geo::Continent> dc_region_;       // by dc id
  std::vector<NetworkEvent> events_;  // sorted by slot
  // Active-counts history ++ realized eval counts, for forecasting.
  std::vector<std::vector<double>> combined_counts_;
  int history_slots_ = 0;

  // Forecast-miss regimes (kForecastBias), fixed per scenario: any forecast
  // column whose slot falls inside a window is scaled by its magnitude,
  // whenever the replan producing it happens.
  std::vector<NetworkEvent> forecast_biases_;

  // Overload regime. The anchor is the history trace's peak per-slot
  // compute demand (cores), fixed at construction; 0 when
  // scenario.capacity_anchor is off. config_cores_ caches per-config
  // compute footprints for the anchor/cap math.
  double capacity_anchor_cores_ = 0.0;
  std::vector<double> config_cores_;
  // Aggregate plan capacity per continent under the CURRENT plan inputs
  // (drain-aware); recomputed after every replan. Feeds the admission
  // load ratios pushed to the shard controllers at each slot barrier.
  std::vector<double> region_capacity_;

  // Per-run mutable state.
  titannext::DayPlan current_plan_;
  core::SlotIndex plan_begin_ = 0;
  // Rolling basis cache feeding warm-started replans (reset per run so
  // consecutive runs of one engine stay identical).
  titannext::WarmStartCache warm_cache_;
  std::vector<bool> dead_links_;   // capacity fully severed
  std::vector<bool> drained_dcs_;  // compute fully drained
  obs::TraceRecorder* trace_ = nullptr;
  bool evacuation_pending_ = false;
  // DC -> fraction of its in-flight calls to evacuate in the next wave
  // (partial drains); consumed by the wave, then cleared.
  std::map<int, double> partial_evac_;
  std::vector<std::pair<core::SlotIndex, core::LinkId>> severed_links_;
};

}  // namespace titan::sim
