// Closed-loop scenario simulation (§8 end-to-end).
//
// Drives the full Titan-Next stack through the discrete-event engine: the
// online controller assigns every call in real time while the offline LP
// re-plans on fresh Holt-Winters forecasts, under the scenario's
// disturbances. Default: the fiber-cut-failover week at production-shape
// volume (>= 100k calls), daily replans. `--scenario all` sweeps the whole
// library; `--threads N` exercises the sharded executor (results are
// bit-identical across thread counts for a fixed seed).
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench/common.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sweep/perf_report.h"

namespace {

titan::sim::SimResult run_one(const std::string& name, const titan::bench::Cli& cli,
                              titan::obs::TraceRecorder* trace) {
  using namespace titan;
  sim::Scenario scenario = sim::make_scenario(name);
  scenario.seed = cli.seed;
  scenario.training_weeks = cli.training_weeks();
  scenario.peak_slot_calls = cli.peak_or(1200.0);  // paper-shaped volume

  sim::SimEngine engine(scenario);
  engine.set_trace(trace);
  std::printf("\n-- %s: %s\n", scenario.name.c_str(), scenario.description.c_str());
  std::printf("   %zu calls over %d days, replan every %d slots, %d shards, %d threads\n",
              engine.eval_trace().calls().size(), scenario.eval_days,
              scenario.replan_interval_slots, scenario.shards, cli.threads);
  const auto r = engine.run(cli.threads);

  core::TextTable t({"metric", "value"});
  t.add_row({"calls simulated", std::to_string(r.calls)});
  t.add_row({"replans", std::to_string(r.replans)});
  t.add_row({"inter-DC migrations",
             std::to_string(r.dc_migrations) + "  (" +
                 core::TextTable::pct(r.migration_rate()) + " of calls)"});
  t.add_row({"forced evacuations", std::to_string(r.forced_migrations)});
  t.add_row({"route failovers (Internet->WAN)", std::to_string(r.route_changes)});
  t.add_row({"transit failovers (pair steering)", std::to_string(r.transit_failovers)});
  t.add_row({"out-of-plan convergences",
             std::to_string(r.out_of_plan) + "  (" + core::TextTable::pct(r.out_of_plan_rate()) +
                 ")"});
  t.add_row({"fallback assignments", std::to_string(r.fallback_assignments)});
  if (r.rejected_calls > 0 || r.degraded_calls > 0) {
    t.add_row({"rejected calls (admission shed)",
               std::to_string(r.rejected_calls) + "  (" +
                   core::TextTable::pct(r.calls > 0 ? static_cast<double>(r.rejected_calls) /
                                                          static_cast<double>(r.calls)
                                                    : 0.0) +
                   " of offered)"});
    t.add_row({"degraded admissions (media step-down)", std::to_string(r.degraded_calls)});
    t.add_row({"admission latency",
               "p50 " + core::TextTable::num(r.perf.admission_latency_us.quantile(0.5), 2) +
                   " us, p99 " +
                   core::TextTable::num(r.perf.admission_latency_us.quantile(0.99), 2) + " us"});
  }
  t.add_row({"internet share", core::TextTable::pct(r.internet_share)});
  t.add_row({"mean MOS proxy", core::TextTable::num(r.mean_mos, 3)});
  t.add_row({"sum of WAN day-peaks (worst day)",
             core::TextTable::num(*std::max_element(r.wan.per_day_sum_of_peaks_mbps.begin(),
                                                    r.wan.per_day_sum_of_peaks_mbps.end()),
                                  0) +
                 " Mbps"});
  t.add_row({"plan time (LP)", core::TextTable::num(r.plan_seconds, 2) + " s"});
  t.add_row({"forecast time", core::TextTable::num(r.forecast_seconds, 2) + " s"});
  t.add_row({"wall time", core::TextTable::num(r.wall_seconds, 2) + " s"});
  t.add_row({"throughput", core::TextTable::num(r.calls_per_sec(), 0) + " calls/s, " +
                               core::TextTable::num(r.events_per_sec(), 0) + " events/s"});
  t.add_row({"assign latency",
             "p50 " + core::TextTable::num(r.perf.assign_latency_us.quantile(0.5), 1) +
                 " us, p99 " + core::TextTable::num(r.perf.assign_latency_us.quantile(0.99), 1) +
                 " us, max " + core::TextTable::num(r.perf.assign_latency_us.max(), 1) + " us"});
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(r.checksum));
  t.add_row({"determinism checksum", buf});
  std::printf("%s", t.render().c_str());

  if (r.leaked_calls != 0)
    std::printf("WARNING: %lld leaked calls (lifecycle bug)\n",
                static_cast<long long>(r.leaked_calls));
  for (const auto& [slot, link] : r.severed_links) {
    double peak_before = 0.0, peak_after = 0.0;
    for (int s = 0; s <= slot; ++s)
      peak_before = std::max(peak_before, r.streams.link_mbps_at(s, link));
    for (int s = slot + 1; s < r.eval_slots; ++s)
      peak_after = std::max(peak_after, r.streams.link_mbps_at(s, link));
    std::printf("severed link %d at %s: post-cut peak %.1f Mbps (pre-cut peak %.1f)\n",
                link.value(), core::slot_label(slot).c_str(), peak_after, peak_before);
  }
  return r;
}

// Rolling-horizon replan-latency drill: the production cadence (§6 replans
// every 30 minutes on a day-long horizon) makes consecutive plan LPs
// overlap in all but a few slots, which is exactly where the warm-start
// cache pays. Each scenario runs twice over a short window — warm replans
// on, then off — and the drill reports per-replan simplex iterations. At
// the scenario default cadence (disjoint windows) nothing transfers and
// warm == cold by construction, so the drill is the surface that shows the
// win.
struct ReplanDrill {
  std::string name;
  int interval = 0;
  int horizon = 0;
  titan::sim::SimResult warm;
  titan::sim::SimResult cold;
};

ReplanDrill run_replan_drill(const std::string& name, const titan::bench::Cli& cli) {
  using namespace titan;
  sim::Scenario s = sim::make_scenario(name);
  s.seed = cli.seed;
  // The drill is a solver-latency instrument, not a traffic study: half the
  // smoke volume, one eval day, a 12-hour horizon cap, oracle counts — so
  // the per-replan iteration ratio is measured without paying for another
  // full behavioural run of every scenario.
  s.training_weeks = 1;
  s.eval_days = 1;
  s.peak_slot_calls = 0.5 * cli.peak_or(200.0);
  s.oracle_counts = true;
  s.pipeline.scope.timeslots = std::min(s.pipeline.scope.timeslots, core::kSlotsPerDay / 2);
  s.pipeline.scope.max_reduced_configs = std::min(s.pipeline.scope.max_reduced_configs, 20);
  // Production-style rolling cadence: replan every eighth of the horizon
  // (~88% window overlap) — a fresh tail small enough to sit well inside
  // the solver's warm_repair_limit, sixteen replans over the drill day.
  s.replan_interval_slots = std::max(1, s.pipeline.scope.timeslots / 8);

  ReplanDrill drill;
  drill.name = name;
  drill.interval = s.replan_interval_slots;
  drill.horizon = s.pipeline.scope.timeslots;
  sim::Scenario cold = s;
  cold.warm_replans = false;
  drill.warm = sim::SimEngine(s).run(cli.threads);
  drill.cold = sim::SimEngine(cold).run(cli.threads);
  return drill;
}

struct ReplanTotals {
  long long iterations = 0;
  long long phase1 = 0;
  int warm_started = 0;
  double seconds = 0.0;
};

ReplanTotals totals_after_first(const titan::sim::SimResult& r) {
  ReplanTotals t;
  for (std::size_t i = 1; i < r.replan_stats.size(); ++i) {
    const auto& stat = r.replan_stats[i];
    t.iterations += stat.iterations;
    t.phase1 += stat.phase1_iterations;
    t.warm_started += stat.warm_started ? 1 : 0;
    t.seconds += stat.solve_seconds;
  }
  return t;
}

void write_replan_stats_json(std::FILE* f, const char* key, const titan::sim::SimResult& r) {
  const auto t = totals_after_first(r);
  std::fprintf(f,
               "      \"%s\": {\"replans\": %d, \"first_replan_iterations\": %d, "
               "\"later_iterations\": %lld, \"later_phase1_iterations\": %lld, "
               "\"warm_started\": %d, \"later_solve_seconds\": %.3f, \"iterations\": [",
               key, r.replans,
               r.replan_stats.empty() ? 0 : r.replan_stats.front().iterations, t.iterations,
               t.phase1, t.warm_started, t.seconds);
  for (std::size_t i = 0; i < r.replan_stats.size(); ++i)
    std::fprintf(f, "%s%d", i == 0 ? "" : ", ", r.replan_stats[i].iterations);
  std::fprintf(f, "]}");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace titan;
  // The scenario-aware parser validates --scenario against the library
  // (exit 2 with the valid list on an unknown name) and serves
  // --list-scenarios.
  const bench::Cli cli = bench::parse_cli(argc, argv, sim::scenario_names());
  bench::print_header("Closed-loop scenario simulation", "§8 long-term / stability setup");

  std::vector<std::string> names;
  if (cli.scenario.empty()) {
    names = {"fiber-cut-failover"};
  } else if (cli.scenario == "all") {
    names = sim::scenario_names();
  } else {
    names = bench::split_csv(cli.scenario);  // one name or a comma list
  }
  // One recorder across the whole run: scenarios sequence on a shared
  // timeline, so the exported trace shows the full bench end to end.
  obs::TraceRecorder trace;
  obs::TraceRecorder* trace_ptr = cli.trace_out_path.empty() ? nullptr : &trace;

  std::vector<sim::SimResult> results;
  results.reserve(names.size());
  for (const auto& name : names) results.push_back(run_one(name, cli, trace_ptr));

  // Machine-readable per-scenario summary (CI uploads this as an artifact;
  // the determinism checksums double as cheap golden values).
  if (!cli.json_path.empty()) {
    std::FILE* f = std::fopen(cli.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", cli.json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"seed\": %llu,\n  \"threads\": %d,\n  \"scenarios\": [\n",
                 static_cast<unsigned long long>(cli.seed), cli.threads);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      const auto region_count = [&r](geo::Continent region) {
        return static_cast<long long>(r.calls_by_region[static_cast<std::size_t>(region)]);
      };
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"checksum\": \"%016llx\", \"calls\": %lld, "
                   "\"replans\": %d, \"dc_migrations\": %lld, \"route_changes\": %lld, "
                   "\"transit_failovers\": %lld, \"forced_migrations\": %lld, "
                   "\"out_of_plan\": %lld, \"leaked_calls\": %lld, "
                   "\"rejected_calls\": %lld, \"degraded_calls\": %lld, "
                   "\"shed_na\": %.6f, \"shed_eu\": %.6f, \"shed_asia\": %.6f, "
                   "\"internet_share\": %.6f, \"mean_mos\": %.4f, "
                   "\"wan_sum_of_peaks_mbps\": %.3f, "
                   "\"calls_na\": %lld, \"calls_eu\": %lld, \"calls_asia\": %lld, "
                   "\"wan_gb_na\": %.3f, \"wan_gb_eu\": %.3f, \"wan_gb_asia\": %.3f,%s\n",
                   r.scenario.c_str(), static_cast<unsigned long long>(r.checksum),
                   static_cast<long long>(r.calls), r.replans,
                   static_cast<long long>(r.dc_migrations),
                   static_cast<long long>(r.route_changes),
                   static_cast<long long>(r.transit_failovers),
                   static_cast<long long>(r.forced_migrations),
                   static_cast<long long>(r.out_of_plan),
                   static_cast<long long>(r.leaked_calls),
                   static_cast<long long>(r.rejected_calls),
                   static_cast<long long>(r.degraded_calls),
                   r.shed_fraction(geo::Continent::kNorthAmerica),
                   r.shed_fraction(geo::Continent::kEurope),
                   r.shed_fraction(geo::Continent::kAsia), r.internet_share, r.mean_mos,
                   r.wan.sum_of_peaks_mbps, region_count(geo::Continent::kNorthAmerica),
                   region_count(geo::Continent::kEurope), region_count(geo::Continent::kAsia),
                   r.wan_gb_by_region[static_cast<std::size_t>(geo::Continent::kNorthAmerica)],
                   r.wan_gb_by_region[static_cast<std::size_t>(geo::Continent::kEurope)],
                   r.wan_gb_by_region[static_cast<std::size_t>(geo::Continent::kAsia)],
                   "");
      std::fprintf(f, "     \"calls_per_sec\": %.3f, \"events_per_sec\": %.3f}%s\n",
                   r.calls_per_sec(), r.events_per_sec(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", cli.json_path.c_str());
  }

  // Cold-vs-warm replan latency at the production (rolling-horizon)
  // cadence, reported per scenario and written as a JSON artifact.
  if (!cli.replan_json_path.empty()) {
    std::printf("\n-- replan-latency drill (rolling horizon, warm vs cold)\n");
    core::TextTable t({"scenario", "cadence", "warm replans", "iters warm", "iters cold",
                       "saved"});
    std::vector<ReplanDrill> drills;
    drills.reserve(names.size());
    for (const auto& name : names) {
      drills.push_back(run_replan_drill(name, cli));
      const auto& d = drills.back();
      const auto w = totals_after_first(d.warm);
      const auto c = totals_after_first(d.cold);
      const double saved =
          c.iterations > 0
              ? 1.0 - static_cast<double>(w.iterations) / static_cast<double>(c.iterations)
              : 0.0;
      t.add_row({d.name,
                 std::to_string(d.interval) + "/" + std::to_string(d.horizon) + " slots",
                 std::to_string(w.warm_started) + "/" + std::to_string(d.warm.replans - 1),
                 std::to_string(w.iterations), std::to_string(c.iterations),
                 core::TextTable::pct(saved)});
    }
    std::printf("%s", t.render().c_str());

    std::FILE* f = std::fopen(cli.replan_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", cli.replan_json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"seed\": %llu,\n  \"scenarios\": [\n",
                 static_cast<unsigned long long>(cli.seed));
    for (std::size_t i = 0; i < drills.size(); ++i) {
      const auto& d = drills[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"replan_interval_slots\": %d, "
                   "\"horizon_slots\": %d,\n",
                   d.name.c_str(), d.interval, d.horizon);
      write_replan_stats_json(f, "warm", d.warm);
      std::fprintf(f, ",\n");
      write_replan_stats_json(f, "cold", d.cold);
      std::fprintf(f, "}%s\n", i + 1 < drills.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", cli.replan_json_path.c_str());
  }

  // Performance-trajectory report (docs/observability.md): stable schema
  // with throughput, assignment-latency quantiles, phase timings, and the
  // deterministic anchors that make cross-machine diffs interpretable.
  if (!cli.perf_json_path.empty()) {
    sweep::Json report = sweep::perf_report_json(results, cli.peak_or(1200.0), cli.weeks,
                                                 cli.threads, cli.seed);
    // Cross-scenario aggregate registry: one merged latency histogram and
    // the run-total counters, exported alongside the per-scenario entries.
    obs::Registry registry;
    for (const auto& r : results) {
      registry.counter("calls").add(r.calls);
      registry.counter("events").add(r.perf.events_processed);
      registry.counter("replans").add(r.replans);
      registry.counter("rejected_calls").add(r.rejected_calls);
      registry.counter("degraded_calls").add(r.degraded_calls);
      registry.gauge("wall_seconds_last").set(r.wall_seconds);
      registry
          .histogram("assign_latency_us", r.perf.assign_latency_us.options())
          .merge(r.perf.assign_latency_us);
      registry
          .histogram("admission_latency_us", r.perf.admission_latency_us.options())
          .merge(r.perf.admission_latency_us);
    }
    report.set("registry", sweep::registry_json(registry));

    std::ofstream out(cli.perf_json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.perf_json_path.c_str());
      return 1;
    }
    out << report.dump(2) << "\n";
    out.close();
    std::printf("wrote %s\n", cli.perf_json_path.c_str());

    // Informational diff against a committed baseline: printed, never
    // fatal — wall clock is machine-dependent, the trajectory is the point.
    if (!cli.perf_baseline_path.empty()) {
      std::ifstream in(cli.perf_baseline_path);
      if (!in) {
        std::fprintf(stderr, "perf baseline %s unreadable; skipping diff\n",
                     cli.perf_baseline_path.c_str());
      } else {
        std::ostringstream text;
        text << in.rdbuf();
        try {
          const sweep::Json baseline = sweep::Json::parse(text.str());
          std::printf("\n%s", sweep::perf_diff_text(baseline, report).c_str());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perf baseline %s unparsable (%s); skipping diff\n",
                       cli.perf_baseline_path.c_str(), e.what());
        }
      }
    }
  }

  // Chrome trace_event export of the runs' phase spans (Perfetto-loadable).
  if (!cli.trace_out_path.empty()) {
    std::ofstream out(cli.trace_out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.trace_out_path.c_str());
      return 1;
    }
    out << trace.chrome_json();
    out.close();
    std::printf("wrote %s (%zu spans)\n", cli.trace_out_path.c_str(), trace.size());
  }

  // Leaked calls mean corrupted usage streams; fail the smoke run loudly.
  for (const auto& r : results)
    if (r.leaked_calls != 0) return 1;
  return 0;
}
