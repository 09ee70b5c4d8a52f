#include "sweep/perf_report.h"

#include <cmath>
#include <cstdio>

namespace titan::sweep {

namespace {

Json latency_json(const obs::Histogram& h) {
  Json out = Json::object();
  out.set("count", Json::number(static_cast<double>(h.total_count())));
  out.set("mean", Json::number(h.mean()));
  out.set("p50", Json::number(h.quantile(0.50)));
  out.set("p90", Json::number(h.quantile(0.90)));
  out.set("p99", Json::number(h.quantile(0.99)));
  out.set("max", Json::number(h.max()));
  return out;
}

std::string hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Pulls `path.field` out of a scenario entry, tolerating absence.
bool get_number(const Json& scenario, const char* block, const char* field, double* out) {
  if (!scenario.has(block)) return false;
  const Json& b = scenario.at(block);
  if (!b.has(field)) return false;
  *out = b.at(field).as_number();
  return true;
}

std::string format_rate(double v) {
  char buf[48];
  if (v >= 1e6)
    std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
  else if (v >= 1e3)
    std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string format_delta(double from, double to) {
  if (from <= 0.0) return "(n/a)";
  char buf[32];
  std::snprintf(buf, sizeof buf, "(%+.1f%%)", (to - from) / from * 100.0);
  return buf;
}

}  // namespace

Json perf_scenario_json(const sim::SimResult& r) {
  std::int64_t lp_iterations = 0;
  int lp_refactorizations = 0;
  std::int64_t lp_blocks_solved = 0;
  for (const auto& stat : r.replan_stats) {
    lp_iterations += stat.iterations;
    lp_refactorizations += stat.refactorizations;
    lp_blocks_solved += stat.blocks_solved;
  }

  Json det = Json::object();
  det.set("calls", Json::number(static_cast<double>(r.calls)));
  det.set("events", Json::number(static_cast<double>(r.perf.events_processed)));
  det.set("eval_slots", Json::number(r.eval_slots));
  det.set("replans", Json::number(r.replans));
  det.set("lp_iterations", Json::number(static_cast<double>(lp_iterations)));
  det.set("lp_refactorizations", Json::number(lp_refactorizations));
  det.set("lp_blocks_solved", Json::number(static_cast<double>(lp_blocks_solved)));
  det.set("rejected_calls", Json::number(static_cast<double>(r.rejected_calls)));
  det.set("degraded_calls", Json::number(static_cast<double>(r.degraded_calls)));
  det.set("checksum", Json::string(hex_u64(r.checksum)));

  Json thr = Json::object();
  thr.set("wall_seconds", Json::number(r.wall_seconds));
  thr.set("calls_per_sec", Json::number(r.calls_per_sec()));
  thr.set("events_per_sec", Json::number(r.events_per_sec()));

  Json phases = Json::object();
  phases.set("event_apply", Json::number(r.perf.event_apply_seconds));
  phases.set("metric_aggregation", Json::number(r.perf.metric_aggregation_seconds));
  phases.set("replan", Json::number(r.perf.replan_seconds));
  phases.set("shard_work", Json::number(r.perf.shard_work_seconds));
  phases.set("lp_build", Json::number(r.perf.lp_build_seconds));
  phases.set("lp_phase1", Json::number(r.perf.lp_phase1_seconds));
  phases.set("lp_phase2", Json::number(r.perf.lp_phase2_seconds));
  phases.set("lp_refactor", Json::number(r.perf.lp_refactor_seconds));
  phases.set("plan_total", Json::number(r.plan_seconds));
  phases.set("forecast_total", Json::number(r.forecast_seconds));

  Json out = Json::object();
  out.set("scenario", Json::string(r.scenario));
  out.set("deterministic", std::move(det));
  out.set("throughput", std::move(thr));
  out.set("assign_latency_us", latency_json(r.perf.assign_latency_us));
  // Admission/degradation decision latency: empty (count 0) outside the
  // overload scenarios.
  out.set("admission_latency_us", latency_json(r.perf.admission_latency_us));
  out.set("phases_seconds", std::move(phases));
  return out;
}

Json perf_report_json(const std::vector<sim::SimResult>& results, double peak_slot_calls,
                      int weeks, int threads, std::uint64_t seed) {
  Json config = Json::object();
  config.set("peak_slot_calls", Json::number(peak_slot_calls));
  config.set("weeks", Json::number(weeks));
  config.set("threads", Json::number(threads));
  config.set("seed", Json::number(static_cast<double>(seed)));

  Json scenarios = Json::array();
  for (const auto& r : results) scenarios.push_back(perf_scenario_json(r));

  Json out = Json::object();
  out.set("schema_version", Json::number(kPerfSchemaVersion));
  out.set("config", std::move(config));
  out.set("scenarios", std::move(scenarios));
  return out;
}

Json registry_json(const obs::Registry& registry) {
  Json counters = Json::object();
  for (const auto& [name, c] : registry.counters())
    counters.set(name, Json::number(static_cast<double>(c.value())));
  Json gauges = Json::object();
  for (const auto& [name, g] : registry.gauges()) gauges.set(name, Json::number(g.value()));
  Json histograms = Json::object();
  for (const auto& [name, h] : registry.histograms()) {
    Json entry = latency_json(h);
    Json buckets = Json::array();
    for (std::size_t i = 0; i < h.num_buckets(); ++i) {
      if (h.bucket_count(i) == 0) continue;
      Json b = Json::array();
      b.push_back(Json::number(h.bucket_lower(i)));
      // The overflow bucket's +inf upper edge is not representable in
      // JSON; report the recorded max instead.
      const double upper = h.bucket_upper(i);
      b.push_back(Json::number(std::isfinite(upper) ? upper : h.max()));
      b.push_back(Json::number(static_cast<double>(h.bucket_count(i))));
      buckets.push_back(std::move(b));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

Json dispatch_report_json(const DispatchReport& report, const obs::Registry& registry) {
  Json workers = Json::array();
  for (const WorkerStats& w : report.workers) {
    Json entry = Json::object();
    entry.set("worker", Json::number(w.worker));
    entry.set("tasks_completed", Json::number(w.tasks_completed));
    entry.set("faults", Json::number(w.faults));
    entry.set("respawns", Json::number(w.respawns));
    entry.set("busy_seconds", Json::number(w.busy_seconds));
    workers.push_back(std::move(entry));
  }
  Json dispatch = Json::object();
  dispatch.set("workers", Json::number(static_cast<double>(report.workers.size())));
  dispatch.set("retries", Json::number(report.retries));
  dispatch.set("seconds", Json::number(report.seconds));
  dispatch.set("worker_stats", std::move(workers));
  Json out = Json::object();
  out.set("schema_version", Json::number(kPerfSchemaVersion));
  out.set("dispatch", std::move(dispatch));
  out.set("registry", registry_json(registry));
  return out;
}

std::string perf_diff_text(const Json& baseline, const Json& current) {
  std::string out = "perf vs baseline (informational — wall clock is machine-dependent):\n";

  if (baseline.has("config") && current.has("config") &&
      !(baseline.at("config") == current.at("config"))) {
    out += "  NOTE: config differs from baseline (" + baseline.at("config").dump() + " vs " +
           current.at("config").dump() + ") — deltas are not comparable\n";
  }
  if (!baseline.has("scenarios") || !current.has("scenarios")) {
    out += "  malformed report: missing \"scenarios\"\n";
    return out;
  }

  const auto find_scenario = [](const Json& report, const std::string& name) -> const Json* {
    const Json& arr = report.at("scenarios");
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const Json& s = arr.at(i);
      if (s.has("scenario") && s.at("scenario").as_string() == name) return &s;
    }
    return nullptr;
  };

  const Json& cur = current.at("scenarios");
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const Json& c = cur.at(i);
    const std::string name = c.has("scenario") ? c.at("scenario").as_string() : "?";
    const Json* b = find_scenario(baseline, name);
    if (b == nullptr) {
      out += "  " + name + ": not in baseline (new scenario)\n";
      continue;
    }
    double b_calls = 0, c_calls = 0;
    if (get_number(*b, "deterministic", "calls", &b_calls) &&
        get_number(c, "deterministic", "calls", &c_calls) && b_calls != c_calls) {
      out += "  " + name + ": workload changed (calls " + format_rate(b_calls) + " -> " +
             format_rate(c_calls) + "), timing deltas expected\n";
    }
    double b_cps = 0, c_cps = 0, b_eps = 0, c_eps = 0, b_p99 = 0, c_p99 = 0;
    const bool have_cps = get_number(*b, "throughput", "calls_per_sec", &b_cps) &&
                          get_number(c, "throughput", "calls_per_sec", &c_cps);
    const bool have_eps = get_number(*b, "throughput", "events_per_sec", &b_eps) &&
                          get_number(c, "throughput", "events_per_sec", &c_eps);
    const bool have_p99 = get_number(*b, "assign_latency_us", "p99", &b_p99) &&
                          get_number(c, "assign_latency_us", "p99", &c_p99);
    out += "  " + name + ":";
    if (have_cps)
      out += " calls/sec " + format_rate(b_cps) + " -> " + format_rate(c_cps) + " " +
             format_delta(b_cps, c_cps);
    if (have_eps)
      out += "  events/sec " + format_rate(b_eps) + " -> " + format_rate(c_eps) + " " +
             format_delta(b_eps, c_eps);
    if (have_p99)
      out += "  assign p99(us) " + format_rate(b_p99) + " -> " + format_rate(c_p99) + " " +
             format_delta(b_p99, c_p99);
    if (!have_cps && !have_eps && !have_p99) out += " no comparable fields";
    out += "\n";
  }
  return out;
}

LatencyBudgetCheck latency_budget_check(const Json& budget, const Json& report) {
  LatencyBudgetCheck out;
  const auto fail = [&](const std::string& why) {
    out.ok = false;
    out.text = "latency budget FAIL: " + why + "\n";
    return out;
  };

  if (!budget.has("budget") || !budget.at("budget").has("p99_us"))
    return fail("budget file has no budget.p99_us");
  if (budget.has("schema_version") && report.has("schema_version") &&
      !(budget.at("schema_version") == report.at("schema_version")))
    return fail("schema_version mismatch (budget " + budget.at("schema_version").dump() +
                ", report " + report.at("schema_version").dump() + ")");

  // Every config key the budget pins must match the report exactly: the
  // p99 bound was chosen at that arrival rate and window layout.
  if (budget.has("config")) {
    if (!report.has("config")) return fail("report has no config block");
    const Json& rc = report.at("config");
    for (const auto& [key, pinned] : budget.at("config").members()) {
      if (!rc.has(key)) return fail("report config is missing pinned key \"" + key + "\"");
      if (!(rc.at(key) == pinned))
        return fail("config mismatch on \"" + key + "\" (budget " + pinned.dump() +
                    ", report " + rc.at(key).dump() + ") — not comparable");
    }
  }

  if (!report.has("scenarios") || report.at("scenarios").size() == 0)
    return fail("report has no scenarios");
  const Json& s = report.at("scenarios").at(std::size_t{0});
  double p99 = 0.0, count = 0.0;
  if (!get_number(s, "assign_latency_us", "p99", &p99))
    return fail("report has no assign_latency_us.p99");
  if (!std::isfinite(p99)) return fail("measured p99 is not finite");
  get_number(s, "assign_latency_us", "count", &count);

  const double budget_p99 = budget.at("budget").at("p99_us").as_number();
  double min_samples = 0.0;
  if (budget.at("budget").has("min_samples"))
    min_samples = budget.at("budget").at("min_samples").as_number();
  if (count < min_samples) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "only %.0f measured samples (budget requires >= %.0f)",
                  count, min_samples);
    return fail(buf);
  }
  char buf[160];
  if (p99 > budget_p99) {
    std::snprintf(buf, sizeof buf, "measured p99 %.2f us exceeds the %.2f us budget (%.0f samples)",
                  p99, budget_p99, count);
    return fail(buf);
  }
  out.ok = true;
  std::snprintf(buf, sizeof buf,
                "latency budget OK: p99 %.2f us within the %.2f us budget (%.0f samples)\n",
                p99, budget_p99, count);
  out.text = buf;
  return out;
}

}  // namespace titan::sweep
