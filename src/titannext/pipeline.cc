#include "titannext/pipeline.h"

#include <algorithm>
#include <chrono>
#include <numeric>

namespace titan::titannext {

ForecastOutput forecast_counts(const std::vector<std::vector<double>>& history,
                               int history_end, int horizon, int top_k) {
  const auto t0 = std::chrono::steady_clock::now();
  ForecastOutput out;
  out.counts.assign(history.size(), std::vector<double>(static_cast<std::size_t>(horizon), 0.0));

  // Rank configs by training volume.
  std::vector<std::size_t> order(history.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> totals(history.size(), 0.0);
  for (std::size_t c = 0; c < history.size(); ++c)
    for (int t = 0; t < history_end && t < static_cast<int>(history[c].size()); ++t)
      totals[c] += history[c][static_cast<std::size_t>(t)];
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return totals[a] > totals[b]; });

  const int season = core::kSlotsPerWeek;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t c = order[rank];
    const std::vector<double> series(history[c].begin(),
                                     history[c].begin() + history_end);
    if (static_cast<int>(rank) < top_k && history_end >= 2 * season && totals[c] > 0.0) {
      const auto fit = forecast::HoltWinters::fit_auto(series, season);
      out.counts[c] = forecast::HoltWinters::forecast(fit, horizon);
      ++out.hw_configs;
    } else {
      // Persistence: same slot one week earlier (zeros when history short).
      for (int h = 0; h < horizon; ++h) {
        const int src = history_end + h - season;
        out.counts[c][static_cast<std::size_t>(h)] =
            (src >= 0 && src < history_end) ? series[static_cast<std::size_t>(src)] : 0.0;
      }
    }
  }
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return out;
}

TitanNextPipeline::TitanNextPipeline(const net::NetworkDb& net,
                                     std::map<std::pair<int, int>, double> internet_fractions,
                                     const PipelineOptions& options)
    : net_(&net), fractions_(std::move(internet_fractions)), options_(options) {}

DayPlan TitanNextPipeline::plan_from_counts(const workload::Trace& trace,
                                            const std::vector<std::vector<double>>& counts,
                                            double forecast_seconds,
                                            WarmStartCache* warm) const {
  DayPlan day;
  day.forecast_seconds = forecast_seconds;

  // Tight provisioning plus forecast error can make the plan infeasible
  // (compute cap or E2E bound); production would scale MP servers for a
  // surge (§6.4 "handling surge in calls"). Mirror that: retry with
  // progressively relaxed compute headroom and E2E bound.
  PlanScope scope = options_.scope;
  LpBuildOptions lp = options_.lp;
  for (int attempt = 0; attempt < 3; ++attempt) {
    day.inputs = std::make_unique<PlanInputs>(*net_, scope, fractions_);
    day.inputs->set_demand(trace.configs(), counts, options_.use_reduction);
    LpPlanResult result = solve_plan(*day.inputs, lp, warm);
    day.lp_seconds += result.solve_seconds;
    day.lp_build_seconds += result.build_seconds;
    day.lp_phase1_seconds += result.phase1_seconds;
    day.lp_phase2_seconds += result.phase2_seconds;
    day.lp_refactor_seconds += result.refactor_seconds;
    day.lp_refactorizations = result.refactorizations;
    day.lp_iterations = result.iterations;
    day.lp_phase1_iterations = result.phase1_iterations;
    day.lp_blocks_solved = result.blocks_solved;
    day.lp_warm_started = result.warm_started;
    day.lp_attempts = attempt + 1;
    if (result.status != lp::SolveStatus::kInfeasible) {
      day.plan = OfflinePlan(day.inputs.get(), std::move(result));
      return day;
    }
    scope.compute_headroom *= 1.3;
    if (lp.e2e_bound_ms > 0.0) lp.e2e_bound_ms *= 1.3;
  }
  day.plan = OfflinePlan(day.inputs.get(), LpPlanResult{});
  return day;
}

DayPlan TitanNextPipeline::plan_day_oracle(const workload::Trace& trace,
                                           core::SlotIndex day_begin) const {
  const int horizon = options_.scope.timeslots;
  const auto all_counts = trace.config_active_counts();
  std::vector<std::vector<double>> window(all_counts.size(),
                                          std::vector<double>(static_cast<std::size_t>(horizon), 0.0));
  for (std::size_t c = 0; c < all_counts.size(); ++c)
    for (int h = 0; h < horizon; ++h) {
      const int t = day_begin + h;
      if (t < static_cast<int>(all_counts[c].size()))
        window[c][static_cast<std::size_t>(h)] = all_counts[c][static_cast<std::size_t>(t)];
    }
  return plan_from_counts(trace, window, 0.0);
}

DayPlan TitanNextPipeline::plan_day_forecast(const workload::Trace& trace,
                                             core::SlotIndex day_begin) const {
  const int horizon = options_.scope.timeslots;
  const auto all_counts = trace.config_active_counts();
  const ForecastOutput fc =
      forecast_counts(all_counts, day_begin, horizon, options_.top_k_forecast);
  return plan_from_counts(trace, fc.counts, fc.seconds);
}

}  // namespace titan::titannext
