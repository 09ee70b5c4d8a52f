#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "core/hash.h"
#include "media/media_types.h"
#include "media/mos.h"
#include "sim/executor.h"
#include "titannext/controller.h"
#include "workload/event_stream.h"

namespace titan::sim {

namespace {

// Fingerprint of one assignment decision; order-sensitive within a shard.
std::uint64_t mix_decision(std::uint64_t h, std::uint32_t call_index, core::DcId dc,
                           net::PathType path, std::uint32_t flags) {
  h = core::hash_mix(h, call_index);
  h = core::hash_mix(h, static_cast<std::uint64_t>(dc.value()));
  h = core::hash_mix(h, static_cast<std::uint64_t>(path));
  return core::hash_mix(h, flags);
}

}  // namespace

struct SimEngine::Shard {
  struct ActiveCall {
    core::DcId dc;
    net::PathType path = net::PathType::kWan;
    // Media step-downs admission control applied (0 = full quality). A
    // degraded call occupies its stepped-down footprint in the usage and
    // region-load accounting.
    std::uint8_t degrade = 0;
  };

  core::Rng rng{0};
  titannext::OfflinePlan plan;  // per-shard copy: credit state stays private
  std::unique_ptr<titannext::OnlineController> controller;
  EventQueue queue;
  // Ordered containers keep float accumulation order fixed per shard.
  std::map<std::uint32_t, ActiveCall> active;
  std::map<std::uint32_t, titannext::InitialAssignment> pending;
  std::vector<std::uint32_t> converged_this_slot;
  std::map<std::pair<int, int>, double> internet_load;  // (country, dc) -> Mbps, this slot
  // (country, dc) pairs whose route failover this slot was caused by a
  // congested transit; the engine steers them to an alternate provider
  // between slots (ordered so the merged steering order is deterministic).
  std::set<std::pair<int, int>> transit_steer;
  eval::SlotMetricsSink sink;
  // Per-shard observability, merged into SimResult::perf in shard index
  // order (layouts are seeded from SimPerf's in run()).
  obs::Histogram assign_latency_us;
  obs::Histogram admission_latency_us;
  obs::Histogram call_duration_slots;
  std::int64_t events = 0;  // call events drained (deterministic)
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  std::int64_t calls = 0;
  std::int64_t dc_migrations = 0;
  std::int64_t route_changes = 0;
  std::int64_t forced_migrations = 0;
  std::int64_t out_of_plan = 0;
  std::int64_t fallbacks = 0;
  // Overload regime: shed/degrade counters plus this slot's active compute
  // per hosting-DC continent (cleared per slot; merged at the barrier into
  // the load ratios the admission policy reads next slot).
  std::int64_t rejected = 0;
  std::int64_t degraded = 0;
  std::array<std::int64_t, geo::kNumContinents> rejected_by_region{};
  std::array<std::int64_t, geo::kNumContinents> degraded_by_region{};
  std::array<double, geo::kNumContinents> region_cores{};
};

SimEngine::SimEngine(const Scenario& scenario) : scenario_(scenario) {
  scenario_.shards = std::max(1, scenario_.shards);
  scenario_.replan_interval_slots = std::max(1, scenario_.replan_interval_slots);
  scenario_.convergence_delay_slots = std::max(0, scenario_.convergence_delay_slots);
  // The plan must cover at least one full replan interval.
  scenario_.pipeline.scope.timeslots =
      std::max(scenario_.pipeline.scope.timeslots, scenario_.replan_interval_slots);

  scenario_.pipeline.scope.regions.validate();
  world_ = std::make_unique<geo::World>(geo::World::make());
  workload_ = build_workload(scenario_, *world_);
  history_slots_ = scenario_.history_slots();
  for (const auto& c : world_->countries()) country_region_.push_back(c.continent);
  for (const auto& d : world_->dcs()) dc_region_.push_back(d.continent);

  // A clean network must exist before disturbances resolve: kTransitDegrade
  // pins its target to the pair's *BGP-default* transit, read off the
  // pristine loss model.
  reset_network();

  // Resolve disturbance names into the event schedule. Windowed kinds
  // synthesize a restore/recover event at window close that resets the
  // target outright, so overlapping windows on the *same* target would
  // cancel each other mid-flight — reject them instead of under-simulating.
  std::map<int, std::vector<std::pair<int, int>>> drain_windows;    // dc -> [begin, end)
  std::map<int, std::vector<std::pair<int, int>>> degrade_windows;  // transit -> [begin, end)
  const auto note_window = [](std::map<int, std::vector<std::pair<int, int>>>& windows,
                              int target, int begin, int end, const char* what) {
    constexpr int kOpenEnded = std::numeric_limits<int>::max();
    if (end < 0) end = kOpenEnded;
    for (const auto& [b, e] : windows[target])
      if (begin < e && b < end)
        throw std::invalid_argument(std::string("overlapping ") + what +
                                    " windows on one target");
    windows[target].emplace_back(begin, end);
  };
  for (const auto& d : scenario_.disturbances) {
    NetworkEvent e;
    e.kind = d.kind;
    e.slot = d.day * core::kSlotsPerDay + d.slot_in_day;
    e.end_slot = d.duration_slots > 0 ? e.slot + d.duration_slots : -1;
    e.magnitude = d.magnitude;
    // Targets must exist *and* sit inside the plan scope: a disturbance on
    // an out-of-scope country or DC would silently simulate nothing.
    const auto& regions = scenario_.pipeline.scope.regions;
    if (!d.country.empty()) {
      e.country = world_->find_country(d.country);
      if (!e.country.valid()) throw std::invalid_argument("disturbance country: " + d.country);
      if (!regions.contains(world_->country(e.country).continent))
        throw std::invalid_argument("disturbance country outside plan scope: " + d.country);
    }
    if (!d.dc.empty()) {
      e.dc = world_->find_dc(d.dc);
      if (!e.dc.valid()) throw std::invalid_argument("disturbance dc: " + d.dc);
      if (!regions.contains(world_->dc(e.dc).continent))
        throw std::invalid_argument("disturbance dc outside plan scope: " + d.dc);
    }
    if (e.kind == NetworkEventKind::kForecastBias) {
      forecast_biases_.push_back(e);  // a modeling regime, not a fired event
    } else if (e.kind == NetworkEventKind::kDcDrain) {
      if (!e.dc.valid()) throw std::invalid_argument("dc drain requires a dc");
      if (e.magnitude < 0.0 || e.magnitude >= 1.0)
        throw std::invalid_argument("dc drain magnitude must be in [0, 1)");
      note_window(drain_windows, e.dc.value(), e.slot, e.end_slot, "dc drain");
      events_.push_back(e);
      // A drain window restores the DC when it closes (maintenance done).
      if (e.end_slot >= 0) {
        NetworkEvent restore = e;
        restore.slot = e.end_slot;
        restore.end_slot = -1;
        restore.magnitude = 1.0;
        events_.push_back(restore);
      }
    } else if (e.kind == NetworkEventKind::kTransitDegrade) {
      if (!e.dc.valid()) throw std::invalid_argument("transit degrade requires a dc");
      if (e.magnitude <= 0.0)
        throw std::invalid_argument("transit degrade magnitude must be > 0");
      e.transit = e.country.valid() ? db_->loss().transit_for(e.country, e.dc)
                                    : db_->loss().transits_of(e.dc).front();
      note_window(degrade_windows, e.transit.value(), e.slot, e.end_slot, "transit degrade");
      events_.push_back(e);
      // The congestion episode clears when the window closes.
      if (e.end_slot >= 0) {
        NetworkEvent recover = e;
        recover.slot = e.end_slot;
        recover.end_slot = -1;
        recover.magnitude = 0.0;
        events_.push_back(recover);
      }
    } else {
      // Fiber repairs take months (§4.2 finding 7) — far beyond any sim
      // horizon — so link events have no restoration path; reject windows
      // rather than silently ignoring them.
      if (!e.country.valid() || !e.dc.valid())
        throw std::invalid_argument("link disturbances require a country and a dc");
      if (d.duration_slots > 0)
        throw std::invalid_argument("link disturbances do not support duration_slots");
      events_.push_back(e);
    }
  }
  // Restores order before new disturbances at the same slot, so touching
  // windows ([10,20) then [20,30) on one target) work regardless of the
  // order the scenario listed them in. Only synthesized restore/recover
  // events carry these magnitudes — user disturbances reject them.
  const auto is_restore = [](const NetworkEvent& e) {
    return (e.kind == NetworkEventKind::kDcDrain && e.magnitude >= 1.0) ||
           (e.kind == NetworkEventKind::kTransitDegrade && e.magnitude <= 0.0);
  };
  std::stable_sort(events_.begin(), events_.end(),
                   [&](const NetworkEvent& a, const NetworkEvent& b) {
                     if (a.slot != b.slot) return a.slot < b.slot;
                     return is_restore(a) && !is_restore(b);
                   });

  // Forecast inputs: training history followed by the realized eval counts
  // (replans only ever read columns before "now").
  auto hist = workload_.history.config_active_counts();
  const auto eval = workload_.eval.config_active_counts();
  combined_counts_.resize(eval.size());
  for (std::size_t c = 0; c < eval.size(); ++c) {
    auto& series = combined_counts_[c];
    series = c < hist.size() ? std::move(hist[c])
                             : std::vector<double>(static_cast<std::size_t>(history_slots_), 0.0);
    series.insert(series.end(), eval[c].begin(), eval[c].end());
  }

  // Per-config compute footprints (history and eval windows share one
  // registry), for the anchor below and the replan demand cap.
  const auto& registry = workload_.eval.configs();
  config_cores_.resize(registry.size());
  for (std::size_t c = 0; c < registry.size(); ++c)
    config_cores_[c] = registry.get(core::ConfigId(static_cast<int>(c))).compute_cores();

  // Overload regime: anchor plan capacity at the HISTORY trace's peak
  // per-slot compute demand. The eval-side amplification then genuinely
  // outruns provisioned cores instead of inflating them (see
  // PlanScope::capacity_anchor_cores).
  if (scenario_.capacity_anchor) {
    double peak = 0.0;
    for (int t = 0; t < history_slots_; ++t) {
      double total = 0.0;
      for (std::size_t c = 0; c < combined_counts_.size(); ++c)
        total += combined_counts_[c][static_cast<std::size_t>(t)] * config_cores_[c];
      peak = std::max(peak, total);
    }
    capacity_anchor_cores_ = peak;
    scenario_.pipeline.scope.capacity_anchor_cores = peak;
  }
}

SimEngine::~SimEngine() = default;

void SimEngine::reset_network() {
  // Rebuilding the NetworkDb from the world resets every disturbance effect
  // (link scales, drains), so consecutive runs are identical.
  db_ = std::make_unique<net::NetworkDb>(*world_);
  // The rebuild already starts clean; reset the transit steering state
  // explicitly so the invariant survives a future cheaper reset path.
  db_->loss().reset_failovers();
  db_->loss().reset_degrades();
  dead_links_.assign(db_->topology().link_count(), false);
  drained_dcs_.assign(world_->dcs().size(), false);
  evacuation_pending_ = false;
  partial_evac_.clear();
  severed_links_.clear();

  fractions_.clear();
  const auto& regions = scenario_.pipeline.scope.regions;
  const auto scope_dcs = geo::dcs_in(*world_, regions);
  for (const auto c : geo::countries_in(*world_, regions)) {
    const double f = db_->loss().internet_unusable(c) ? 0.0 : scenario_.titan_fraction_cap;
    for (const auto d : scope_dcs) fractions_[{c.value(), d.value()}] = f;
  }

  current_plan_ = titannext::DayPlan{};
  plan_begin_ = 0;
  warm_cache_ = titannext::WarmStartCache{};
}

void SimEngine::apply_network_event(const NetworkEvent& event) {
  switch (event.kind) {
    case NetworkEventKind::kFiberCut: {
      const auto link = db_->cut_wan_link_on_path(event.country, event.dc, event.magnitude);
      // Titan's emergency response (§4.2 finding 7): pairs whose WAN path
      // crossed the severed link get a surged Internet fraction, so the
      // next replan moves their traffic off the crippled segment. Affected
      // pairs must be collected from the *pre-reroute* paths.
      const auto& regions = scenario_.pipeline.scope.regions;
      const auto scope_dcs = geo::dcs_in(*world_, regions);
      for (const auto c : geo::countries_in(*world_, regions)) {
        if (db_->loss().internet_unusable(c)) continue;
        for (const auto d : scope_dcs) {
          const auto& path = db_->topology().path(c, d).links;
          if (std::find(path.begin(), path.end(), link) == path.end()) continue;
          auto& f = fractions_[{c.value(), d.value()}];
          f = std::max(f, scenario_.fiber_cut_surge_fraction);
        }
      }
      if (event.magnitude <= 0.0) {
        dead_links_[static_cast<std::size_t>(link.value())] = true;
        severed_links_.emplace_back(event.slot, link);
        evacuation_pending_ = true;
        // Traffic engineering reroutes future WAN paths off the dead fiber.
        db_->topology().reroute_around_dead_links(*world_);
      }
      break;
    }
    case NetworkEventKind::kLinkScale: {
      db_->scale_wan_links_on_path(event.country, event.dc, event.magnitude);
      if (event.magnitude <= 0.0) {
        for (const auto lid : db_->topology().path(event.country, event.dc).links) {
          dead_links_[static_cast<std::size_t>(lid.value())] = true;
          severed_links_.emplace_back(event.slot, lid);
        }
        evacuation_pending_ = true;
        db_->topology().reroute_around_dead_links(*world_);
      }
      break;
    }
    case NetworkEventKind::kDcDrain: {
      db_->set_dc_compute_scale(event.dc, event.magnitude);
      drained_dcs_[static_cast<std::size_t>(event.dc.value())] = event.magnitude <= 0.0;
      if (event.magnitude <= 0.0) {
        evacuation_pending_ = true;
      } else if (event.magnitude < 1.0) {
        // Partial/rolling maintenance: the next evacuation wave moves a
        // deterministic ~(1 - magnitude) share of the DC's in-flight calls;
        // planning sees the shrunk capacity through dc_compute_scale.
        partial_evac_[event.dc.value()] =
            std::max(partial_evac_[event.dc.value()], 1.0 - event.magnitude);
        evacuation_pending_ = true;
      }
      break;
    }
    case NetworkEventKind::kTransitDegrade:
      if (event.magnitude > 0.0)
        db_->loss().degrade_transit(event.transit, event.magnitude);
      else
        db_->loss().clear_transit_degrade(event.transit);
      break;
    case NetworkEventKind::kForecastBias:
      break;  // handled as a schedule in replan(), not as a fired event
  }
}

void SimEngine::replan(core::SlotIndex slot, std::vector<Shard>& shards) {
  const int horizon = scenario_.pipeline.scope.timeslots;
  const int now = history_slots_ + slot;

  std::vector<std::vector<double>> counts;
  double forecast_seconds = 0.0;
  if (scenario_.oracle_counts) {
    counts.assign(combined_counts_.size(),
                  std::vector<double>(static_cast<std::size_t>(horizon), 0.0));
    for (std::size_t c = 0; c < combined_counts_.size(); ++c)
      for (int h = 0; h < horizon; ++h)
        if (now + h < static_cast<int>(combined_counts_[c].size()))
          counts[c][static_cast<std::size_t>(h)] =
              combined_counts_[c][static_cast<std::size_t>(now + h)];
  } else {
    auto fc = titannext::forecast_counts(combined_counts_, now, horizon,
                                         scenario_.pipeline.top_k_forecast);
    counts = std::move(fc.counts);
    forecast_seconds = fc.seconds;
  }

  // Forecast-miss regimes: every forecast column whose slot falls inside a
  // bias window is scaled, whichever replan produced it.
  for (const auto& bias : forecast_biases_) {
    for (int h = 0; h < horizon; ++h) {
      const core::SlotIndex covered = slot + h;
      if (covered < bias.slot || (bias.end_slot >= 0 && covered >= bias.end_slot)) continue;
      for (auto& series : counts) series[static_cast<std::size_t>(h)] *= bias.magnitude;
    }
  }

  // Overload regime: plan the ADMISSIBLE load, not the raw overload. With
  // capacity anchored, a demand column past aggregate capacity would leave
  // the LP infeasible and the pipeline's headroom relaxation would silently
  // re-inflate the capacity we just fixed; instead, scale each over-budget
  // column down to what the (drain-aware) fleet can actually serve —
  // admission control sheds the rest at arrival time.
  if (scenario_.capacity_anchor && capacity_anchor_cores_ > 0.0) {
    // Small slack under the cap keeps the LP's corridor/E2E constraints
    // feasible at the planned volume on the first attempt.
    constexpr double kPlanDemandSafety = 0.9;
    double share_total = 0.0, live_share = 0.0;
    for (const auto dc : geo::dcs_in(*world_, scenario_.pipeline.scope.regions)) {
      const double share = world_->dc(dc).cores;
      share_total += share;
      live_share += share * db_->dc_compute_scale(dc);
    }
    const double admissible = capacity_anchor_cores_ * scenario_.pipeline.scope.compute_headroom *
                              (share_total > 0.0 ? live_share / share_total : 0.0) *
                              kPlanDemandSafety;
    for (int h = 0; h < horizon; ++h) {
      double planned = 0.0;
      for (std::size_t c = 0; c < counts.size(); ++c)
        planned += counts[c][static_cast<std::size_t>(h)] * config_cores_[c];
      if (planned <= admissible || planned <= 0.0) continue;
      const double scale = admissible / planned;
      for (auto& series : counts) series[static_cast<std::size_t>(h)] *= scale;
    }
  }

  // A fresh pipeline per replan picks up fraction surges and drains. The
  // warm cache seeds each solve from its predecessor's basis shifted to
  // this horizon's start; with disjoint windows nothing transfers and the
  // solve is the byte-identical cold path (see docs/solver.md). A forced
  // replan reacts to a network change — capacity/bound damage on the rhs
  // side that leaves the cached basis dual-feasible — so it KEEPS the
  // cache: the dual pivot loop repairs exactly that damage, and every
  // solver gate (dual feasibility, factorization, repair budget) still
  // falls back to the cold solve when the change was too structural.
  const titannext::TitanNextPipeline pipeline(*db_, fractions_, scenario_.pipeline);
  warm_cache_.next_plan_begin = slot;
  titannext::DayPlan day =
      pipeline.plan_from_counts(workload_.eval, counts, forecast_seconds,
                                scenario_.warm_replans ? &warm_cache_ : nullptr);

  titannext::ControllerOptions copts;
  copts.use_reduction = scenario_.pipeline.use_reduction;
  copts.admission.enabled = scenario_.admission_control;
  copts.admission.degrade_threshold = scenario_.admission_degrade_threshold;
  copts.admission.reject_threshold = scenario_.admission_reject_threshold;
  copts.admission.max_shed = scenario_.admission_max_shed;
  copts.admission.seed = scenario_.seed;
  for (auto& sh : shards) {
    // Each shard gets its own copy of the new plan, seeded with ITS OWN
    // previous credit state: smooth-WRR smoothing must span plan
    // generations (a restart every replan interval lets the realized mix
    // drift toward round-robin and away from the plan weights at rolling
    // cadences). The carry must happen before current_plan_ is replaced
    // below — it matches demands through the previous generation's inputs.
    titannext::OfflinePlan fresh = day.plan;
    fresh.carry_credits_from(sh.plan);
    sh.plan = std::move(fresh);
    if (sh.controller == nullptr)
      sh.controller = std::make_unique<titannext::OnlineController>(*day.inputs, sh.plan, copts);
    else
      sh.controller->rebind(*day.inputs, sh.plan);
  }
  current_plan_ = std::move(day);  // frees the previous generation
  plan_begin_ = slot;

  // Aggregate plan capacity per continent under the fresh inputs — drains
  // shrink it through dc_compute_scale, so the admission ratios react to
  // DC loss the same replan the plan does.
  if (scenario_.admission_control) {
    region_capacity_.assign(geo::kNumContinents, 0.0);
    for (const auto dc : current_plan_.inputs->dcs())
      region_capacity_[static_cast<std::size_t>(
          dc_region_[static_cast<std::size_t>(dc.value())])] +=
          current_plan_.inputs->dc_capacity(dc);
  }
}

SimResult SimEngine::run(int threads) {
  const auto t0 = std::chrono::steady_clock::now();
  reset_network();

  const int num_slots = scenario_.eval_slots();
  const int num_links = static_cast<int>(db_->topology().link_count());
  const int num_shards = scenario_.shards;
  const auto& calls = workload_.eval.calls();
  const bool use_reduction = scenario_.pipeline.use_reduction;

  std::vector<Shard> shards(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    auto& sh = shards[static_cast<std::size_t>(i)];
    sh.rng = core::Rng(core::hash_key(scenario_.seed, 0x51Aa, i));
    sh.sink = eval::SlotMetricsSink(num_slots, num_links);
    // Seed the per-shard histograms with SimPerf's bucket layouts so the
    // shard-order merge below is a layout-identical (and thus bit-exact)
    // count addition.
    sh.assign_latency_us = SimPerf{}.assign_latency_us;
    sh.admission_latency_us = SimPerf{}.admission_latency_us;
    sh.call_duration_slots = SimPerf{}.call_duration_slots;
  }
  for (const auto& e :
       workload::build_event_stream(workload_.eval, scenario_.convergence_delay_slots))
    shards[static_cast<std::size_t>(shard_of(calls[e.call_index].id, num_shards))].queue.push(e);

  ShardedExecutor exec(num_shards, threads);
  SimResult result;
  result.scenario = scenario_.name;
  result.eval_slots = num_slots;
  result.threads = std::max(1, threads);

  // Per-shard accumulated job wall time (phases A+B and C together).
  std::vector<double> shard_seconds(static_cast<std::size_t>(num_shards), 0.0);
  const auto seconds_since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t).count();
  };
  if (trace_ != nullptr) {
    trace_->set_lane_name(0, "engine");
    for (int i = 0; i < num_shards; ++i)
      trace_->set_lane_name(1 + i, "shard " + std::to_string(i));
  }

  // Engine-level (cross-shard) per-slot stream: transit steering decisions.
  eval::SlotMetricsSink engine_sink(num_slots, num_links);
  std::uint64_t engine_checksum = 0xa0761d6478bd642fULL;

  std::size_t next_event = 0;
  core::SlotIndex next_replan = 0;
  for (core::SlotIndex s = 0; s < num_slots; ++s) {
    bool force_replan = false;
    while (next_event < events_.size() && events_[next_event].slot <= s) {
      apply_network_event(events_[next_event]);
      if (events_[next_event].kind != NetworkEventKind::kForecastBias) force_replan = true;
      ++next_event;
    }
    if (s >= next_replan || force_replan) {
      // A purely-forced replan (a disturbance firing between scheduled
      // replans) re-solves the *current* plan window against the damaged
      // network: the horizon anchor stays put, so the cached basis
      // transfers at shift 0 and the damage is pure rhs — exactly the
      // shape the dual simplex repairs. Scheduled replans (forced or not)
      // advance the window and the schedule as before. The current slot is
      // always inside the kept window: replan_interval <= timeslots.
      const bool scheduled = s >= next_replan;
      const auto r0 = std::chrono::steady_clock::now();
      {
        obs::Span span(trace_, "replan", "engine", 0);
        replan(scheduled ? s : plan_begin_, shards);
      }
      result.perf.replan_seconds += seconds_since(r0);
      result.plan_seconds += current_plan_.lp_seconds;
      result.forecast_seconds += current_plan_.forecast_seconds;
      ++result.replans;
      ReplanStat stat;
      stat.slot = s;
      stat.iterations = current_plan_.lp_iterations;
      stat.phase1_iterations = current_plan_.lp_phase1_iterations;
      stat.blocks_solved = current_plan_.lp_blocks_solved;
      stat.warm_started = current_plan_.lp_warm_started;
      stat.forced = force_replan;
      stat.attempts = current_plan_.lp_attempts;
      stat.solve_seconds = current_plan_.lp_seconds;
      stat.build_seconds = current_plan_.lp_build_seconds;
      stat.phase1_seconds = current_plan_.lp_phase1_seconds;
      stat.phase2_seconds = current_plan_.lp_phase2_seconds;
      stat.refactor_seconds = current_plan_.lp_refactor_seconds;
      stat.refactorizations = current_plan_.lp_refactorizations;
      result.replan_stats.push_back(stat);
      result.perf.lp_build_seconds += current_plan_.lp_build_seconds;
      result.perf.lp_phase1_seconds += current_plan_.lp_phase1_seconds;
      result.perf.lp_phase2_seconds += current_plan_.lp_phase2_seconds;
      result.perf.lp_refactor_seconds += current_plan_.lp_refactor_seconds;
      if (scheduled) next_replan = s + scenario_.replan_interval_slots;
    }

    const bool evacuate = evacuation_pending_;
    evacuation_pending_ = false;
    const std::map<int, double> partial_evac = std::move(partial_evac_);
    partial_evac_.clear();
    const core::SlotIndex abs_slot = history_slots_ + s;
    const core::SlotIndex t = s - plan_begin_;  // slot within the plan horizon

    // Deterministic per-call draw for partial-drain evacuation: a pure
    // function of (seed, call id, slot), so the evacuated subset is
    // identical at any shard/thread layout.
    const auto partial_pick = [&](core::CallId id, core::DcId dc) {
      const auto pit = partial_evac.find(dc.value());
      return pit != partial_evac.end() &&
             core::rng_at(scenario_.seed, 0xD7A1, static_cast<std::uint64_t>(id.value()),
                          static_cast<std::uint64_t>(s))
                 .chance(pit->second);
    };

    // Phase A+B: per shard, evacuate stranded calls, drain this slot's call
    // events, then account per-slot usage of the shard's active set.
    const auto ab0 = std::chrono::steady_clock::now();
    obs::Span ab_span(trace_, "events+usage", "engine", 0);
    exec.run_timed([&](int i) {
      obs::Span shard_span(trace_, "events+usage", "shard", 1 + i);
      auto& sh = shards[static_cast<std::size_t>(i)];
      sh.internet_load.clear();
      sh.converged_this_slot.clear();
      sh.region_cores.fill(0.0);

      // Force-reject one call whose evacuation found no live DC anywhere in
      // scope (fallback returned an invalid assignment): it cannot keep
      // running on capacity that no longer exists, so it leaves the
      // lifecycle sets as an explicit rejection, never a silent landing.
      const auto force_reject = [&](std::uint32_t idx) {
        const auto& call = calls[idx];
        ++sh.rejected;
        const auto region =
            country_region_[static_cast<std::size_t>(call.first_joiner.value())];
        ++sh.rejected_by_region[static_cast<std::size_t>(region)];
        sh.sink.add_rejected(s, region);
      };

      if (evacuate) {
        const auto on_dead_link = [&](core::CountryId country, core::DcId dc) {
          for (const auto lid : db_->topology().path(country, dc).links)
            if (dead_links_[static_cast<std::size_t>(lid.value())]) return true;
          return false;
        };
        // Re-target one stranded placement: plan first, nearest live DC
        // otherwise. A partially drained DC still holds plan weight, but
        // the chosen evacuation subset must actually leave it.
        const auto retarget = [&](std::uint32_t idx, const workload::CallConfig& config,
                                  core::CountryId first_joiner, bool partial, core::DcId from,
                                  std::uint32_t flag) {
          const auto picked = sh.plan.pick(config, t, sh.rng);
          titannext::Assignment target = picked.value_or(sh.controller->fallback(first_joiner));
          if (partial && target.dc == from) target = sh.controller->fallback(first_joiner, from);
          if (!target.valid()) {
            // Fallback exhausted every live in-scope DC: the call cannot be
            // re-homed and terminates in an explicit rejection.
            sh.checksum = mix_decision(sh.checksum, idx, core::DcId::invalid(),
                                       net::PathType::kWan, 0x20u);
            return target;
          }
          if (target.dc != from) {
            ++sh.forced_migrations;
            sh.sink.add_forced_migration(s);
          }
          sh.checksum = mix_decision(sh.checksum, idx, target.dc, target.path, flag);
          return target;
        };

        for (auto it = sh.active.begin(); it != sh.active.end();) {
          const auto idx = it->first;
          auto& ac = it->second;
          const auto& call = calls[idx];
          bool stranded = drained_dcs_[static_cast<std::size_t>(ac.dc.value())];
          const bool partial = !stranded && partial_pick(call.id, ac.dc);
          stranded |= partial;
          if (!stranded && ac.path == net::PathType::kWan) {
            const auto& config = workload_.eval.configs().get(call.config);
            for (const auto& [country, count] : config.participants)
              if (on_dead_link(country, ac.dc)) {
                stranded = true;
                break;
              }
          }
          if (!stranded) {
            ++it;
            continue;
          }
          const auto& config = workload_.eval.configs().get(call.config);
          const auto reduced = use_reduction ? workload::reduce(config).config : config;
          const auto target = retarget(idx, reduced, call.first_joiner, partial, ac.dc, 0x4u);
          if (!target.valid()) {
            force_reject(idx);
            it = sh.active.erase(it);
            continue;
          }
          ac.dc = target.dc;
          ac.path = target.path;
          ++it;
        }

        // Pending calls (arrived, not yet converged) hold an initial
        // assignment that can equally point at a drained DC or a severed
        // link; re-target it so the eventual convergence starts from a
        // live placement. The link check uses the first joiner's path —
        // the only participant the initial assignment was based on.
        for (auto it = sh.pending.begin(); it != sh.pending.end();) {
          const auto idx = it->first;
          auto& init = it->second;
          const auto& call = calls[idx];
          auto& assignment = init.assignment;
          bool stranded = drained_dcs_[static_cast<std::size_t>(assignment.dc.value())];
          const bool partial = !stranded && partial_pick(call.id, assignment.dc);
          stranded |= partial;
          if (!stranded && assignment.path == net::PathType::kWan)
            stranded = on_dead_link(call.first_joiner, assignment.dc);
          if (!stranded) {
            ++it;
            continue;
          }
          const auto target = retarget(idx, init.guessed_config, call.first_joiner, partial,
                                       assignment.dc, 0x10u);
          if (!target.valid()) {
            force_reject(idx);
            it = sh.pending.erase(it);
            continue;
          }
          assignment = target;
          ++it;
        }
      }

      while (sh.queue.due(s)) {
        const auto e = sh.queue.pop();
        ++sh.events;
        const auto& call = calls[e.call_index];
        switch (e.kind) {
          case workload::CallEventKind::kEnd:
            // A call can end before it ever converges (delayed convergence,
            // or a zero-length call whose end orders before its arrival);
            // drop it from both lifecycle sets.
            sh.active.erase(e.call_index);
            sh.pending.erase(e.call_index);
            break;
          case workload::CallEventKind::kArrival: {
            ++sh.calls;
            sh.sink.add_arrival(s);
            const auto region =
                country_region_[static_cast<std::size_t>(call.first_joiner.value())];
            sh.sink.add_region_arrival(s, region);
            sh.call_duration_slots.record(static_cast<double>(call.duration_slots));
            const auto& config = workload_.eval.configs().get(call.config);
            // Admission gate (overload regime): degrade first, shed past the
            // reject threshold. The verdict reads only the barrier-merged
            // previous-slot load ratios plus the call id, so it is identical
            // at any thread count.
            const auto ad0 = std::chrono::steady_clock::now();
            const auto verdict = sh.controller->admit(region, call.id, config.media);
            sh.admission_latency_us.record(
                std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                          ad0)
                    .count());
            const auto reject = [&] {
              ++sh.rejected;
              ++sh.rejected_by_region[static_cast<std::size_t>(region)];
              sh.sink.add_rejected(s, region);
              sh.checksum = mix_decision(sh.checksum, e.call_index, core::DcId::invalid(),
                                         net::PathType::kWan, 0x20u);
            };
            if (!verdict.admit) {
              // No pending entry: the later kConvergence/kEnd events find
              // nothing and no-op, so a shed call can never leak usage.
              reject();
              break;
            }
            const auto media = media::step_down(config.media, verdict.degrade_steps);
            const auto a0 = std::chrono::steady_clock::now();
            auto initial = sh.controller->assign_initial(call.first_joiner, media, t, sh.rng);
            sh.assign_latency_us.record(
                std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                          a0)
                    .count());
            if (!initial.assignment.valid()) {
              // Every in-scope DC drained: the fallback's explicit reject.
              reject();
              break;
            }
            initial.degrade_steps = verdict.degrade_steps;
            if (verdict.degrade_steps > 0) {
              ++sh.degraded;
              ++sh.degraded_by_region[static_cast<std::size_t>(region)];
              sh.sink.add_degraded(s, region);
            }
            if (!initial.from_plan) ++sh.fallbacks;
            sh.pending.emplace(e.call_index, std::move(initial));
            break;
          }
          case workload::CallEventKind::kConvergence: {
            const auto it = sh.pending.find(e.call_index);
            // Already ended (kEnd drained it this or an earlier slot):
            // never resurrect the call into the active set.
            if (it == sh.pending.end()) break;
            // kEnd = 0 orders before kConvergence at equal slots, so an end
            // due at or before this slot has already fired — except for a
            // zero-length call, whose end fired before its *arrival*. Its
            // pending entry must die here, not graduate.
            const core::SlotIndex end_slot = std::min<core::SlotIndex>(
                call.start_slot + call.duration_slots, num_slots);
            if (end_slot <= s) {
              sh.pending.erase(it);
              break;
            }
            const auto& config = workload_.eval.configs().get(call.config);
            const int degrade = it->second.degrade_steps;
            std::uint32_t flags = 0;
            const auto c0 = std::chrono::steady_clock::now();
            titannext::ConvergenceResult conv;
            if (degrade > 0) {
              // Admission stepped this call's media down at arrival; the
              // plan lookup must see the degraded shape the call actually
              // carries, not the full-quality one it asked for.
              workload::CallConfig effective = config;
              effective.media = media::step_down(config.media, degrade);
              conv = sh.controller->converge(it->second, effective, t, sh.rng);
              flags |= 0x40u;
            } else {
              conv = sh.controller->converge(it->second, config, t, sh.rng);
            }
            sh.assign_latency_us.record(
                std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                          c0)
                    .count());
            if (conv.dc_migration) {
              ++sh.dc_migrations;
              sh.sink.add_dc_migration(s);
              flags |= 0x1u;
            }
            if (conv.out_of_plan) {
              ++sh.out_of_plan;
              sh.sink.add_out_of_plan(s);
              flags |= 0x2u;
            }
            sh.active.insert_or_assign(
                e.call_index,
                Shard::ActiveCall{conv.final_assignment.dc, conv.final_assignment.path,
                                  static_cast<std::uint8_t>(degrade)});
            sh.pending.erase(it);
            sh.converged_this_slot.push_back(e.call_index);
            sh.checksum = mix_decision(sh.checksum, e.call_index, conv.final_assignment.dc,
                                       conv.final_assignment.path, flags);
            break;
          }
        }
      }

      // Per-slot usage of everything active in this shard.
      for (const auto& [idx, ac] : sh.active) {
        const auto& call = calls[idx];
        const auto& config = workload_.eval.configs().get(call.config);
        const auto dc_region = dc_region_[static_cast<std::size_t>(ac.dc.value())];
        sh.sink.add_region_active_call(s, dc_region);
        // A degraded call occupies its stepped-down media footprint — that
        // shrinkage (not just shedding) is how admission pulls the region's
        // load ratio back under the reject threshold.
        const auto effective_media =
            ac.degrade == 0 ? config.media : media::step_down(config.media, ac.degrade);
        const double bw_scale =
            ac.degrade == 0 ? 1.0
                            : media::bandwidth_per_participant(effective_media) /
                                  media::bandwidth_per_participant(config.media);
        int total = 0;
        for (const auto& [country, count] : config.participants) {
          total += count;
          const double bw = config.network_mbps_from(country) * bw_scale;
          if (ac.path == net::PathType::kWan) {
            for (const auto lid : db_->topology().path(country, ac.dc).links)
              sh.sink.add_wan_mbps(s, lid, bw);
            // Offered (per-pair, not per-link) WAN bandwidth, sliced by
            // where the hosting DC sits.
            sh.sink.add_region_wan_mbps(s, dc_region, bw);
          } else {
            sh.internet_load[{country.value(), ac.dc.value()}] += bw;
            sh.sink.add_internet_mbps(s, bw);
          }
        }
        sh.sink.add_participants(s, ac.path == net::PathType::kInternet ? total : 0, total);
        if (scenario_.admission_control)
          sh.region_cores[static_cast<std::size_t>(dc_region)] +=
              total * media::compute_per_participant(effective_media);
      }
    }, shard_seconds);
    ab_span.end();
    result.perf.event_apply_seconds += seconds_since(ab0);

    // Barrier: the load-dependent Internet metrics need the slot's total
    // offered load per pair across every shard (merged in shard order).
    const auto agg0 = std::chrono::steady_clock::now();
    obs::Span agg_span(trace_, "aggregate+quality", "engine", 0);
    std::map<std::pair<int, int>, double> pair_load;
    for (const auto& sh : shards)
      for (const auto& [pair, mbps] : sh.internet_load) pair_load[pair] += mbps;

    // Phase C: route-quality failover and the MOS proxy, against effective
    // (elasticity-aware) Internet quality at the merged load.
    exec.run_timed([&](int i) {
      obs::Span shard_span(trace_, "route+mos", "shard", 1 + i);
      auto& sh = shards[static_cast<std::size_t>(i)];
      sh.transit_steer.clear();
      for (auto& [idx, ac] : sh.active) {
        if (ac.path != net::PathType::kInternet) continue;
        const auto& call = calls[idx];
        const auto country = call.first_joiner;
        const auto it = pair_load.find({country.value(), ac.dc.value()});
        const double offered = it == pair_load.end() ? 0.0 : it->second;
        const double loss = db_->effective_internet_loss(country, ac.dc, abs_slot, offered);
        const double rtt = db_->effective_internet_rtt(country, ac.dc, abs_slot, offered);
        if (sh.controller->should_route_failover(country, ac.dc, loss, rtt)) {
          // §6.4: degraded Internet traffic moves to the WAN; never back.
          ac.path = net::PathType::kWan;
          ++sh.route_changes;
          sh.sink.add_route_change(s);
          sh.checksum = mix_decision(sh.checksum, idx, ac.dc, ac.path, 0x8u);
          // When the damage traces to a congested transit (not the
          // elasticity knee or a last-mile spike), flag the pair for
          // Titan's transit-steering response between slots.
          if (db_->loss().transit_congested(db_->loss().transit_for(country, ac.dc), abs_slot))
            sh.transit_steer.insert({country.value(), ac.dc.value()});
        }
      }
      const media::MosModel mos_model;
      for (const auto idx : sh.converged_this_slot) {
        const auto it = sh.active.find(idx);
        if (it == sh.active.end()) continue;
        const auto& ac = it->second;
        const auto& call = calls[idx];
        const auto& config = workload_.eval.configs().get(call.config);
        double loss = 0.0;
        if (ac.path == net::PathType::kInternet) {
          const auto lit = pair_load.find({call.first_joiner.value(), ac.dc.value()});
          loss = db_->effective_internet_loss(call.first_joiner, ac.dc, abs_slot,
                                              lit == pair_load.end() ? 0.0 : lit->second);
        } else {
          loss = db_->loss().slot_loss(call.first_joiner, ac.dc, net::PathType::kWan, abs_slot);
        }
        const double e2e = current_plan_.inputs->max_e2e_ms(config, ac.dc, ac.path);
        sh.sink.add_mos(s, mos_model.expected(e2e, loss, ac.degrade));
      }
    }, shard_seconds);

    // Transit failover (§4.2 finding 6, Titan's steering knob): every pair
    // whose route failover this slot traced to a congested transit moves to
    // the DC's next provider. Requests merge in shard order into one
    // ordered set, and the loss model mutates between slots only, so the
    // result is bit-identical at any thread count.
    std::set<std::pair<int, int>> steer;
    for (const auto& sh : shards)
      steer.insert(sh.transit_steer.begin(), sh.transit_steer.end());
    for (const auto& [country, dc] : steer) {
      db_->loss().fail_over(core::CountryId(country), core::DcId(dc));
      ++result.transit_failovers;
      engine_sink.add_transit_failover(s);
      engine_checksum = core::hash_mix(
          core::hash_mix(core::hash_mix(engine_checksum, static_cast<std::uint64_t>(s)),
                         static_cast<std::uint64_t>(country)),
          static_cast<std::uint64_t>(dc));
    }

    // Admission feedback: merge this slot's active compute per continent (in
    // shard index order — float addition order is fixed) against the plan's
    // aggregate capacity, and push the ratios identically to every shard
    // controller. Next slot's admission verdicts read this one-slot-lagged
    // state, so they are a pure function of (pushed state, call id) and
    // bit-identical at any thread count.
    if (scenario_.admission_control) {
      std::array<double, geo::kNumContinents> cores{};
      for (const auto& sh : shards)
        for (std::size_t r = 0; r < static_cast<std::size_t>(geo::kNumContinents); ++r)
          cores[r] += sh.region_cores[r];
      std::vector<double> ratio(geo::kNumContinents, 0.0);
      for (std::size_t r = 0; r < static_cast<std::size_t>(geo::kNumContinents); ++r) {
        const double cap =
            r < region_capacity_.size() ? region_capacity_[r] : 0.0;
        // Load on a region with zero plan capacity (every DC fully drained)
        // saturates the ratio: shed at the max_shed cap until it recovers.
        ratio[r] = cap > 0.0 ? cores[r] / cap : (cores[r] > 0.0 ? 10.0 : 0.0);
      }
      for (auto& sh : shards) sh.controller->set_admission_state(ratio);
    }
    agg_span.end();
    result.perf.metric_aggregation_seconds += seconds_since(agg0);
  }

  // Deterministic merge in shard index order.
  const auto merge0 = std::chrono::steady_clock::now();
  obs::Span merge_span(trace_, "final merge", "engine", 0);
  eval::SlotMetricsSink merged(num_slots, num_links);
  std::uint64_t checksum = 0x9e3779b97f4a7c15ULL;
  for (const auto& sh : shards) {
    merged.merge(sh.sink);
    result.perf.assign_latency_us.merge(sh.assign_latency_us);
    result.perf.admission_latency_us.merge(sh.admission_latency_us);
    result.perf.call_duration_slots.merge(sh.call_duration_slots);
    result.perf.events_processed += sh.events;
    result.calls += sh.calls;
    result.dc_migrations += sh.dc_migrations;
    result.route_changes += sh.route_changes;
    result.forced_migrations += sh.forced_migrations;
    result.out_of_plan += sh.out_of_plan;
    result.fallback_assignments += sh.fallbacks;
    result.rejected_calls += sh.rejected;
    result.degraded_calls += sh.degraded;
    for (std::size_t r = 0; r < static_cast<std::size_t>(geo::kNumContinents); ++r) {
      result.rejected_by_region[r] += sh.rejected_by_region[r];
      result.degraded_by_region[r] += sh.degraded_by_region[r];
    }
    checksum = core::hash_mix(checksum, sh.checksum);
    // Lifecycle audit: anything still active (or pending) whose end (or
    // convergence) event was due inside the window leaked — its usage
    // accrued past its lifetime.
    for (const auto& entry : sh.active) {
      const auto& call = calls[entry.first];
      const core::SlotIndex end_slot =
          std::min<core::SlotIndex>(call.start_slot + call.duration_slots, num_slots);
      if (end_slot < num_slots) ++result.leaked_calls;
    }
    for (const auto& entry : sh.pending) {
      const auto& call = calls[entry.first];
      const core::SlotIndex conv_slot = std::min<core::SlotIndex>(
          call.start_slot + scenario_.convergence_delay_slots, num_slots);
      if (conv_slot < num_slots) ++result.leaked_calls;
    }
  }
  merged.merge(engine_sink);
  checksum = core::hash_mix(checksum, engine_checksum);
  result.wan = merged.wan_usage();
  result.internet_share = merged.internet_share_overall();
  result.mean_mos = merged.mean_mos_overall();
  for (int r = 0; r < geo::kNumContinents; ++r) {
    const auto region = static_cast<geo::Continent>(r);
    result.calls_by_region[static_cast<std::size_t>(r)] =
        static_cast<std::int64_t>(merged.region_arrivals_total(region));
    result.wan_gb_by_region[static_cast<std::size_t>(r)] =
        merged.region_wan_mbps_total(region) * core::kSlotSeconds / 8.0 / 1000.0;
  }
  result.streams = std::move(merged);
  result.checksum = checksum;
  result.severed_links = severed_links_;
  merge_span.end();
  result.perf.metric_aggregation_seconds += seconds_since(merge0);
  for (const double sec : shard_seconds) result.perf.shard_work_seconds += sec;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace titan::sim
