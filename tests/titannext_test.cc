// Tests for Titan-Next: plan inputs (reduction/grouping, capacities,
// latency helpers), the Fig. 13 LP (constraint satisfaction, offload
// behaviour, ablations), the offline plan, the online controller, and the
// forecasting pipeline.
#include <gtest/gtest.h>

#include "sim/engine.h"
#include "titannext/controller.h"
#include "titannext/pipeline.h"

namespace titan::titannext {
namespace {

class TitanNextTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new geo::World(geo::World::make());
    db_ = new net::NetworkDb(*world_);
    workload::TraceOptions topts;
    topts.weeks = 3;  // 2 training + 1 eval
    topts.peak_slot_calls = 80.0;
    trace_ = new workload::Trace(workload::TraceGenerator(*world_).generate(topts));

    fractions_ = new std::map<std::pair<int, int>, double>();
    for (const auto c : world_->countries_in(geo::Continent::kEurope)) {
      const double f = db_->loss().internet_unusable(c) ? 0.0 : 0.20;
      for (const auto d : world_->dcs_in(geo::Continent::kEurope))
        (*fractions_)[{c.value(), d.value()}] = f;
    }
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete fractions_;
    delete db_;
    delete world_;
    world_ = nullptr;
    db_ = nullptr;
    trace_ = nullptr;
    fractions_ = nullptr;
  }

  static PlanScope small_scope() {
    PlanScope scope;
    scope.timeslots = 12;
    scope.max_reduced_configs = 25;
    return scope;
  }

  static geo::World* world_;
  static net::NetworkDb* db_;
  static workload::Trace* trace_;
  static std::map<std::pair<int, int>, double>* fractions_;
};

geo::World* TitanNextTest::world_ = nullptr;
net::NetworkDb* TitanNextTest::db_ = nullptr;
workload::Trace* TitanNextTest::trace_ = nullptr;
std::map<std::pair<int, int>, double>* TitanNextTest::fractions_ = nullptr;

// --- PlanInputs -----------------------------------------------------------------

TEST_F(TitanNextTest, DemandGroupingPreservesResources) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  const auto counts = trace_->config_counts();
  inputs.set_demand(trace_->configs(), counts, /*use_reduction=*/true);

  ASSERT_FALSE(inputs.demands().empty());
  ASSERT_LE(static_cast<int>(inputs.demands().size()), small_scope().max_reduced_configs);

  // Compare total bandwidth demand in slot 9 (a busy morning slot) between
  // grouped demands and raw configs restricted to the kept shapes.
  double grouped_bw = 0.0;
  for (const auto& d : inputs.demands())
    grouped_bw += d.units_per_slot[9] * d.config.network_mbps();
  double raw_bw = 0.0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const auto& config = trace_->configs().get(core::ConfigId(static_cast<int>(c)));
    const auto reduced = workload::reduce(config);
    if (inputs.demand_index(reduced.config) < 0) continue;
    raw_bw += counts[c][9] * config.network_mbps();
  }
  EXPECT_NEAR(grouped_bw, raw_bw, 1e-6);
}

TEST_F(TitanNextTest, ReductionShrinksConfigSpace) {
  PlanScope scope = small_scope();
  scope.max_reduced_configs = 100000;  // no truncation
  PlanInputs with(*db_, scope, *fractions_);
  with.set_demand(trace_->configs(), trace_->config_counts(), true);
  PlanInputs without(*db_, scope, *fractions_);
  without.set_demand(trace_->configs(), trace_->config_counts(), false);
  EXPECT_LT(with.demands().size(), without.demands().size());
}

TEST_F(TitanNextTest, CapacitiesArePositiveAndScale) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  double total_cap = 0.0, total_inet = 0.0;
  for (const auto dc : inputs.dcs()) {
    EXPECT_GT(inputs.dc_capacity(dc), 0.0);
    total_cap += inputs.dc_capacity(dc);
    total_inet += inputs.internet_capacity(dc);
  }
  EXPECT_GT(total_inet, 0.0);

  // internet_capacity_scale = 0 disables offload capacity entirely.
  PlanScope no_inet = small_scope();
  no_inet.internet_capacity_scale = 0.0;
  PlanInputs inputs0(*db_, no_inet, *fractions_);
  inputs0.set_demand(trace_->configs(), trace_->config_counts(), true);
  for (const auto dc : inputs0.dcs()) EXPECT_DOUBLE_EQ(inputs0.internet_capacity(dc), 0.0);
}

TEST_F(TitanNextTest, MaxE2eLatencyHelper) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  const auto fr = world_->find_country("france");
  const auto se = world_->find_country("sweden");
  const auto nl = world_->find_dc("netherlands");

  workload::CallConfig solo{{{fr, 1}}, media::MediaType::kAudio};
  workload::CallConfig pair{{{fr, 2}}, media::MediaType::kAudio};
  workload::CallConfig intl{{{fr, 1}, {se, 1}}, media::MediaType::kAudio};
  intl.canonicalize();

  const double one_way_fr = db_->latency().base_rtt_ms(fr, nl, net::PathType::kWan) / 2.0;
  const double one_way_se = db_->latency().base_rtt_ms(se, nl, net::PathType::kWan) / 2.0;
  EXPECT_NEAR(inputs.max_e2e_ms(solo, nl, net::PathType::kWan), 2 * one_way_fr, 1e-9);
  EXPECT_NEAR(inputs.max_e2e_ms(pair, nl, net::PathType::kWan), 2 * one_way_fr, 1e-9);
  EXPECT_NEAR(inputs.max_e2e_ms(intl, nl, net::PathType::kWan), one_way_fr + one_way_se,
              1e-9);
  EXPECT_NEAR(inputs.total_latency_ms(intl, nl, net::PathType::kWan),
              2 * one_way_fr + 2 * one_way_se, 1e-9);
}

// --- LP plan ---------------------------------------------------------------------

class PlanTest : public TitanNextTest {
 protected:
  static LpBuildOptions lp_options() {
    LpBuildOptions o;
    o.e2e_bound_ms = 120.0;
    return o;
  }
};

TEST_F(PlanTest, SolvesAndSatisfiesConstraints) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  const LpPlanResult result = solve_plan(inputs, lp_options());
  ASSERT_EQ(result.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(result.sum_of_wan_peaks_mbps, 0.0);

  // C1: every demand fully assigned in every slot.
  for (int t = 0; t < small_scope().timeslots; ++t) {
    for (std::size_t c = 0; c < inputs.demands().size(); ++c) {
      double assigned = 0.0;
      for (const auto& e : result.weights[static_cast<std::size_t>(t)][c].entries)
        assigned += e.units;
      EXPECT_NEAR(assigned, inputs.demands()[c].units_per_slot[static_cast<std::size_t>(t)],
                  1e-5);
    }
    // C2/C3: per-DC compute and Internet capacity.
    for (const auto dc : inputs.dcs()) {
      double cores = 0.0, inet = 0.0;
      for (std::size_t c = 0; c < inputs.demands().size(); ++c)
        for (const auto& e : result.weights[static_cast<std::size_t>(t)][c].entries) {
          if (e.dc != dc) continue;
          cores += e.units * inputs.demands()[c].config.compute_cores();
          if (e.path == net::PathType::kInternet)
            inet += e.units * inputs.demands()[c].config.network_mbps();
        }
      EXPECT_LE(cores, inputs.dc_capacity(dc) + 1e-4);
      EXPECT_LE(inet, inputs.internet_capacity(dc) + 1e-4);
    }
  }
}

TEST_F(PlanTest, OffloadReducesWanPeaks) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  const LpPlanResult with_offload = solve_plan(inputs, lp_options());

  PlanScope no_inet = small_scope();
  no_inet.internet_capacity_scale = 0.0;
  PlanInputs inputs0(*db_, no_inet, *fractions_);
  inputs0.set_demand(trace_->configs(), trace_->config_counts(), true);
  const LpPlanResult without = solve_plan(inputs0, lp_options());

  ASSERT_EQ(with_offload.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(without.status, lp::SolveStatus::kOptimal);
  EXPECT_LT(with_offload.sum_of_wan_peaks_mbps, without.sum_of_wan_peaks_mbps);

  // Doubling the Internet envelope can only help (§7.4's 2x ablation).
  PlanScope doubled = small_scope();
  doubled.internet_capacity_scale = 2.0;
  PlanInputs inputs2(*db_, doubled, *fractions_);
  inputs2.set_demand(trace_->configs(), trace_->config_counts(), true);
  const LpPlanResult more = solve_plan(inputs2, lp_options());
  ASSERT_EQ(more.status, lp::SolveStatus::kOptimal);
  EXPECT_LE(more.sum_of_wan_peaks_mbps, with_offload.sum_of_wan_peaks_mbps + 1e-6);
}

TEST_F(PlanTest, TighterE2eBoundCostsPeaks) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);

  LpBuildOptions loose = lp_options();
  loose.e2e_bound_ms = 200.0;
  LpBuildOptions tight = lp_options();
  tight.e2e_bound_ms = 40.0;
  const auto l = solve_plan(inputs, loose);
  const auto t = solve_plan(inputs, tight);
  ASSERT_EQ(l.status, lp::SolveStatus::kOptimal);
  // Tight bound is either infeasible or at least as expensive.
  if (t.status == lp::SolveStatus::kOptimal)
    EXPECT_GE(t.sum_of_wan_peaks_mbps, l.sum_of_wan_peaks_mbps - 1e-6);
  // Unreasonably tight bound must be infeasible.
  LpBuildOptions impossible = lp_options();
  impossible.e2e_bound_ms = 1.0;
  EXPECT_EQ(solve_plan(inputs, impossible).status, lp::SolveStatus::kInfeasible);
}

TEST_F(PlanTest, LocalityObjectiveGetsLowerLatencyThanPeaksObjective) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);

  LpBuildOptions lf;
  lf.objective = Objective::kMinimizeTotalLatency;
  lf.e2e_bound_ms = 0.0;
  const auto lf_result = solve_plan(inputs, lf);
  const auto tn_result = solve_plan(inputs, lp_options());
  ASSERT_EQ(lf_result.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(tn_result.status, lp::SolveStatus::kOptimal);

  auto avg_latency = [&](const LpPlanResult& r) {
    double lat = 0.0, units = 0.0;
    for (int t = 0; t < small_scope().timeslots; ++t)
      for (std::size_t c = 0; c < inputs.demands().size(); ++c)
        for (const auto& e : r.weights[static_cast<std::size_t>(t)][c].entries) {
          lat += e.units *
                 inputs.total_latency_ms(inputs.demands()[c].config, e.dc, e.path);
          units += e.units;
        }
    return lat / units;
  };
  EXPECT_LE(avg_latency(lf_result), avg_latency(tn_result) + 1e-6);
  // And TN's WAN peaks are no worse than LF's.
  EXPECT_LE(tn_result.sum_of_wan_peaks_mbps, lf_result.sum_of_wan_peaks_mbps + 1e-6);
}

// --- Offline plan + controller ------------------------------------------------------

TEST_F(PlanTest, OfflinePlanPickFollowsWeights) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  OfflinePlan plan(&inputs, solve_plan(inputs, lp_options()));
  ASSERT_TRUE(plan.valid());

  // Find a demand with traffic in slot 9.
  const auto& demands = inputs.demands();
  int c = -1;
  for (std::size_t i = 0; i < demands.size(); ++i)
    if (demands[i].units_per_slot[9] > 0.5) {
      c = static_cast<int>(i);
      break;
    }
  ASSERT_GE(c, 0);
  core::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto a = plan.pick(demands[static_cast<std::size_t>(c)].config, 9, rng);
    ASSERT_TRUE(a.has_value());
    EXPECT_TRUE(plan.supports(demands[static_cast<std::size_t>(c)].config, 9, a->dc));
  }
  // Unknown shape -> no pick.
  workload::CallConfig unknown{{{world_->find_country("japan"), 1}},
                               media::MediaType::kAudio};
  EXPECT_FALSE(plan.pick(unknown, 9, rng).has_value());
}

// Pins the single-resolution contract: the shape overload resolves the
// demand index exactly once and delegates, so a pick/supports sequence
// through shapes is bit-identical to the same sequence through demand ids
// (pick used to resolve the same shape twice per call — once in
// weights_for, once for the credit row).
TEST_F(PlanTest, OfflinePlanShapeAndIdLookupsAgree) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  const auto result = solve_plan(inputs, lp_options());
  OfflinePlan by_shape(&inputs, result);
  OfflinePlan by_id(&inputs, result);
  ASSERT_TRUE(by_shape.valid());

  core::Rng rng_shape(7), rng_id(7);
  const auto& demands = inputs.demands();
  for (int t = 0; t < small_scope().timeslots; ++t) {
    for (std::size_t c = 0; c < demands.size(); ++c) {
      const int idx = inputs.demand_index(demands[c].config);
      ASSERT_EQ(idx, static_cast<int>(c));
      const auto a = by_shape.pick(demands[c].config, t, rng_shape);
      const auto b = by_id.pick(idx, t, rng_id);
      ASSERT_EQ(a.has_value(), b.has_value()) << "t=" << t << " c=" << c;
      if (a.has_value()) {
        EXPECT_EQ(a->dc, b->dc);
        EXPECT_EQ(a->path, b->path);
        EXPECT_EQ(by_shape.supports(demands[c].config, t, a->dc),
                  by_id.supports(idx, t, b->dc));
      }
    }
  }
  // Both rngs consumed identically: the next draw agrees.
  EXPECT_DOUBLE_EQ(rng_shape.uniform(), rng_id.uniform());
}

// An all-zero-units weight row (the LP can emit ~0-weight entries) must be
// out of plan, not a division by zero: before the guard the zero total
// produced NaN credits that stuck to the WRR state and poisoned every
// later pick of that demand.
TEST_F(PlanTest, OfflinePlanZeroTotalWeightsAreOutOfPlan) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  ASSERT_GE(inputs.demands().size(), 2u);
  const auto dc0 = inputs.dcs().at(0);
  const auto dc1 = inputs.dcs().at(1);

  LpPlanResult result;
  result.status = lp::SolveStatus::kOptimal;
  result.weights.assign(static_cast<std::size_t>(small_scope().timeslots),
                        std::vector<AssignmentWeights>(inputs.demands().size()));
  for (auto& row : result.weights) {
    row[0].entries = {{dc0, net::PathType::kWan, 0.0}};  // zero total
    row[1].entries = {{dc0, net::PathType::kWan, 1.0}, {dc1, net::PathType::kWan, 1.0}};
  }
  const OfflinePlan plan(&inputs, std::move(result));
  core::Rng rng(11);

  // The zero-total demand is out of plan at every slot...
  EXPECT_FALSE(plan.pick(0, 0, rng).has_value());
  // ...and interleaving it does not disturb the healthy demand's WRR
  // state: 50/50 weights keep realizing an exact alternation.
  int at_dc0 = 0, at_dc1 = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(plan.pick(0, i % small_scope().timeslots, rng).has_value());
    const auto a = plan.pick(1, i % small_scope().timeslots, rng);
    ASSERT_TRUE(a.has_value());
    (a->dc == dc0 ? at_dc0 : at_dc1) += 1;
  }
  EXPECT_EQ(at_dc0, 5);
  EXPECT_EQ(at_dc1, 5);
}

// The credit-carryover bugfix: at a rolling replan cadence the smoothing
// window per plan generation is short (here: two picks), and restarting
// the credits every swap degenerates smooth WRR toward round-robin — a
// 70/30 plan realizes 50/50. Carrying the (dc, path) credits across the
// swap keeps the realized shares tracking the plan weights.
TEST_F(PlanTest, CreditCarryoverKeepsRollingSharesOnPlan) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  const auto dc0 = inputs.dcs().at(0);
  const auto dc1 = inputs.dcs().at(1);

  const auto make_plan = [&] {
    LpPlanResult result;
    result.status = lp::SolveStatus::kOptimal;
    result.weights.assign(static_cast<std::size_t>(small_scope().timeslots),
                          std::vector<AssignmentWeights>(inputs.demands().size()));
    for (auto& row : result.weights)
      row[0].entries = {{dc0, net::PathType::kWan, 0.7}, {dc1, net::PathType::kWan, 0.3}};
    return OfflinePlan(&inputs, std::move(result));
  };

  constexpr int kGenerations = 10;   // replans
  constexpr int kPicksPerGen = 2;    // calls between replans (rolling cadence)
  const auto realized_dc0_share = [&](bool carry) {
    core::Rng rng(13);
    OfflinePlan current = make_plan();
    int at_dc0 = 0;
    for (int g = 0; g < kGenerations; ++g) {
      if (g > 0) {
        // The replan loop's swap: a freshly constructed plan generation.
        OfflinePlan fresh = make_plan();
        if (carry) fresh.carry_credits_from(current);
        current = std::move(fresh);
      }
      for (int k = 0; k < kPicksPerGen; ++k) {
        const auto a = current.pick(0, (g * kPicksPerGen + k) % small_scope().timeslots, rng);
        if (!a.has_value()) {
          ADD_FAILURE() << "no pick in generation " << g;
          return -1.0;
        }
        if (a->dc == dc0) ++at_dc0;
      }
    }
    return static_cast<double>(at_dc0) / (kGenerations * kPicksPerGen);
  };

  // Without the carry each two-pick generation starts from zero credits and
  // serves one call per DC: exactly the round-robin 50/50 drift.
  EXPECT_NEAR(realized_dc0_share(/*carry=*/false), 0.5, 1e-9);
  // With the carry the shares track the 70/30 plan weights (exact at this
  // pick count: smooth WRR realizes 14/6 over 20).
  EXPECT_NEAR(realized_dc0_share(/*carry=*/true), 0.7, 1e-9);
}

TEST_F(PlanTest, ControllerAssignsAndConverges) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  OfflinePlan plan(&inputs, solve_plan(inputs, lp_options()));
  ASSERT_TRUE(plan.valid());
  OnlineController controller(inputs, plan);
  core::Rng rng(6);

  const auto fr = world_->find_country("france");
  const auto initial = controller.assign_initial(fr, media::MediaType::kAudio, 9, rng);
  EXPECT_TRUE(initial.assignment.dc.valid());

  // Converging on the guessed intra-country config itself never migrates.
  workload::CallConfig intra{{{fr, 3}}, media::MediaType::kAudio};
  const auto same = controller.converge(initial, intra, 9, rng);
  EXPECT_FALSE(same.dc_migration);

  // Converging on an out-of-plan config keeps the call in place.
  workload::CallConfig unknown{{{world_->find_country("japan"), 1}},
                               media::MediaType::kAudio};
  const auto odd = controller.converge(initial, unknown, 9, rng);
  EXPECT_TRUE(odd.out_of_plan);
  EXPECT_FALSE(odd.dc_migration);
  EXPECT_EQ(odd.final_assignment.dc, initial.assignment.dc);
}

TEST_F(PlanTest, ControllerRouteFailoverThresholds) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  OfflinePlan plan(&inputs, solve_plan(inputs, lp_options()));
  OnlineController controller(inputs, plan);
  const auto fr = world_->find_country("france");
  const auto nl = world_->find_dc("netherlands");
  const double wan_rtt = db_->latency().base_rtt_ms(fr, nl, net::PathType::kWan);
  EXPECT_TRUE(controller.should_route_failover(fr, nl, 0.02, wan_rtt));
  EXPECT_TRUE(controller.should_route_failover(fr, nl, 0.0, wan_rtt * 2.0));
  EXPECT_FALSE(controller.should_route_failover(fr, nl, 0.001, wan_rtt * 1.1));
}

TEST_F(PlanTest, FallbackIsNearestDc) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  OfflinePlan plan(&inputs, solve_plan(inputs, lp_options()));
  OnlineController controller(inputs, plan);
  const auto ie = world_->find_country("ireland");
  const auto fb = controller.fallback(ie);
  EXPECT_EQ(fb.dc, world_->find_dc("ireland"));
  EXPECT_EQ(fb.path, net::PathType::kWan);
}

TEST_F(PlanTest, FallbackExcludePrefersLiveDcs) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  OfflinePlan plan(&inputs, solve_plan(inputs, lp_options()));
  OnlineController controller(inputs, plan);
  const auto ie = world_->find_country("ireland");
  const auto ie_dc = world_->find_dc("ireland");

  // Excluding the nearest DC moves the call to the next-best live DC.
  const auto fb = controller.fallback(ie, ie_dc);
  EXPECT_TRUE(fb.dc.valid());
  EXPECT_NE(fb.dc, ie_dc);

  // With every other DC fully drained, the excluded-but-live DC wins over
  // any drained one (a partial drain beats a dead DC).
  for (const auto dc : inputs.dcs())
    if (dc != ie_dc) db_->set_dc_compute_scale(dc, 0.0);
  EXPECT_EQ(controller.fallback(ie, ie_dc).dc, ie_dc);

  // Everything drained: the fallback refuses to land on dead capacity and
  // returns the explicit-reject invalid assignment instead.
  db_->set_dc_compute_scale(ie_dc, 0.0);
  EXPECT_FALSE(controller.fallback(ie, ie_dc).valid());

  // The fixture's NetworkDb is suite-shared; restore the scales.
  for (const auto dc : inputs.dcs()) db_->set_dc_compute_scale(dc, 1.0);
}

// --- warm-started replans --------------------------------------------------------

// Re-solving the same inputs through the warm cache transfers the full
// basis: the remap is the identity and the second solve finishes without a
// single pivot, at the same plan.
TEST_F(PlanTest, WarmCacheResolveOfSameInputsDoesZeroIterations) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);

  WarmStartCache cache;
  const LpPlanResult first = solve_plan(inputs, lp_options(), &cache);
  ASSERT_EQ(first.status, lp::SolveStatus::kOptimal);
  EXPECT_FALSE(first.warm_started);
  ASSERT_TRUE(cache.last.valid());
  EXPECT_EQ(cache.last.shapes.size(), inputs.demands().size());

  const auto remapped = remap_basis(cache.last, inputs, lp_options(), 0);
  ASSERT_TRUE(remapped.has_value());
  EXPECT_EQ(*remapped, cache.last.basis);

  const LpPlanResult again = solve_plan(inputs, lp_options(), &cache);
  ASSERT_EQ(again.status, lp::SolveStatus::kOptimal);
  EXPECT_TRUE(again.warm_started);
  EXPECT_EQ(again.iterations, 0);
  EXPECT_NEAR(again.objective, first.objective, 1e-9);
}

// The shift-aware remap: a disjoint window (shift >= horizon) transfers
// nothing, an overlapping shift produces a full-size candidate basis, and a
// changed horizon refuses outright.
TEST_F(PlanTest, RemapBasisRespectsWindowOverlap) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);
  WarmStartCache cache;
  ASSERT_EQ(solve_plan(inputs, lp_options(), &cache).status, lp::SolveStatus::kOptimal);

  EXPECT_FALSE(remap_basis(cache.last, inputs, lp_options(), small_scope().timeslots)
                   .has_value());
  EXPECT_FALSE(remap_basis(cache.last, inputs, lp_options(), -1).has_value());

  const auto shifted = remap_basis(cache.last, inputs, lp_options(), 3);
  ASSERT_TRUE(shifted.has_value());
  EXPECT_EQ(shifted->entries.size(), cache.last.basis.entries.size());

  PlanScope longer = small_scope();
  longer.timeslots = 16;
  PlanInputs other(*db_, longer, *fractions_);
  other.set_demand(trace_->configs(), trace_->config_counts(), true);
  EXPECT_FALSE(remap_basis(cache.last, other, lp_options(), 0).has_value());
}

// The closed-loop contract on a steady-week trace at the production
// (rolling-horizon) cadence: replans after the first warm-start from the
// cached basis and spend strictly fewer simplex iterations than the cold
// first replan — and fewer than the same loop with warm replans disabled.
TEST_F(PlanTest, RollingReplansWarmStartWithFewerIterations) {
  sim::Scenario s = sim::make_scenario("steady-week");
  s.training_weeks = 1;
  s.eval_days = 1;
  s.peak_slot_calls = 40.0;
  s.shards = 8;
  s.oracle_counts = true;
  s.pipeline.scope.timeslots = 24;
  s.replan_interval_slots = 4;  // rolling horizon: windows overlap 20/24
  s.pipeline.scope.max_reduced_configs = 20;

  sim::SimEngine engine(s);
  const auto r = engine.run(2);
  ASSERT_GE(r.replans, 3);
  ASSERT_EQ(r.replan_stats.size(), static_cast<std::size_t>(r.replans));
  const auto& first = r.replan_stats.front();
  EXPECT_FALSE(first.warm_started);
  EXPECT_GT(first.iterations, 0);

  int warm = 0, cheaper_than_first = 0;
  long long later_iterations = 0;
  for (std::size_t i = 1; i < r.replan_stats.size(); ++i) {
    const auto& stat = r.replan_stats[i];
    later_iterations += stat.iterations;
    if (stat.warm_started) {
      ++warm;
      cheaper_than_first += stat.iterations < first.iterations;
    }
  }
  EXPECT_GT(warm, 0) << "no replan warm-started on an overlapping horizon";
  // Most warm replans individually undercut the cold first replan (an
  // occasional heavy-repair one may not — the demand set shifts hardest
  // around the night/day transition), and the aggregate strictly beats
  // repeating the first cold solve.
  EXPECT_GT(2 * cheaper_than_first, warm);
  EXPECT_LT(later_iterations,
            static_cast<long long>(r.replan_stats.size() - 1) * first.iterations);

  // ...and beats the identical loop with warm replans disabled.
  sim::Scenario cold_scenario = s;
  cold_scenario.warm_replans = false;
  sim::SimEngine cold_engine(cold_scenario);
  const auto cold = cold_engine.run(2);
  long long cold_later = 0;
  for (std::size_t i = 1; i < cold.replan_stats.size(); ++i) {
    cold_later += cold.replan_stats[i].iterations;
    EXPECT_FALSE(cold.replan_stats[i].warm_started);
  }
  EXPECT_LT(later_iterations, cold_later);
}

// --- region-block decomposition --------------------------------------------------

// A multi-region NA+EU world for the decomposition tests: trace, scope and
// a constant fractions map spanning both continents. The fixture trace is
// Europe-only, so these tests generate their own (small) one.
struct MultiRegionSetup {
  workload::Trace trace;
  // Per-config counts sliced to the plan window (see below) — feed these
  // to set_demand, not trace.config_counts().
  std::vector<std::vector<double>> counts;
  PlanScope scope;
  std::map<std::pair<int, int>, double> fractions;
};

MultiRegionSetup make_na_eu_setup(const geo::World& world, const net::NetworkDb& db) {
  const geo::RegionSet regions({geo::Continent::kNorthAmerica, geo::Continent::kEurope});
  workload::TraceOptions topts;
  topts.weeks = 2;
  topts.peak_slot_calls = 50.0;
  topts.regions = regions;
  topts.cross_region_fraction = 0.35;

  MultiRegionSetup s{workload::TraceGenerator(world).generate(topts), {}, {}, {}};
  s.scope.regions = regions;
  s.scope.timeslots = 12;
  s.scope.max_reduced_configs = 20;
  // Per-DC plan capacity is the global peak split by provisioned share, so
  // a region block is only standalone-feasible when its DCs' share covers
  // its regional peak — at the default headroom the EU block is not, its
  // demands get promoted to the coupling LP, and nothing decomposes. The
  // multi-region scenarios raise the headroom for the same reason.
  s.scope.compute_headroom = 3.0;
  // Window the demand onto UTC 16:00-22:00 (slot 32 on): EU evening and NA
  // midday, so the top-K demand set keeps shapes homed on both sides plus
  // a cross-continent shape for the coupling LP. A window at UTC midnight
  // would see only NA traffic and leave the EU block empty.
  s.counts = s.trace.config_counts();
  for (auto& series : s.counts) series.erase(series.begin(), series.begin() + 32);
  for (const auto c : geo::countries_in(world, regions)) {
    const double f = db.loss().internet_unusable(c) ? 0.0 : 0.20;
    for (const auto d : geo::dcs_in(world, regions)) s.fractions[{c.value(), d.value()}] = f;
  }
  return s;
}

// On a single-region scope the forced decomposition has exactly one block
// owning every DC and every demand, and that block's model IS the
// monolithic model — so kForce must reproduce the kOff plan bit for bit
// (the equivalence the single-region golden checksums rely on via kAuto).
TEST_F(PlanTest, ForcedDecompositionMatchesMonolithicOnSingleRegionScope) {
  PlanInputs inputs(*db_, small_scope(), *fractions_);
  inputs.set_demand(trace_->configs(), trace_->config_counts(), true);

  LpBuildOptions off = lp_options();
  off.decomposition = Decomposition::kOff;
  LpBuildOptions force = lp_options();
  force.decomposition = Decomposition::kForce;

  const LpPlanResult mono = solve_plan(inputs, off);
  const LpPlanResult dec = solve_plan(inputs, force);
  ASSERT_EQ(mono.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(dec.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(mono.blocks_solved, 0);
  EXPECT_EQ(dec.blocks_solved, 1);

  // Identical model + identical (cold) solve: exact equality, not "near".
  EXPECT_EQ(dec.objective, mono.objective);
  EXPECT_EQ(dec.sum_of_wan_peaks_mbps, mono.sum_of_wan_peaks_mbps);
  EXPECT_EQ(dec.iterations, mono.iterations);
  ASSERT_EQ(dec.weights.size(), mono.weights.size());
  for (std::size_t t = 0; t < mono.weights.size(); ++t) {
    ASSERT_EQ(dec.weights[t].size(), mono.weights[t].size());
    for (std::size_t c = 0; c < mono.weights[t].size(); ++c) {
      const auto& a = mono.weights[t][c].entries;
      const auto& b = dec.weights[t][c].entries;
      ASSERT_EQ(a.size(), b.size()) << "t=" << t << " c=" << c;
      for (std::size_t e = 0; e < a.size(); ++e) {
        EXPECT_EQ(a[e].dc, b[e].dc);
        EXPECT_EQ(a[e].path, b[e].path);
        EXPECT_EQ(a[e].units, b[e].units);
      }
    }
  }
}

// A genuine NA+EU scope under the default policy (kAuto) splits into two
// region blocks plus a coupling LP over the cross-continent demands. The
// composed plan is feasible for the monolithic LP, so its cost can only
// meet or exceed the monolithic optimum — and every demand stays fully
// assigned.
TEST_F(PlanTest, MultiRegionScopeDecomposesIntoRegionBlocks) {
  const auto setup = make_na_eu_setup(*world_, *db_);
  PlanInputs inputs(*db_, setup.scope, setup.fractions);
  inputs.set_demand(setup.trace.configs(), setup.counts, true);
  ASSERT_GT(inputs.demands().size(), 0u);

  // The demand set must actually exercise the partition: shapes homed on
  // each continent plus at least one cross-continent shape for the
  // coupling LP (deterministic — the trace seed is fixed).
  int cross_demands = 0;
  for (const auto& d : inputs.demands()) {
    bool na = false, eu = false;
    for (const auto& [country, count] : d.config.participants) {
      const auto cont = world_->country(country).continent;
      na = na || cont == geo::Continent::kNorthAmerica;
      eu = eu || cont == geo::Continent::kEurope;
    }
    if (na && eu) ++cross_demands;
  }
  ASSERT_GT(cross_demands, 0);

  const LpPlanResult dec = solve_plan(inputs, lp_options());  // kAuto default
  ASSERT_EQ(dec.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(dec.blocks_solved, 2) << "NA+EU scope did not decompose into two blocks";
  EXPECT_FALSE(dec.warm_started);

  LpBuildOptions off = lp_options();
  off.decomposition = Decomposition::kOff;
  const LpPlanResult mono = solve_plan(inputs, off);
  ASSERT_EQ(mono.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(mono.blocks_solved, 0);
  EXPECT_GE(dec.sum_of_wan_peaks_mbps, mono.sum_of_wan_peaks_mbps - 1e-6);

  // C1 on the composed plan: every demand fully assigned in every slot.
  for (int t = 0; t < setup.scope.timeslots; ++t)
    for (std::size_t c = 0; c < inputs.demands().size(); ++c) {
      double assigned = 0.0;
      for (const auto& e : dec.weights[static_cast<std::size_t>(t)][c].entries)
        assigned += e.units;
      EXPECT_NEAR(assigned,
                  inputs.demands()[c].units_per_slot[static_cast<std::size_t>(t)], 1e-5);
    }
}

// remap_basis across a region-set change: growing the scope (EU -> NA+EU)
// keeps the surviving EU labels and completes the new NA columns/rows with
// slacks, shrinking it drops the vanished NA labels — both directions
// produce a usable candidate and the warm solve lands on the cold
// objective. Both solves share one trace so the demand shapes overlap.
TEST_F(PlanTest, RemapBasisSurvivesRegionEnterAndLeave) {
  const auto setup = make_na_eu_setup(*world_, *db_);
  // Monolithic both ways (the decomposed path keeps per-block contexts
  // instead of `last`), C4 off so the EU-only solve of the NA-heavy trace
  // stays feasible.
  LpBuildOptions options = lp_options();
  options.decomposition = Decomposition::kOff;
  options.e2e_bound_ms = -1.0;

  PlanScope eu_scope = setup.scope;
  eu_scope.regions = geo::Continent::kEurope;
  PlanInputs eu(*db_, eu_scope, setup.fractions);
  eu.set_demand(setup.trace.configs(), setup.counts, true);
  PlanInputs both(*db_, setup.scope, setup.fractions);
  both.set_demand(setup.trace.configs(), setup.counts, true);
  ASSERT_GT(both.dcs().size(), eu.dcs().size());

  // Region enter: EU basis remapped onto the NA+EU model.
  WarmStartCache cache;
  ASSERT_EQ(solve_plan(eu, options, &cache).status, lp::SolveStatus::kOptimal);
  ASSERT_TRUE(cache.last.valid());
  const std::size_t eu_basis_size = cache.last.basis.entries.size();
  const auto entered = remap_basis(cache.last, both, options, 0);
  ASSERT_TRUE(entered.has_value()) << "region enter produced no candidate basis";
  EXPECT_GT(entered->entries.size(), eu_basis_size);

  const LpPlanResult cold_both = solve_plan(both, options);
  const LpPlanResult warm_both = solve_plan(both, options, &cache);
  ASSERT_EQ(warm_both.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(warm_both.objective, cold_both.objective,
              1e-6 * std::max(1.0, std::abs(cold_both.objective)));
  EXPECT_EQ(cache.last.dcs.size(), both.dcs().size());

  // Region leave: the NA+EU basis remapped back onto the EU-only model.
  const auto left = remap_basis(cache.last, eu, options, 0);
  ASSERT_TRUE(left.has_value()) << "region leave produced no candidate basis";
  EXPECT_LT(left->entries.size(), cache.last.basis.entries.size());

  const LpPlanResult cold_eu = solve_plan(eu, options);
  const LpPlanResult warm_eu = solve_plan(eu, options, &cache);
  ASSERT_EQ(warm_eu.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(warm_eu.objective, cold_eu.objective,
              1e-6 * std::max(1.0, std::abs(cold_eu.objective)));
}

// Decomposed replans carry one warm context per region block: re-solving
// the same NA+EU inputs warm-starts both blocks (identity remap) and beats
// the first solve's pivot count — only the small coupling LP stays cold.
TEST_F(PlanTest, DecomposedReplansWarmStartPerBlock) {
  const auto setup = make_na_eu_setup(*world_, *db_);
  PlanInputs inputs(*db_, setup.scope, setup.fractions);
  inputs.set_demand(setup.trace.configs(), setup.counts, true);

  WarmStartCache cache;
  const LpPlanResult first = solve_plan(inputs, lp_options(), &cache);
  ASSERT_EQ(first.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(first.blocks_solved, 2);
  EXPECT_FALSE(first.warm_started);
  EXPECT_EQ(cache.blocks.size(), 2u);
  for (const auto& [continent, ctx] : cache.blocks) EXPECT_TRUE(ctx.valid());

  const LpPlanResult again = solve_plan(inputs, lp_options(), &cache);
  ASSERT_EQ(again.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(again.blocks_solved, 2);
  EXPECT_TRUE(again.warm_started);
  EXPECT_LT(again.iterations, first.iterations);
  EXPECT_NEAR(again.objective, first.objective,
              1e-6 * std::max(1.0, std::abs(first.objective)));
}

// A disturbance-forced replan at a rolling cadence KEEPS the warm cache
// and repairs the rhs damage through the restoration pass instead of
// re-solving cold — every one of them. (The dual simplex that used to try
// first warm-started only 2 of these 6 forced replans.)
TEST_F(PlanTest, DisturbanceForcedReplansWarmStart) {
  sim::Scenario s = sim::make_scenario("steady-week");
  s.training_weeks = 1;
  s.eval_days = 1;
  s.peak_slot_calls = 40.0;
  s.shards = 8;
  s.oracle_counts = true;
  s.pipeline.scope.timeslots = 24;
  s.replan_interval_slots = 4;  // rolling horizon: forced replans overlap
  s.pipeline.scope.max_reduced_configs = 20;

  // Partial drains of a busy DC mid-morning: pure rhs damage (plan compute
  // capacity shrinks), which the restoration pass repairs.
  for (const int slot : {9, 13, 17}) {
    sim::Disturbance drain;
    drain.kind = sim::NetworkEventKind::kDcDrain;
    drain.day = 0;
    drain.slot_in_day = slot;
    drain.duration_slots = 2;
    drain.dc = "netherlands";
    drain.magnitude = 0.4;  // keep 40% of compute
    s.disturbances.push_back(drain);
  }

  sim::SimEngine engine(s);
  const auto r = engine.run(2);
  ASSERT_EQ(r.replan_stats.size(), static_cast<std::size_t>(r.replans));

  int forced = 0, forced_warm = 0;
  for (const auto& stat : r.replan_stats) {
    if (!stat.forced) continue;
    ++forced;
    if (stat.warm_started) ++forced_warm;
  }
  ASSERT_GT(forced, 0) << "no disturbance forced a replan";
  EXPECT_EQ(forced_warm, forced) << "a forced replan fell back cold";
}

// --- Pipeline / forecasting -----------------------------------------------------

TEST_F(TitanNextTest, ForecastCountsShapes) {
  const auto history = trace_->config_counts();
  const int train_slots = 2 * core::kSlotsPerWeek;
  const auto fc = forecast_counts(history, train_slots, core::kSlotsPerDay, 20);
  ASSERT_EQ(fc.counts.size(), history.size());
  EXPECT_EQ(fc.hw_configs, 20);
  for (const auto& series : fc.counts) {
    ASSERT_EQ(series.size(), static_cast<std::size_t>(core::kSlotsPerDay));
    for (const double v : series) EXPECT_GE(v, 0.0);
  }
}

TEST_F(TitanNextTest, ForecastAccuracyOnTopConfigs) {
  // Fig. 20's headline: small normalized errors for high-volume configs.
  const auto history = trace_->config_counts();
  const int train_slots = 2 * core::kSlotsPerWeek;
  const auto fc = forecast_counts(history, train_slots, core::kSlotsPerDay, 15);

  const auto by_volume = trace_->configs_by_volume();
  std::vector<double> maes;
  for (int rank = 0; rank < 10; ++rank) {
    const auto cfg = static_cast<std::size_t>(by_volume[static_cast<std::size_t>(rank)].value());
    std::vector<double> actual(history[cfg].begin() + train_slots,
                               history[cfg].begin() + train_slots + core::kSlotsPerDay);
    const auto err = forecast::evaluate_forecast(actual, fc.counts[cfg]);
    maes.push_back(err.mae_normalized);
  }
  // Median normalized MAE across the top configs should be small (paper:
  // 4.9% with 4 training weeks; this test trains on only 2).
  std::sort(maes.begin(), maes.end());
  EXPECT_LT(maes[maes.size() / 2], 0.2);
}

TEST_F(TitanNextTest, PipelinePlansOracleAndForecast) {
  PipelineOptions popts;
  popts.scope = small_scope();
  popts.lp.e2e_bound_ms = 120.0;
  popts.top_k_forecast = 15;
  const TitanNextPipeline pipeline(*db_, *fractions_, popts);

  const auto oracle = pipeline.plan_day_oracle(*trace_, 2 * core::kSlotsPerWeek);
  ASSERT_TRUE(oracle.valid());
  EXPECT_GT(oracle.plan.result().sum_of_wan_peaks_mbps, 0.0);

  const auto practical = pipeline.plan_day_forecast(*trace_, 2 * core::kSlotsPerWeek);
  ASSERT_TRUE(practical.valid());
  EXPECT_GT(practical.forecast_seconds, 0.0);
}

}  // namespace
}  // namespace titan::titannext
