#include "titannext/lp_builder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <set>

namespace titan::titannext {

namespace {

// Variable layout: X vars first, y vars after.
//   x_index(t, c, m, p) = ((t * C + c) * M + m) * 2 + p
// with p: 0 = WAN, 1 = Internet.
struct Layout {
  int timeslots, configs, dcs;
  [[nodiscard]] int x(int t, int c, int m, int p) const {
    return ((t * configs + c) * dcs + m) * 2 + p;
  }
  [[nodiscard]] int num_x() const { return timeslots * configs * dcs * 2; }
};

// Per (config, dc): WAN bandwidth contributed to each in-scope link by one
// assigned unit.
using LinkLoads = std::vector<std::pair<int, double>>;  // (link index, Mbps)

// Row layout mirror of build_model's construction order: C1 demand rows
// (slot-major, config inner), C2 compute rows, C3 Internet rows, the single
// optional C4 e2e row, then C5 per-(slot, link) peak rows. remap_basis
// depends on this matching build_model exactly — extend both together.
struct RowLayout {
  int timeslots, configs, dcs, links;
  bool e2e;
  [[nodiscard]] int c1(int t, int c) const { return t * configs + c; }
  [[nodiscard]] int c2(int t, int m) const { return timeslots * configs + t * dcs + m; }
  [[nodiscard]] int c3(int t, int m) const {
    return timeslots * (configs + dcs) + t * dcs + m;
  }
  [[nodiscard]] int e2e_row() const { return timeslots * (configs + 2 * dcs); }
  [[nodiscard]] int c5(int t, int l) const {
    return timeslots * (configs + 2 * dcs) + (e2e ? 1 : 0) + t * links + l;
  }
  [[nodiscard]] int rows() const {
    return timeslots * (configs + 2 * dcs) + (e2e ? 1 : 0) + timeslots * links;
  }
};

// Whether build_model will emit the C4 row for these inputs.
bool has_e2e_row(const PlanInputs& inputs, const LpBuildOptions& options) {
  if (options.e2e_bound_ms <= 0.0) return false;
  double total_units = 0.0;
  for (const auto& d : inputs.demands()) total_units += d.total_units;
  return total_units > 0.0;
}

}  // namespace

lp::LpModel build_model(const PlanInputs& inputs, const LpBuildOptions& options) {
  const auto& demands = inputs.demands();
  const auto& dcs = inputs.dcs();
  const auto& links = inputs.links();
  const Layout lay{inputs.scope().timeslots, static_cast<int>(demands.size()),
                   static_cast<int>(dcs.size())};

  lp::LpModel model;
  // X variables (objective coefficients depend on the variant).
  for (int t = 0; t < lay.timeslots; ++t)
    for (int c = 0; c < lay.configs; ++c)
      for (int m = 0; m < lay.dcs; ++m)
        for (int p = 0; p < 2; ++p) {
          double cost = 0.0;
          const auto path = p == 0 ? net::PathType::kWan : net::PathType::kInternet;
          if (options.objective == Objective::kMinimizeTotalLatency)
            cost = inputs.total_latency_ms(demands[static_cast<std::size_t>(c)].config,
                                           dcs[static_cast<std::size_t>(m)], path);
          else if (options.objective == Objective::kMinimizeTotalMaxE2e)
            cost = inputs.max_e2e_ms(demands[static_cast<std::size_t>(c)].config,
                                     dcs[static_cast<std::size_t>(m)], path);
          model.add_variable(cost);
        }
  // y variables (peak per link) — only part of the objective for the
  // Titan-Next variant; harmless otherwise (cost 0 keeps them defined).
  std::vector<int> yvar(links.size());
  for (std::size_t l = 0; l < links.size(); ++l)
    yvar[l] = model.add_variable(
        options.objective == Objective::kMinimizeWanPeaks ? 1.0 : 0.0,
        "y_link" + std::to_string(links[l].value()));

  // Precompute per (config, dc) link loads and resource coefficients.
  std::map<int, int> link_index;
  for (std::size_t l = 0; l < links.size(); ++l) link_index[links[l].value()] = static_cast<int>(l);
  std::vector<std::vector<LinkLoads>> loads(demands.size(),
                                            std::vector<LinkLoads>(dcs.size()));
  for (std::size_t c = 0; c < demands.size(); ++c) {
    for (std::size_t m = 0; m < dcs.size(); ++m) {
      std::map<int, double> acc;
      for (const auto& [country, count] : demands[c].config.participants) {
        const double bw = demands[c].config.network_mbps_from(country);
        for (const auto lid : inputs.net().topology().path(country, dcs[m]).links) {
          const auto it = link_index.find(lid.value());
          if (it != link_index.end()) acc[it->second] += bw;
        }
      }
      for (const auto& [l, bw] : acc) loads[c][m].push_back({l, bw});
    }
  }

  // C1: all calls of each (t, c) assigned.
  for (int t = 0; t < lay.timeslots; ++t)
    for (int c = 0; c < lay.configs; ++c) {
      const double n =
          demands[static_cast<std::size_t>(c)].units_per_slot[static_cast<std::size_t>(t)];
      const int row = model.add_constraint(lp::Sense::kEq, n);
      for (int m = 0; m < lay.dcs; ++m)
        for (int p = 0; p < 2; ++p) model.add_coefficient(row, lay.x(t, c, m, p), 1.0);
    }

  // C2: MP compute per (t, m).
  for (int t = 0; t < lay.timeslots; ++t)
    for (int m = 0; m < lay.dcs; ++m) {
      const int row = model.add_constraint(lp::Sense::kLe,
                                           inputs.dc_capacity(dcs[static_cast<std::size_t>(m)]));
      for (int c = 0; c < lay.configs; ++c) {
        const double cores = demands[static_cast<std::size_t>(c)].config.compute_cores();
        for (int p = 0; p < 2; ++p)
          model.add_coefficient(row, lay.x(t, c, m, p), cores);
      }
    }

  // C3: Internet path capacity per (t, m).
  for (int t = 0; t < lay.timeslots; ++t)
    for (int m = 0; m < lay.dcs; ++m) {
      const int row = model.add_constraint(
          lp::Sense::kLe, inputs.internet_capacity(dcs[static_cast<std::size_t>(m)]));
      for (int c = 0; c < lay.configs; ++c)
        model.add_coefficient(row, lay.x(t, c, m, 1),
                              demands[static_cast<std::size_t>(c)].config.network_mbps());
    }

  // C4: bound on the demand-weighted average of max-E2E latency. The
  // presence condition is shared with remap_basis through has_e2e_row so
  // the row layouts cannot drift apart.
  if (has_e2e_row(inputs, options)) {
    double total_units = 0.0;
    for (const auto& d : demands) total_units += d.total_units;
    const int row = model.add_constraint(lp::Sense::kLe, options.e2e_bound_ms * total_units);
    for (int t = 0; t < lay.timeslots; ++t)
      for (int c = 0; c < lay.configs; ++c)
        for (int m = 0; m < lay.dcs; ++m)
          for (int p = 0; p < 2; ++p) {
            const auto path = p == 0 ? net::PathType::kWan : net::PathType::kInternet;
            model.add_coefficient(
                row, lay.x(t, c, m, p),
                inputs.max_e2e_ms(demands[static_cast<std::size_t>(c)].config,
                                  dcs[static_cast<std::size_t>(m)], path));
          }
  }

  // C5: per-link peak definition, y_l >= slot WAN usage.
  for (int t = 0; t < lay.timeslots; ++t)
    for (std::size_t l = 0; l < links.size(); ++l) {
      const int row = model.add_constraint(lp::Sense::kLe, 0.0);
      bool any = false;
      for (int c = 0; c < lay.configs; ++c)
        for (int m = 0; m < lay.dcs; ++m)
          for (const auto& [li, bw] : loads[static_cast<std::size_t>(c)][static_cast<std::size_t>(m)])
            if (li == static_cast<int>(l)) {
              model.add_coefficient(row, lay.x(t, c, m, 0), bw);
              any = true;
            }
      model.add_coefficient(row, yvar[l], -1.0);
      (void)any;
    }

  return model;
}

std::optional<lp::Basis> remap_basis(const PlanBasisContext& prev, const PlanInputs& inputs,
                                     const LpBuildOptions& options, int shift_slots) {
  if (!prev.valid() || prev.timeslots != inputs.scope().timeslots) return std::nullopt;
  // The windows must overlap: slot t of the old horizon is slot t - shift
  // of the new one, so shift >= T means nothing transfers (and a negative
  // shift would mean time ran backwards — a caller bug; refuse).
  if (shift_slots < 0 || shift_slots >= prev.timeslots) return std::nullopt;
  const auto& demands = inputs.demands();
  const auto& dcs = inputs.dcs();
  const auto& links = inputs.links();
  const int T = prev.timeslots;
  const int c_old = static_cast<int>(prev.shapes.size());
  const int m_old = static_cast<int>(prev.dcs.size());
  const int l_old = static_cast<int>(prev.links.size());
  if (c_old == 0 || m_old == 0) return std::nullopt;

  const Layout old_lay{T, c_old, m_old};
  const Layout new_lay{T, static_cast<int>(demands.size()), static_cast<int>(dcs.size())};
  const RowLayout old_rows{T, c_old, m_old, l_old, prev.e2e_row};
  const RowLayout new_rows{T, new_lay.configs, new_lay.dcs, static_cast<int>(links.size()),
                           has_e2e_row(inputs, options)};
  if (static_cast<int>(prev.basis.entries.size()) != old_rows.rows()) return std::nullopt;

  // Label translation tables old index -> new index (-1 = label vanished).
  std::vector<int> shape_map(static_cast<std::size_t>(c_old), -1);
  for (int c = 0; c < c_old; ++c)
    shape_map[static_cast<std::size_t>(c)] =
        inputs.demand_index(prev.shapes[static_cast<std::size_t>(c)]);
  std::vector<int> dc_map(static_cast<std::size_t>(m_old), -1);
  for (int m = 0; m < m_old; ++m)
    for (std::size_t i = 0; i < dcs.size(); ++i)
      if (dcs[i] == prev.dcs[static_cast<std::size_t>(m)]) {
        dc_map[static_cast<std::size_t>(m)] = static_cast<int>(i);
        break;
      }
  std::map<int, int> link_map;
  for (std::size_t i = 0; i < links.size(); ++i) link_map[links[i].value()] = static_cast<int>(i);
  const auto map_link = [&](int l) {
    const auto it = link_map.find(prev.links[static_cast<std::size_t>(l)].value());
    return it == link_map.end() ? -1 : it->second;
  };

  // Horizon-relative slot translation: old slot t is new slot t - shift;
  // slots before the new window vanish.
  const auto map_slot = [&](int t) { return t - shift_slots; };

  // Old row index -> new row index by label (-1 = vanished).
  const auto map_row = [&](int r) -> int {
    if (r < 0 || r >= old_rows.rows()) return -1;
    if (r < T * c_old) {
      const int t = map_slot(r / c_old);
      const int c = shape_map[static_cast<std::size_t>(r % c_old)];
      return (t < 0 || c < 0) ? -1 : new_rows.c1(t, c);
    }
    r -= T * c_old;
    if (r < 2 * T * m_old) {
      const bool internet = r >= T * m_old;
      if (internet) r -= T * m_old;
      const int t = map_slot(r / m_old);
      const int m = dc_map[static_cast<std::size_t>(r % m_old)];
      if (t < 0 || m < 0) return -1;
      return internet ? new_rows.c3(t, m) : new_rows.c2(t, m);
    }
    r -= 2 * T * m_old;
    if (prev.e2e_row && r == 0) return new_rows.e2e ? new_rows.e2e_row() : -1;
    if (prev.e2e_row) r -= 1;
    const int t = map_slot(r / l_old);
    const int l = map_link(r % l_old);
    return (t < 0 || l < 0) ? -1 : new_rows.c5(t, l);
  };

  // Translate every surviving entry; collect the set of claimed rows so the
  // completion step below can fill the holes with slacks/artificials.
  std::vector<lp::BasisEntry> mapped;
  mapped.reserve(prev.basis.entries.size());
  std::set<std::pair<int, int>> seen;  // (kind, index) duplicates guard
  std::vector<bool> row_claimed(static_cast<std::size_t>(new_rows.rows()), false);
  const int num_x_old = old_lay.num_x();
  for (const auto& e : prev.basis.entries) {
    lp::BasisEntry out = e;
    if (e.kind == lp::BasisEntry::Kind::kStructural) {
      if (e.index < num_x_old) {
        int rest = e.index;
        const int p = rest % 2;
        rest /= 2;
        const int m = dc_map[static_cast<std::size_t>(rest % m_old)];
        rest /= m_old;
        const int c = shape_map[static_cast<std::size_t>(rest % c_old)];
        const int t = map_slot(rest / c_old);
        if (t < 0 || c < 0 || m < 0) continue;
        out.index = new_lay.x(t, c, m, p);
      } else {
        if (e.index >= num_x_old + l_old) return std::nullopt;  // corrupt snapshot
        const int l = map_link(e.index - num_x_old);
        if (l < 0) continue;
        out.index = new_lay.num_x() + l;
      }
    } else {
      const int r = map_row(e.index);
      if (r < 0) continue;
      out.index = r;
      row_claimed[static_cast<std::size_t>(r)] = true;
    }
    if (!seen.insert({static_cast<int>(out.kind), out.index}).second) return std::nullopt;
    mapped.push_back(out);
  }


  // Completion: the dropped entries' columns pivoted rows that either
  // vanished with them (balanced — nothing to do) or still exist and now
  // need a unit column. The rows that *demonstrably* lost their pivot are
  // the fresh-label ones — C1 rows of shapes the old plan never had (their
  // serving columns were never basic) and C5 rows of links no old path used
  // (no survivor touches them, so they would be all-zero in the basis).
  // Fill those first; top up any remaining budget over unclaimed rows in
  // row order. C1 rows are equalities (artificial — basic at the row's
  // demand, which is what the warm phase-1 repair in lp::solve drives out),
  // everything else is <= (slack).
  std::vector<bool> label_is_fresh(static_cast<std::size_t>(new_rows.rows()), true);
  for (int r = 0; r < old_rows.rows(); ++r) {
    const int nr = map_row(r);
    if (nr >= 0) label_is_fresh[static_cast<std::size_t>(nr)] = false;
  }
  int fresh_unclaimed = 0;
  for (int r = 0; r < new_rows.rows(); ++r)
    if (label_is_fresh[static_cast<std::size_t>(r)] && !row_claimed[static_cast<std::size_t>(r)])
      ++fresh_unclaimed;
  // Make room: every fresh row *must* get its unit column, so when the
  // survivors plus the fresh fills would overflow the row count, trim
  // survivors from the back (freed slack/artificial rows rejoin the
  // fillable pool; the structural-rank repair in lp::solve re-seats
  // whatever the trim destabilized).
  const int budget = new_rows.rows() - fresh_unclaimed;
  if (budget < 0) return std::nullopt;
  while (static_cast<int>(mapped.size()) > budget) {
    const lp::BasisEntry& victim = mapped.back();
    if (victim.kind != lp::BasisEntry::Kind::kStructural)
      row_claimed[static_cast<std::size_t>(victim.index)] = false;
    mapped.pop_back();
  }
  const auto fill_row = [&](int r) {
    lp::BasisEntry fill;
    fill.kind = r < T * new_lay.configs ? lp::BasisEntry::Kind::kArtificial
                                        : lp::BasisEntry::Kind::kSlack;
    fill.index = r;
    mapped.push_back(fill);
    row_claimed[static_cast<std::size_t>(r)] = true;
  };
  for (int r = 0; r < new_rows.rows(); ++r)
    if (label_is_fresh[static_cast<std::size_t>(r)] && !row_claimed[static_cast<std::size_t>(r)])
      fill_row(r);
  for (int r = 0; r < new_rows.rows() && static_cast<int>(mapped.size()) < new_rows.rows();
       ++r)
    if (!row_claimed[static_cast<std::size_t>(r)]) fill_row(r);
  if (static_cast<int>(mapped.size()) != new_rows.rows()) return std::nullopt;
  return lp::Basis{std::move(mapped)};
}

namespace {

// Realized sum over links of peak WAN bandwidth of a fractional plan —
// recomputed from the weights (not the LP objective) so monolithic and
// decomposed solves report the same physical quantity.
double sum_wan_peaks(const PlanInputs& inputs,
                     const std::vector<std::vector<AssignmentWeights>>& weights) {
  const auto& demands = inputs.demands();
  const auto& links = inputs.links();
  std::map<int, int> link_index;
  for (std::size_t l = 0; l < links.size(); ++l) link_index[links[l].value()] = static_cast<int>(l);
  std::vector<double> peak(links.size(), 0.0);
  for (std::size_t t = 0; t < weights.size(); ++t) {
    std::vector<double> usage(links.size(), 0.0);
    for (std::size_t c = 0; c < weights[t].size(); ++c) {
      for (const auto& e : weights[t][c].entries) {
        if (e.path != net::PathType::kWan) continue;
        for (const auto& [country, count] : demands[c].config.participants) {
          const double bw = demands[c].config.network_mbps_from(country) * e.units;
          for (const auto lid : inputs.net().topology().path(country, e.dc).links) {
            const auto it = link_index.find(lid.value());
            if (it != link_index.end()) usage[static_cast<std::size_t>(it->second)] += bw;
          }
        }
      }
    }
    for (std::size_t l = 0; l < links.size(); ++l) peak[l] = std::max(peak[l], usage[l]);
  }
  double sum = 0.0;
  for (const double p : peak) sum += p;
  return sum;
}

// Accumulates one lp::Solution's counters into the plan result (a plan
// solve may run several LPs: blocks + coupling).
void accumulate_solution_stats(LpPlanResult& r, const lp::Solution& sol) {
  r.solve_seconds += sol.solve_seconds;
  r.phase1_seconds += sol.phase1_seconds;
  r.phase2_seconds += sol.phase2_seconds;
  r.refactor_seconds += sol.refactor_seconds;
  r.refactorizations += sol.refactorizations;
  r.iterations += sol.iterations;
  r.phase1_iterations += sol.phase1_iterations;
  r.stall_pivots += sol.stall_pivots;
  r.bland_pivots += sol.bland_pivots;
}

// Snapshots a solved model's identity + basis into a warm context for the
// next replan of the same (sub)scope.
void snapshot_context(PlanBasisContext& ctx, const PlanInputs& inputs,
                      const LpBuildOptions& options, const lp::Solution& sol,
                      core::SlotIndex plan_begin) {
  ctx.basis = sol.basis;
  ctx.shapes.clear();
  ctx.shapes.reserve(inputs.demands().size());
  for (const auto& d : inputs.demands()) ctx.shapes.push_back(d.config);
  ctx.dcs = inputs.dcs();
  ctx.links = inputs.links();
  ctx.timeslots = inputs.scope().timeslots;
  ctx.e2e_row = has_e2e_row(inputs, options);
  ctx.plan_begin = plan_begin;
}

// The historical single-LP solve path. kOff and single-region kAuto run
// exactly this — byte for byte the pre-decomposition behaviour.
LpPlanResult solve_monolithic(const PlanInputs& inputs, const LpBuildOptions& options,
                              WarmStartCache* warm) {
  LpPlanResult result;
  const auto& demands = inputs.demands();
  const auto& dcs = inputs.dcs();
  const Layout lay{inputs.scope().timeslots, static_cast<int>(demands.size()),
                   static_cast<int>(dcs.size())};

  const auto build_start = std::chrono::steady_clock::now();
  const lp::LpModel model = build_model(inputs, options);
  result.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();
  std::optional<lp::Basis> seed;
  if (warm != nullptr)
    seed = remap_basis(warm->last, inputs, options,
                       warm->next_plan_begin - warm->last.plan_begin);
  const lp::Solution sol =
      seed ? lp::solve(model, *seed, options.solver) : lp::solve(model, options.solver);
  result.status = sol.status;
  result.objective = sol.objective;
  accumulate_solution_stats(result, sol);
  result.warm_started = sol.warm_started;
  if (sol.status != lp::SolveStatus::kOptimal) return result;

  // Snapshot the fresh basis + model identity for the next replan.
  if (warm != nullptr)
    snapshot_context(warm->last, inputs, options, sol, warm->next_plan_begin);

  result.weights.assign(static_cast<std::size_t>(lay.timeslots),
                        std::vector<AssignmentWeights>(demands.size()));
  for (int t = 0; t < lay.timeslots; ++t)
    for (int c = 0; c < lay.configs; ++c) {
      auto& w = result.weights[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)];
      for (int m = 0; m < lay.dcs; ++m)
        for (int p = 0; p < 2; ++p) {
          const double units = sol.x[static_cast<std::size_t>(lay.x(t, c, m, p))];
          if (units > 1e-7)
            w.entries.push_back({dcs[static_cast<std::size_t>(m)],
                                 p == 0 ? net::PathType::kWan : net::PathType::kInternet,
                                 units});
        }
    }

  result.sum_of_wan_peaks_mbps = sum_wan_peaks(inputs, result.weights);
  return result;
}

// One region block of the decomposition: parent-relative DC and demand
// indices, in parent order.
struct RegionBlock {
  geo::Continent continent;
  std::vector<int> dc_idx;
  std::vector<int> demand_idx;
};

// Block-angular decomposed solve. Returns nullopt on any gate failure —
// overlapping block link sets, a non-infeasible block failure, a failed
// coupling solve, a violated global e2e bound — and the caller falls back
// to the monolithic path. See docs/solver.md, "Region-block decomposition"
// for the contract this implements.
std::optional<LpPlanResult> solve_decomposed(const PlanInputs& inputs,
                                             const LpBuildOptions& options,
                                             WarmStartCache* warm) {
  const auto& world = inputs.net().world();
  const auto& demands = inputs.demands();
  const auto& dcs = inputs.dcs();
  const auto& links = inputs.links();
  const int T = inputs.scope().timeslots;
  const int M = static_cast<int>(dcs.size());
  const int L = static_cast<int>(links.size());
  if (demands.empty() || dcs.empty()) return std::nullopt;

  // ---- Partition. A DC belongs to its continent's block; a demand is
  // homed to a block when every participant is on that block's continent
  // (and the block has DCs to serve it). Everything else — cross-region
  // demands, demands of DC-less blocks — goes to the coupling LP, which
  // sees every DC.
  std::vector<RegionBlock> blocks;
  for (const geo::Continent cont : inputs.scope().regions.continents()) {
    RegionBlock b;
    b.continent = cont;
    for (int m = 0; m < M; ++m)
      if (world.dc(dcs[static_cast<std::size_t>(m)]).continent == cont) b.dc_idx.push_back(m);
    blocks.push_back(std::move(b));
  }
  std::vector<int> coupling;
  for (int c = 0; c < static_cast<int>(demands.size()); ++c) {
    const auto& participants = demands[static_cast<std::size_t>(c)].config.participants;
    bool homed = false;
    if (!participants.empty()) {
      const geo::Continent home = world.country(participants.front().first).continent;
      bool single = true;
      for (const auto& [country, count] : participants)
        if (world.country(country).continent != home) single = false;
      if (single)
        for (auto& b : blocks)
          if (b.continent == home && !b.dc_idx.empty()) {
            b.demand_idx.push_back(c);
            homed = true;
            break;
          }
    }
    if (!homed) coupling.push_back(c);
  }

  // The degenerate single-block case: one block owning every DC and every
  // demand. The block model then IS the monolithic model (same inputs,
  // e2e row kept), which is what makes kForce on a single-region scope a
  // genuine bit-for-bit equivalence check of the block machinery.
  const bool degenerate = blocks.size() == 1 && coupling.empty() &&
                          static_cast<int>(blocks.front().dc_idx.size()) == M &&
                          blocks.front().demand_idx.size() == demands.size();

  LpPlanResult result;
  result.weights.assign(static_cast<std::size_t>(T),
                        std::vector<AssignmentWeights>(demands.size()));
  // Parent-indexed resource usage by the block solutions, feeding the
  // coupling LP's residual capacities and incremental-peak rows.
  std::vector<std::vector<double>> compute_usage(static_cast<std::size_t>(T),
                                                 std::vector<double>(static_cast<std::size_t>(M), 0.0));
  std::vector<std::vector<double>> internet_usage(compute_usage);
  std::vector<std::vector<double>> link_usage(static_cast<std::size_t>(T),
                                              std::vector<double>(static_cast<std::size_t>(L), 0.0));
  std::map<int, int> link_index;
  for (int l = 0; l < L; ++l) link_index[links[static_cast<std::size_t>(l)].value()] = l;

  // Blocks must not share WAN links, or summing per-block peaks would
  // double-count a link's objective contribution.
  std::set<int> claimed_links;

  double objective = 0.0;
  for (auto& b : blocks) {
    if (b.demand_idx.empty()) continue;
    const PlanInputs block_inputs = inputs.restricted(b.dc_idx, b.demand_idx);
    for (const auto l : block_inputs.links())
      if (!claimed_links.insert(l.value()).second) return std::nullopt;

    LpBuildOptions block_options = options;
    block_options.decomposition = Decomposition::kOff;
    // Blocks solve the C4-free relaxation; the global bound is verified on
    // the composed plan below (a relaxation optimum that satisfies the
    // bound is optimal for the bounded problem too). The degenerate block
    // keeps the row so its model matches the monolithic one exactly.
    if (!degenerate) block_options.e2e_bound_ms = -1.0;

    const auto build_start = std::chrono::steady_clock::now();
    const lp::LpModel model = build_model(block_inputs, block_options);
    result.build_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();

    std::optional<lp::Basis> seed;
    PlanBasisContext* ctx = nullptr;
    if (warm != nullptr) {
      ctx = &warm->blocks[b.continent];
      seed = remap_basis(*ctx, block_inputs, block_options,
                         warm->next_plan_begin - ctx->plan_begin);
    }
    const lp::Solution sol =
        seed ? lp::solve(model, *seed, options.solver) : lp::solve(model, options.solver);
    accumulate_solution_stats(result, sol);
    if (sol.status == lp::SolveStatus::kInfeasible) {
      // The block alone cannot serve its demands (e.g. its DCs are
      // drained). Promote them to the coupling LP, which sees every DC —
      // the load shifts cross-region exactly as the monolithic LP would
      // shift it.
      for (const int c : b.demand_idx) coupling.push_back(c);
      if (ctx != nullptr) *ctx = PlanBasisContext{};
      continue;
    }
    if (sol.status != lp::SolveStatus::kOptimal) return std::nullopt;
    ++result.blocks_solved;
    result.warm_started = result.warm_started || sol.warm_started;
    if (ctx != nullptr)
      snapshot_context(*ctx, block_inputs, block_options, sol, warm->next_plan_begin);
    objective += sol.objective;

    // Fold the block solution into parent-indexed weights and usage.
    const Layout block_lay{T, static_cast<int>(b.demand_idx.size()),
                           static_cast<int>(b.dc_idx.size())};
    for (int t = 0; t < T; ++t)
      for (int bc = 0; bc < block_lay.configs; ++bc) {
        const int c = b.demand_idx[static_cast<std::size_t>(bc)];
        auto& w = result.weights[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)];
        for (int bm = 0; bm < block_lay.dcs; ++bm) {
          const int m = b.dc_idx[static_cast<std::size_t>(bm)];
          for (int p = 0; p < 2; ++p) {
            const double units = sol.x[static_cast<std::size_t>(block_lay.x(t, bc, bm, p))];
            if (units <= 1e-7) continue;
            const auto path = p == 0 ? net::PathType::kWan : net::PathType::kInternet;
            w.entries.push_back({dcs[static_cast<std::size_t>(m)], path, units});
            const auto& config = demands[static_cast<std::size_t>(c)].config;
            compute_usage[static_cast<std::size_t>(t)][static_cast<std::size_t>(m)] +=
                units * config.compute_cores();
            if (p == 1) {
              internet_usage[static_cast<std::size_t>(t)][static_cast<std::size_t>(m)] +=
                  units * config.network_mbps();
            } else {
              for (const auto& [country, count] : config.participants) {
                const double bw = config.network_mbps_from(country) * units;
                for (const auto lid :
                     inputs.net().topology().path(country, dcs[static_cast<std::size_t>(m)]).links) {
                  const auto it = link_index.find(lid.value());
                  if (it != link_index.end())
                    link_usage[static_cast<std::size_t>(t)][static_cast<std::size_t>(it->second)] +=
                        bw;
                }
              }
            }
          }
        }
      }
  }

  // ---- Coupling LP: the cross-region (and promoted) demands over every
  // DC, against residual capacities, with *incremental* peak rows — y'_l
  // is the increase of link l's peak above what the blocks already pay
  // for, so sum(block objectives) + coupling objective prices the composed
  // plan's true sum of per-link peaks.
  if (!coupling.empty()) {
    std::sort(coupling.begin(), coupling.end());
    std::vector<double> block_peak(static_cast<std::size_t>(L), 0.0);
    for (int t = 0; t < T; ++t)
      for (int l = 0; l < L; ++l)
        block_peak[static_cast<std::size_t>(l)] =
            std::max(block_peak[static_cast<std::size_t>(l)],
                     link_usage[static_cast<std::size_t>(t)][static_cast<std::size_t>(l)]);

    const Layout clay{T, static_cast<int>(coupling.size()), M};
    const auto build_start = std::chrono::steady_clock::now();
    lp::LpModel model;
    for (int i = 0; i < clay.num_x(); ++i) model.add_variable(0.0);
    std::vector<int> yvar(static_cast<std::size_t>(L));
    for (int l = 0; l < L; ++l)
      yvar[static_cast<std::size_t>(l)] = model.add_variable(1.0);

    // C1: every coupling demand fully assigned.
    for (int t = 0; t < T; ++t)
      for (int cc = 0; cc < clay.configs; ++cc) {
        const auto& d = demands[static_cast<std::size_t>(coupling[static_cast<std::size_t>(cc)])];
        const int row =
            model.add_constraint(lp::Sense::kEq, d.units_per_slot[static_cast<std::size_t>(t)]);
        for (int m = 0; m < M; ++m)
          for (int p = 0; p < 2; ++p) model.add_coefficient(row, clay.x(t, cc, m, p), 1.0);
      }
    // C2/C3: residual compute and Internet capacity after the blocks.
    for (int t = 0; t < T; ++t)
      for (int m = 0; m < M; ++m) {
        const double residual =
            std::max(0.0, inputs.dc_capacity(dcs[static_cast<std::size_t>(m)]) -
                              compute_usage[static_cast<std::size_t>(t)][static_cast<std::size_t>(m)]);
        const int row = model.add_constraint(lp::Sense::kLe, residual);
        for (int cc = 0; cc < clay.configs; ++cc) {
          const double cores =
              demands[static_cast<std::size_t>(coupling[static_cast<std::size_t>(cc)])]
                  .config.compute_cores();
          for (int p = 0; p < 2; ++p) model.add_coefficient(row, clay.x(t, cc, m, p), cores);
        }
      }
    for (int t = 0; t < T; ++t)
      for (int m = 0; m < M; ++m) {
        const double residual = std::max(
            0.0, inputs.internet_capacity(dcs[static_cast<std::size_t>(m)]) -
                     internet_usage[static_cast<std::size_t>(t)][static_cast<std::size_t>(m)]);
        const int row = model.add_constraint(lp::Sense::kLe, residual);
        for (int cc = 0; cc < clay.configs; ++cc)
          model.add_coefficient(
              row, clay.x(t, cc, m, 1),
              demands[static_cast<std::size_t>(coupling[static_cast<std::size_t>(cc)])]
                  .config.network_mbps());
      }
    // C5 (incremental): coupling usage - y'_l <= block_peak_l - block usage.
    for (int t = 0; t < T; ++t)
      for (int l = 0; l < L; ++l) {
        const double headroom = std::max(
            0.0, block_peak[static_cast<std::size_t>(l)] -
                     link_usage[static_cast<std::size_t>(t)][static_cast<std::size_t>(l)]);
        const int row = model.add_constraint(lp::Sense::kLe, headroom);
        for (int cc = 0; cc < clay.configs; ++cc) {
          const auto& config =
              demands[static_cast<std::size_t>(coupling[static_cast<std::size_t>(cc)])].config;
          for (int m = 0; m < M; ++m) {
            double bw = 0.0;
            for (const auto& [country, count] : config.participants) {
              for (const auto lid :
                   inputs.net().topology().path(country, dcs[static_cast<std::size_t>(m)]).links)
                if (lid == links[static_cast<std::size_t>(l)])
                  bw += config.network_mbps_from(country);
            }
            if (bw > 0.0) model.add_coefficient(row, clay.x(t, cc, m, 0), bw);
          }
        }
        model.add_coefficient(row, yvar[static_cast<std::size_t>(l)], -1.0);
      }
    result.build_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();

    const lp::Solution sol = lp::solve(model, options.solver);
    accumulate_solution_stats(result, sol);
    if (sol.status != lp::SolveStatus::kOptimal) return std::nullopt;
    objective += sol.objective;
    for (int t = 0; t < T; ++t)
      for (int cc = 0; cc < clay.configs; ++cc) {
        const int c = coupling[static_cast<std::size_t>(cc)];
        auto& w = result.weights[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)];
        for (int m = 0; m < M; ++m)
          for (int p = 0; p < 2; ++p) {
            const double units = sol.x[static_cast<std::size_t>(clay.x(t, cc, m, p))];
            if (units > 1e-7)
              w.entries.push_back({dcs[static_cast<std::size_t>(m)],
                                   p == 0 ? net::PathType::kWan : net::PathType::kInternet,
                                   units});
          }
      }
  }

  // ---- Global e2e bound (C4) on the composed plan. The blocks solved the
  // relaxation; satisfied here means the composition is feasible — and as
  // good as the relaxation allows — for the bounded problem. Violated
  // means block-local optima spent too much latency: monolithic fallback.
  if (!degenerate && has_e2e_row(inputs, options)) {
    double lhs = 0.0;
    double total_units = 0.0;
    for (const auto& d : demands) total_units += d.total_units;
    for (int t = 0; t < T; ++t)
      for (std::size_t c = 0; c < demands.size(); ++c)
        for (const auto& e : result.weights[static_cast<std::size_t>(t)][c].entries)
          lhs += e.units * inputs.max_e2e_ms(demands[c].config, e.dc, e.path);
    if (lhs > options.e2e_bound_ms * total_units * (1.0 + 1e-9) + 1e-6) return std::nullopt;
  }

  result.status = lp::SolveStatus::kOptimal;
  result.objective = objective;
  result.sum_of_wan_peaks_mbps = sum_wan_peaks(inputs, result.weights);
  return result;
}

}  // namespace

LpPlanResult solve_plan(const PlanInputs& inputs, const LpBuildOptions& options,
                        WarmStartCache* warm) {
  const bool multi_region = inputs.scope().regions.size() > 1;
  const bool decompose =
      options.objective == Objective::kMinimizeWanPeaks &&
      (options.decomposition == Decomposition::kForce ||
       (options.decomposition == Decomposition::kAuto && multi_region));
  if (decompose) {
    if (auto r = solve_decomposed(inputs, options, warm)) return *r;
  }
  return solve_monolithic(inputs, options, warm);
}

}  // namespace titan::titannext
