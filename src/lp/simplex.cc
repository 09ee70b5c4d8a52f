#include "lp/simplex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>

#include "lp/basis_lu.h"

namespace titan::lp {

std::string status_name(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
    case SolveStatus::kNumericalFailure: return "numerical-failure";
  }
  return "?";
}

namespace {

struct Tableau {
  SparseMatrix a;             // computational-form matrix (m x n_total)
  std::vector<double> cost;   // phase-2 costs per column
  std::vector<double> rhs;    // original rhs
  int n_structural = 0;
  int n_total = 0;
  std::vector<bool> artificial;    // per column
  std::vector<int> slack_of;       // per row; -1 for equality rows
  std::vector<int> artificial_of;  // per row; -1 when the slack is feasible
};

Tableau build_tableau(const LpModel& model) {
  Tableau t;
  const int m = model.num_constraints();
  const int n = model.num_variables();
  t.n_structural = n;
  t.rhs = model.rhs();
  t.slack_of.assign(static_cast<std::size_t>(m), -1);
  t.artificial_of.assign(static_cast<std::size_t>(m), -1);

  std::vector<SparseMatrix::Triplet> trips;
  const SparseMatrix structural = model.matrix();
  for (int j = 0; j < n; ++j)
    for (int k = structural.col_begin(j); k < structural.col_end(j); ++k)
      trips.push_back({structural.row_index(k), j, structural.value(k)});

  t.cost = model.costs();
  int col = n;
  // Slack / surplus columns.
  for (int i = 0; i < m; ++i) {
    const Sense s = model.senses()[static_cast<std::size_t>(i)];
    if (s == Sense::kLe) {
      trips.push_back({i, col, 1.0});
      t.slack_of[static_cast<std::size_t>(i)] = col;
      t.cost.push_back(0.0);
      ++col;
    } else if (s == Sense::kGe) {
      trips.push_back({i, col, -1.0});
      t.slack_of[static_cast<std::size_t>(i)] = col;
      t.cost.push_back(0.0);
      ++col;
    }
  }
  // Artificial columns where the slack cannot seed a feasible basis.
  for (int i = 0; i < m; ++i) {
    const Sense s = model.senses()[static_cast<std::size_t>(i)];
    const double b = t.rhs[static_cast<std::size_t>(i)];
    const bool slack_feasible = (s == Sense::kLe && b >= 0.0) || (s == Sense::kGe && b <= 0.0);
    if (!slack_feasible) {
      trips.push_back({i, col, b >= 0.0 ? 1.0 : -1.0});
      t.artificial_of[static_cast<std::size_t>(i)] = col;
      t.cost.push_back(0.0);
      ++col;
    }
  }
  t.n_total = col;
  t.artificial.assign(static_cast<std::size_t>(col), false);
  for (const int j : t.artificial_of)
    if (j >= 0) t.artificial[static_cast<std::size_t>(j)] = true;
  t.a = SparseMatrix::from_triplets(m, col, std::move(trips));
  return t;
}

// Maps a model-relative Basis onto this tableau's columns. Rejects (returns
// nullopt) on a row-count mismatch, an entry naming a column the model does
// not have, or a duplicated column — the dimension-mismatch fallbacks of
// the warm-start contract.
std::optional<std::vector<int>> map_warm_basis(const Tableau& t, int m, const Basis& warm) {
  if (static_cast<int>(warm.entries.size()) != m) return std::nullopt;
  std::vector<int> basis(static_cast<std::size_t>(m), -1);
  std::vector<bool> used(static_cast<std::size_t>(t.n_total), false);
  for (int i = 0; i < m; ++i) {
    const BasisEntry& e = warm.entries[static_cast<std::size_t>(i)];
    int col = -1;
    switch (e.kind) {
      case BasisEntry::Kind::kStructural:
        if (e.index >= 0 && e.index < t.n_structural) col = e.index;
        break;
      case BasisEntry::Kind::kSlack:
        if (e.index >= 0 && e.index < m) col = t.slack_of[static_cast<std::size_t>(e.index)];
        break;
      case BasisEntry::Kind::kArtificial:
        if (e.index >= 0 && e.index < m)
          col = t.artificial_of[static_cast<std::size_t>(e.index)];
        break;
    }
    if (col < 0 || used[static_cast<std::size_t>(col)]) return std::nullopt;
    used[static_cast<std::size_t>(col)] = true;
    basis[static_cast<std::size_t>(i)] = col;
  }
  return basis;
}

// The inverse of map_warm_basis: the final tableau basis back in
// model-relative terms, for the caller to seed the next solve with.
Basis export_basis(const Tableau& t, const std::vector<int>& basis) {
  // Column -> owning row for the non-structural columns.
  std::vector<int> row_of(static_cast<std::size_t>(t.n_total), -1);
  for (std::size_t i = 0; i < t.slack_of.size(); ++i) {
    if (t.slack_of[i] >= 0) row_of[static_cast<std::size_t>(t.slack_of[i])] = static_cast<int>(i);
    if (t.artificial_of[i] >= 0)
      row_of[static_cast<std::size_t>(t.artificial_of[i])] = static_cast<int>(i);
  }
  Basis out;
  out.entries.reserve(basis.size());
  for (const int j : basis) {
    BasisEntry e;
    if (j < t.n_structural) {
      e.kind = BasisEntry::Kind::kStructural;
      e.index = j;
    } else {
      e.kind = t.artificial[static_cast<std::size_t>(j)] ? BasisEntry::Kind::kArtificial
                                                         : BasisEntry::Kind::kSlack;
      e.index = row_of[static_cast<std::size_t>(j)];
    }
    out.entries.push_back(e);
  }
  return out;
}

// Seconds elapsed since `t0` (steady clock); the one timing idiom the
// phase instrumentation below uses.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Runs the simplex from `basis`. Cold starts (warm == false) begin with the
// canonical slack/artificial basis and run phase 1 when artificials are
// present. Warm starts skip the classic phase 1: a primal-feasible seed
// goes straight to phase 2, a damaged one is repaired by the restoration
// pass under the warm_repair_limit gate. A seed that does not factorize,
// exceeds the gate or fails to repair reports kNumericalFailure so the
// caller can rerun cold.
Solution solve_from(const LpModel& model, const Tableau& t, std::vector<int> basis, bool warm,
                    const SolveOptions& options) {
  Solution sol;
  sol.warm_started = warm;
  const int m = model.num_constraints();

  std::vector<bool> in_basis(static_cast<std::size_t>(t.n_total), false);
  for (const int j : basis) in_basis[static_cast<std::size_t>(j)] = true;

  // Every LU factorization is counted and its wall time accumulated —
  // the refactorization share of the phase-timing breakdown.
  const auto timed_factorize = [&](BasisLu& lu_) {
    const auto f0 = std::chrono::steady_clock::now();
    const bool ok = lu_.factorize(t.a, basis, options.pivot_tol);
    sol.refactor_seconds += seconds_since(f0);
    ++sol.refactorizations;
    return ok;
  };

  BasisLu lu;
  if (!timed_factorize(lu)) {
    sol.status = SolveStatus::kNumericalFailure;
    return sol;
  }

  // Basic values x_B = B^{-1} b.
  std::vector<double> xb = t.rhs;
  lu.ftran(xb);

  // Count the primal damage a warm seed carries. Two kinds survive a basis
  // transfer: hot artificials (rows the transfer never covered — the fresh
  // tail of a rolling horizon) and negative basic values (rhs drift: a
  // capacity cut, a drained DC, a transferred link-peak variable sitting
  // below the shifted window's new peak). Both are repaired by the
  // restoration pass below, within the warm_repair_limit gate.
  int damaged_rows = 0;
  if (warm) {
    for (int i = 0; i < m; ++i) {
      const double v = xb[static_cast<std::size_t>(i)];
      if (v < -options.feasibility_tol ||
          (t.artificial[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])] && v > 1e-6))
        ++damaged_rows;
    }
  }

  // Phase costs.
  std::vector<double> phase1_cost(static_cast<std::size_t>(t.n_total), 0.0);
  for (int j = 0; j < t.n_total; ++j)
    if (t.artificial[static_cast<std::size_t>(j)]) phase1_cost[static_cast<std::size_t>(j)] = 1.0;

  // Applies one pivot — `entering` replaces the basic of row `leaving`,
  // with step `theta` along the FTRAN'd column `alpha` — and refactorizes
  // when the eta file is full or the update is unstable, recomputing x_B
  // from scratch. False when that refactorization fails.
  const auto apply_pivot = [&](int entering, int leaving, double theta,
                               const std::vector<double>& alpha) -> bool {
    for (int i = 0; i < m; ++i)
      xb[static_cast<std::size_t>(i)] -= theta * alpha[static_cast<std::size_t>(i)];
    xb[static_cast<std::size_t>(leaving)] = theta;
    in_basis[static_cast<std::size_t>(basis[static_cast<std::size_t>(leaving)])] = false;
    in_basis[static_cast<std::size_t>(entering)] = true;
    basis[static_cast<std::size_t>(leaving)] = entering;
    if (lu.update(leaving, alpha, options.pivot_tol) && lu.eta_count() < options.refactor_interval)
      return true;
    if (!timed_factorize(lu)) return false;
    xb = t.rhs;
    lu.ftran(xb);
    return true;
  };

  auto run_phase = [&](const std::vector<double>& cost, bool block_artificials,
                       int& iteration_counter) -> SolveStatus {
    int degenerate_streak = 0;
    // Remaining pivots in the current Bland's-rule burst (0 = Dantzig).
    // The burst is armed when the degenerate streak reaches bland_trigger
    // and disarmed by either a nondegenerate pivot or bland_burst pivots
    // without one — the bounded anti-cycling safeguard. Pivot selection is
    // identical to the unbounded rule until a burst actually exhausts.
    int bland_left = 0;
    std::vector<double> y(static_cast<std::size_t>(m));
    std::vector<double> alpha(static_cast<std::size_t>(m));
    // Partial (cyclic) pricing: scan a window of columns per iteration,
    // remembering where we stopped. A full fruitless sweep proves
    // optimality. Bland mode falls back to a full first-negative scan.
    int scan_cursor = 0;
    const int window =
        std::max(512, t.n_total / 16);

    while (true) {
      if (iteration_counter >= options.max_iterations) return SolveStatus::kIterationLimit;

      // BTRAN: y = B^{-T} c_B.
      for (int i = 0; i < m; ++i)
        y[static_cast<std::size_t>(i)] = cost[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
      lu.btran(y);

      // Pricing.
      if (bland_left == 0 && degenerate_streak >= options.bland_trigger) {
        bland_left = options.bland_burst;
        degenerate_streak = 0;
      }
      const bool use_bland = bland_left > 0;
      int entering = -1;
      double best_dj = -options.optimality_tol;
      auto price = [&](int j) {
        if (in_basis[static_cast<std::size_t>(j)]) return false;
        if (block_artificials && t.artificial[static_cast<std::size_t>(j)]) return false;
        const double dj = cost[static_cast<std::size_t>(j)] - t.a.dot_column(j, y);
        if (dj < best_dj) {
          best_dj = dj;
          entering = j;
          return true;
        }
        return false;
      };
      if (use_bland) {
        for (int j = 0; j < t.n_total; ++j) {
          if (in_basis[static_cast<std::size_t>(j)]) continue;
          if (block_artificials && t.artificial[static_cast<std::size_t>(j)]) continue;
          const double dj = cost[static_cast<std::size_t>(j)] - t.a.dot_column(j, y);
          if (dj < -options.optimality_tol) {
            entering = j;
            break;
          }
        }
      } else {
        int scanned = 0;
        while (scanned < t.n_total) {
          const int stop = std::min(scan_cursor + window, t.n_total);
          for (int j = scan_cursor; j < stop; ++j) price(j);
          scanned += stop - scan_cursor;
          scan_cursor = stop == t.n_total ? 0 : stop;
          if (entering >= 0) break;  // found an attractive column in window
        }
      }
      if (entering < 0) return SolveStatus::kOptimal;

      // FTRAN the entering column.
      std::fill(alpha.begin(), alpha.end(), 0.0);
      t.a.axpy_column(entering, 1.0, alpha);
      lu.ftran(alpha);

      // Ratio test.
      int leaving = -1;
      double theta = std::numeric_limits<double>::infinity();
      for (int i = 0; i < m; ++i) {
        const double ai = alpha[static_cast<std::size_t>(i)];
        if (ai > options.pivot_tol) {
          const double ratio =
              std::max(0.0, xb[static_cast<std::size_t>(i)]) / ai;
          if (ratio < theta - options.feasibility_tol ||
              (use_bland && ratio < theta + options.feasibility_tol && leaving >= 0 &&
               basis[static_cast<std::size_t>(i)] < basis[static_cast<std::size_t>(leaving)])) {
            theta = ratio;
            leaving = i;
          }
        }
      }
      if (leaving < 0) return SolveStatus::kUnbounded;

      // Stall accounting feeds both the anti-cycling policy and the
      // surfaced counters. A nondegenerate step clears the streak *and*
      // any armed burst (the stall is broken); a degenerate step either
      // spends burst budget or grows the streak toward the trigger.
      if (use_bland) ++sol.bland_pivots;
      if (theta <= options.feasibility_tol) {
        ++sol.stall_pivots;
        if (use_bland)
          --bland_left;
        else
          ++degenerate_streak;
      } else {
        degenerate_streak = 0;
        bland_left = 0;
      }

      ++iteration_counter;
      if (!apply_pivot(entering, leaving, theta, alpha)) return SolveStatus::kNumericalFailure;
    }
  };

  // Feasibility restoration for warm seeds: a composite phase 1 that
  // minimizes total primal infeasibility — basic artificials above zero
  // (cost +1) and negative basic values (cost -1) — with the piecewise
  // cost recomputed every iteration. The ratio test admits both blocker
  // kinds: a nonnegative basic dropping to zero, and a negative basic
  // *rising* to zero. Runs only on the warm path (the cold pivot sequence
  // stays byte-for-byte what it always was); any stall or numerical issue
  // reports failure and the caller falls back to a cold solve.
  auto run_restoration = [&](int& iteration_counter) -> bool {
    std::vector<double> cb(static_cast<std::size_t>(m));
    std::vector<double> y(static_cast<std::size_t>(m));
    std::vector<double> alpha(static_cast<std::size_t>(m));
    const int cap = std::min(options.max_iterations, iteration_counter + 2 * m + 100);
    // Same cyclic partial pricing as run_phase: scan a window per
    // iteration, remember the cursor; a full fruitless sweep proves there
    // is no improving column.
    int scan_cursor = 0;
    const int window = std::max(512, t.n_total / 16);
    while (true) {
      bool infeasible = false;
      for (int i = 0; i < m; ++i) {
        const int j = basis[static_cast<std::size_t>(i)];
        const double v = xb[static_cast<std::size_t>(i)];
        double c = 0.0;
        if (t.artificial[static_cast<std::size_t>(j)] && v > 1e-6) {
          c = 1.0;
          infeasible = true;
        } else if (v < -options.feasibility_tol) {
          c = -1.0;
          infeasible = true;
        }
        cb[static_cast<std::size_t>(i)] = c;
      }
      if (!infeasible) return true;
      if (iteration_counter >= cap) return false;

      y = cb;
      lu.btran(y);
      int entering = -1;
      double best = -options.optimality_tol;
      int scanned = 0;
      while (scanned < t.n_total) {
        const int stop = std::min(scan_cursor + window, t.n_total);
        for (int j = scan_cursor; j < stop; ++j) {
          if (in_basis[static_cast<std::size_t>(j)] || t.artificial[static_cast<std::size_t>(j)])
            continue;
          const double dj = -t.a.dot_column(j, y);
          if (dj < best) {
            best = dj;
            entering = j;
          }
        }
        scanned += stop - scan_cursor;
        scan_cursor = stop == t.n_total ? 0 : stop;
        if (entering >= 0) break;
      }
      if (entering < 0) return false;  // stalled while still infeasible

      std::fill(alpha.begin(), alpha.end(), 0.0);
      t.a.axpy_column(entering, 1.0, alpha);
      lu.ftran(alpha);

      int leaving = -1;
      double theta = std::numeric_limits<double>::infinity();
      for (int i = 0; i < m; ++i) {
        const double ai = alpha[static_cast<std::size_t>(i)];
        const double v = xb[static_cast<std::size_t>(i)];
        double cand = -1.0;
        if (v >= -options.feasibility_tol && ai > options.pivot_tol)
          cand = std::max(0.0, v) / ai;
        else if (v < -options.feasibility_tol && ai < -options.pivot_tol)
          cand = v / ai;  // negative basic rising to zero
        if (cand >= 0.0 && cand < theta) {
          theta = cand;
          leaving = i;
        }
      }
      if (leaving < 0) return false;

      ++iteration_counter;
      if (!apply_pivot(entering, leaving, theta, alpha)) return false;
    }
  };

  // ---- Phase 1. Warm seeds never run the classic artificial phase 1: a
  // clean seed skips straight to phase 2; a damaged one is repaired by the
  // restoration pass. Restoration only pays for bounded damage: past
  // warm_repair_limit of the rows, repair work exceeds a cold phase 1
  // (measured on the plan LPs), so the seed is rejected. Any failure
  // returns kNumericalFailure and the caller falls back cold.
  if (damaged_rows > 0) {
    if (damaged_rows > options.warm_repair_limit * m) {
      sol.status = SolveStatus::kNumericalFailure;
      return sol;
    }
    const auto p1_start = std::chrono::steady_clock::now();
    const bool restored = run_restoration(sol.phase1_iterations);
    sol.phase1_seconds += seconds_since(p1_start);
    sol.iterations += sol.phase1_iterations;
    if (!restored) {
      sol.status = SolveStatus::kNumericalFailure;
      return sol;
    }
  }
  bool need_phase1 = false;
  if (!warm)
    for (const int j : basis)
      if (t.artificial[static_cast<std::size_t>(j)]) need_phase1 = true;
  if (need_phase1) {
    const auto p1_start = std::chrono::steady_clock::now();
    const SolveStatus s1 =
        run_phase(phase1_cost, /*block_artificials=*/false, sol.phase1_iterations);
    sol.phase1_seconds += seconds_since(p1_start);
    sol.iterations += sol.phase1_iterations;
    if (s1 == SolveStatus::kIterationLimit || s1 == SolveStatus::kNumericalFailure) {
      sol.status = s1;
      return sol;
    }
    double infeas = 0.0;
    for (int i = 0; i < m; ++i)
      if (t.artificial[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])])
        infeas += std::max(0.0, xb[static_cast<std::size_t>(i)]);
    if (infeas > 1e-6) {
      sol.status = SolveStatus::kInfeasible;
      return sol;
    }
  }

  // ---- Phase 2 (artificials blocked from re-entering).
  int phase2_iters = 0;
  const auto p2_start = std::chrono::steady_clock::now();
  const SolveStatus s2 = run_phase(t.cost, /*block_artificials=*/true, phase2_iters);
  sol.phase2_seconds += seconds_since(p2_start);
  sol.iterations += phase2_iters;
  if (s2 != SolveStatus::kOptimal) {
    sol.status = s2;
    return sol;
  }

  // An artificial that stayed basic at zero through phase 2 can drift
  // positive during later pivots (the ratio test only guards basics from
  // going *negative*), which would mean the "optimal" point violates the
  // artificial's row. Refuse to report such a point: a warm solve falls
  // back to the cold path, a cold solve fails loudly rather than hand the
  // caller a plan that silently under-serves an equality row.
  for (int i = 0; i < m; ++i) {
    if (t.artificial[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])] &&
        xb[static_cast<std::size_t>(i)] > 1e-6) {
      sol.status = SolveStatus::kNumericalFailure;
      return sol;
    }
  }

  // Extract structural solution.
  sol.x.assign(static_cast<std::size_t>(t.n_structural), 0.0);
  for (int i = 0; i < m; ++i) {
    const int j = basis[static_cast<std::size_t>(i)];
    if (j < t.n_structural)
      sol.x[static_cast<std::size_t>(j)] = std::max(0.0, xb[static_cast<std::size_t>(i)]);
  }
  sol.objective = model.objective_value(sol.x);
  sol.status = SolveStatus::kOptimal;
  sol.basis = export_basis(t, basis);
  // Row duals y = B^{-T} c_B at the optimal basis, priced with the
  // phase-2 costs.
  sol.duals.assign(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i)
    sol.duals[static_cast<std::size_t>(i)] =
        t.cost[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
  lu.btran(sol.duals);
  return sol;
}

// Cold initial basis: feasible slack where possible, else the artificial
// allocated for the row.
std::vector<int> cold_basis(const Tableau& t, int m) {
  std::vector<int> basis(static_cast<std::size_t>(m), -1);
  for (int i = 0; i < m; ++i) {
    const int slack = t.slack_of[static_cast<std::size_t>(i)];
    const int artificial = t.artificial_of[static_cast<std::size_t>(i)];
    basis[static_cast<std::size_t>(i)] = artificial >= 0 ? artificial : slack;
  }
  return basis;
}

}  // namespace

Solution solve(const LpModel& model, const SolveOptions& options) {
  const auto t_start = std::chrono::steady_clock::now();
  const Tableau t = build_tableau(model);
  const int m = model.num_constraints();

  Solution sol = solve_from(model, t, cold_basis(t, m), /*warm=*/false, options);
  sol.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start).count();
  if (options.verbose)
    std::printf("[lp] %d rows, %d cols, %d iters (%d phase1), obj=%.6g, %.2fs\n", m, t.n_total,
                sol.iterations, sol.phase1_iterations, sol.objective, sol.solve_seconds);
  return sol;
}

Solution solve(const LpModel& model, const Basis& warm, const SolveOptions& options) {
  const auto t_start = std::chrono::steady_clock::now();
  const Tableau t = build_tableau(model);
  const int m = model.num_constraints();

  Solution sol;
  sol.status = SolveStatus::kNumericalFailure;
  if (auto mapped = map_warm_basis(t, m, warm)) {
    // Structural-rank repair: a transferred basis can be singular when the
    // entries that used to pivot some rows did not survive the transfer
    // (which rows those are is invisible at the label level). Diagnose with
    // the LU, swap each failed position for the slack/artificial of an
    // unpivoted row, and retry; two rounds cover the cascade where a repair
    // unblocks a previously-masked dependency.
    for (int round = 0; round < 2; ++round) {
      BasisLu probe;
      BasisLu::Deficiency def;
      if (probe.factorize(t.a, *mapped, options.pivot_tol, &def) || !def.any()) break;
      bool repaired = true;
      for (std::size_t k = 0; k < def.positions.size() && repaired; ++k) {
        const int row = def.rows[k];
        const int unit = t.slack_of[static_cast<std::size_t>(row)] >= 0
                             ? t.slack_of[static_cast<std::size_t>(row)]
                             : t.artificial_of[static_cast<std::size_t>(row)];
        repaired = unit >= 0;
        if (repaired) (*mapped)[static_cast<std::size_t>(def.positions[k])] = unit;
      }
      if (!repaired) break;
    }
    sol = solve_from(model, t, std::move(*mapped), /*warm=*/true, options);
  }
  // Any warm failure — unmappable basis, singular factorization, infeasible
  // seed, or numerical trouble mid-phase-2 — falls back to the cold path,
  // reusing the tableau already built above.
  if (sol.status == SolveStatus::kNumericalFailure) {
    sol = solve_from(model, t, cold_basis(t, m), /*warm=*/false, options);
    sol.solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start).count();
    return sol;
  }
  sol.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start).count();
  if (options.verbose)
    std::printf("[lp] warm: %d rows, %d cols, %d iters, obj=%.6g, %.2fs\n", m, t.n_total,
                sol.iterations, sol.objective, sol.solve_seconds);
  return sol;
}

}  // namespace titan::lp
