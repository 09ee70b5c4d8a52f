// Two-phase revised simplex (primal).
//
// Solves min c'x s.t. Ax {<=,=,>=} b, x >= 0 as built by LpModel. Slacks
// and surpluses convert rows to equalities; artificials complete the
// initial basis where a slack cannot (equality rows, wrong-sign rhs).
// Phase 1 minimizes the artificial sum; phase 2 continues from the feasible
// basis with the true objective. The basis is held in a sparse LU
// (BasisLu) refreshed by product-form eta updates and periodically
// refactorized. Dantzig pricing with a bounded Bland's-rule fallback breaks
// degenerate stalls.
//
// Warm re-solves start from a caller basis. A seed left primally damaged
// (hot artificials, negative basics) is repaired by one path: a primal
// restoration pass that minimizes total infeasibility, gated by
// warm_repair_limit. A dual simplex and candidate-column pruning were
// measured against it and removed (docs/solver.md, "Measured and removed").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lp/model.h"

namespace titan::lp {

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit, kNumericalFailure };

[[nodiscard]] std::string status_name(SolveStatus s);

struct SolveOptions {
  int max_iterations = 200000;
  int refactor_interval = 64;     // eta updates between refactorizations
  double optimality_tol = 1e-7;   // reduced-cost tolerance
  double feasibility_tol = 1e-7;  // basic-value / ratio-test tolerance
  double pivot_tol = 1e-9;
  int bland_trigger = 40;  // consecutive degenerate iterations before Bland
  // Bound on one Bland's-rule burst: after this many anti-cycling pivots
  // without a nondegenerate step the solver returns to Dantzig pricing and
  // re-arms the stall detector, so a long plateau cannot lock the solve
  // into Bland's slow first-negative scans forever. Large enough that the
  // plan LPs never exhaust it (their longest measured plateau is ~1k
  // pivots, on the Asian scope — below the bound the pivot sequence is
  // byte-identical to the unbounded rule); max_iterations remains the
  // termination backstop.
  int bland_burst = 2048;
  // Warm-start repair budget: a seeded basis may carry basic artificials
  // above zero (rows the seed never covered — e.g. the fresh tail of a
  // rolling replan horizon); phase 1 run *from the seed* repairs them. When
  // more than this fraction of rows is hot the seed has transferred too
  // little to pay off — measured on the plan LPs, majority-fresh repairs
  // cost multiples of a cold solve — so the solver falls back cold instead.
  // Negative basic values (rhs drift: a capacity cut, a drained DC) count
  // toward the same fraction and are repaired by the same pass, which is
  // also cut off after 2m + 100 pivots.
  double warm_repair_limit = 0.1;
  bool verbose = false;
};

// One simplex-basis member, in model-relative terms: either a structural
// column (by column index) or the slack/surplus or artificial column owned
// by a constraint row (by row index). Encoding by *meaning* rather than by
// computational-form column number lets a basis survive a model rebuild
// whose row/column identities are preserved — the warm-start contract
// documented in docs/solver.md.
struct BasisEntry {
  enum class Kind : std::uint8_t { kStructural, kSlack, kArtificial };
  Kind kind = Kind::kSlack;
  int index = 0;  // kStructural: column; kSlack/kArtificial: owning row
  friend bool operator==(const BasisEntry&, const BasisEntry&) = default;
};

// A full basis: exactly one entry per constraint row of the model it was
// extracted from (the entry order carries no meaning — a basis is a set).
struct Basis {
  std::vector<BasisEntry> entries;
  [[nodiscard]] bool empty() const { return entries.empty(); }
  friend bool operator==(const Basis&, const Basis&) = default;
};

struct Solution {
  SolveStatus status = SolveStatus::kNumericalFailure;
  double objective = 0.0;
  std::vector<double> x;  // structural variables only
  int iterations = 0;     // total pivots: phase 1/restoration + phase 2
  int phase1_iterations = 0;
  // Anti-cycling observability: degenerate pivots taken (the stall
  // detector's raw signal) and pivots spent inside Bland's-rule bursts.
  // Deterministic companions to `iterations`.
  int stall_pivots = 0;
  int bland_pivots = 0;
  double solve_seconds = 0.0;
  // Phase breakdown of solve_seconds (wall clock; solve_seconds also
  // covers tableau construction and basis mapping, so the parts do not sum
  // to it). refactor_seconds is the LU (re)factorization share, counted
  // inside whichever phase triggered it. `refactorizations` counts those
  // factorizations — a deterministic companion to `iterations`, since the
  // pivot sequence and eta-growth policy are deterministic.
  double phase1_seconds = 0.0;  // classic phase 1 or warm restoration
  double phase2_seconds = 0.0;
  double refactor_seconds = 0.0;
  int refactorizations = 0;
  Basis basis;                // final basis, filled when status == kOptimal
  bool warm_started = false;  // solved from a caller basis (phase 1 skipped)
  // Row duals y (one per constraint, model row order) at the optimal
  // basis, priced with the phase-2 costs. Empty unless status == kOptimal.
  std::vector<double> duals;
};

[[nodiscard]] Solution solve(const LpModel& model, const SolveOptions& options = {});

// Warm-started solve: seeds the simplex with `warm` (a Solution::basis from
// an earlier solve of a structurally compatible model). When the seeded
// basis maps onto this model, factorizes, and is primal-feasible, phase 1
// is skipped entirely and phase 2 runs from it; a primally damaged seed is
// repaired by the primal restoration pass. On a dimension mismatch, a
// singular factorization, an infeasible seed, or a numerical failure
// mid-solve, the call transparently falls back to the cold path — the
// result is always as trustworthy as solve() without a basis.
[[nodiscard]] Solution solve(const LpModel& model, const Basis& warm,
                             const SolveOptions& options = {});

}  // namespace titan::lp
