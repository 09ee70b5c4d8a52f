// Sparse LU factorization of the simplex basis, with product-form updates.
//
// The revised simplex keeps a factorization of the current basis matrix B
// (one column of the computational-form constraint matrix per row). Basis
// columns here are extremely sparse (slacks are unit vectors, structural
// columns have a handful of entries), so we use a Gilbert-Peierls
// left-looking sparse LU with partial pivoting. Between refactorizations
// the factorization is extended with product-form eta updates: replacing
// the basis column at position r by a column whose FTRAN image is alpha
// appends an eta (r, alpha) and both solves apply it in O(nnz(alpha)).
//
// The solves are hypersparse. The vectors the simplex solves with are
// nearly all zero (an entering column has a handful of entries; c_B is
// nonzero only where a basic column has a cost), and so are most of the
// intermediate vectors. Each of the four triangular passes is driven by a
// bitset of candidate positions — the positions the input's nonzeros can
// reach through the factor (Gilbert & Peierls) — scanned in pivot order:
// L ascending, U descending, U^T ascending and L^T descending, the two
// transposed passes in dot form over the same column storage. A pass only
// adds candidates ahead of its scan cursor, so it visits just the reach,
// in the order a dense pass would, with no sort. Every floating-point
// operation on a nonzero therefore happens in the same order as in a
// dense solve: results equal the dense kernels' bit for bit, except that
// a zero may carry the other sign. tests/lp_test.cc keeps the dense
// kernels as the oracle that pins this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lp/sparse.h"

namespace titan::lp {

class BasisLu {
 public:
  // Structural-rank diagnosis of a failed factorization: the basis
  // positions whose columns found no pivot (each was in the span of the
  // columns factored before it) and the rows left unpivoted, both in
  // ascending order and of equal length. A warm-start caller repairs the
  // candidate basis by replacing each failed position with the unit
  // (slack/artificial) column of an unpivoted row, then refactorizes.
  struct Deficiency {
    std::vector<int> positions;
    std::vector<int> rows;
    [[nodiscard]] bool any() const { return !positions.empty(); }
  };

  // Factorizes B = A(:, basis). Returns false when numerically singular.
  // With `deficiency`, a singular basis does not abort: the maximal
  // independent column subset is factored, the failures are reported, and
  // the return is still false (the factorization itself is NOT usable for
  // solves in that case — refactorize after repairing).
  bool factorize(const SparseMatrix& a, const std::vector<int>& basis,
                 double pivot_tolerance = 1e-10, Deficiency* deficiency = nullptr);

  // Solves B * x = b. `x` enters holding b (dense, length m) and exits
  // holding the solution *in basis-position coordinates*: x[k] multiplies
  // basis column k. Returns the ascending positions of the result's
  // nonzeros; the view is into this object and stays valid until the next
  // ftran or factorize.
  std::span<const int> ftran(std::vector<double>& x);

  // Solves B^T * y = c. `y` enters holding c indexed by basis position and
  // exits holding the row-space solution (length m, original row indices).
  void btran(std::vector<double>& y);

  // Registers a basis change: position `leaving_pos` is replaced by a column
  // whose FTRAN image (before this update) is `alpha`, with `pattern` the
  // nonzero pattern ftran returned for it. Returns false when the pivot
  // element alpha[leaving_pos] is too small (caller should refactorize
  // instead).
  bool update(int leaving_pos, const std::vector<double>& alpha, std::span<const int> pattern,
              double pivot_tolerance = 1e-9);

  [[nodiscard]] int eta_count() const { return static_cast<int>(eta_start_.size()) - 1; }
  [[nodiscard]] int dimension() const { return m_; }

  // Deterministic work counters over this object's lifetime: entries
  // appended to the eta file (pivot included), and positions visited by
  // the triangular passes of every ftran and btran.
  [[nodiscard]] std::int64_t eta_nonzeros() const { return eta_nonzeros_; }
  [[nodiscard]] std::int64_t solve_positions() const { return solve_positions_; }

 private:
  // The dense reference kernels of tests/lp_test.cc read the factors.
  friend class DenseBasisLuReference;

  void mark(int k) { mark_[static_cast<std::size_t>(k) >> 6] |= std::uint64_t{1} << (k & 63); }
  template <class Visit>
  void scan_ascending(Visit&& visit);
  template <class Visit>
  void scan_descending(Visit&& visit);

  int m_ = 0;
  // L: unit lower triangular in pivot order; entries stored with
  // *original row* indices (they acquire pivot positions later).
  std::vector<int> l_col_ptr_;
  std::vector<int> l_rows_;
  std::vector<double> l_vals_;
  // L's pattern by rows: original row r -> the L columns holding it.
  std::vector<int> l_row_ptr_;
  std::vector<int> l_row_cols_;
  // U: strictly upper entries stored with *pivot position* row indices.
  std::vector<int> u_col_ptr_;
  std::vector<int> u_rows_;
  std::vector<double> u_vals_;
  std::vector<double> u_diag_;
  // U's pattern by rows: pivot position i -> the U columns holding it.
  std::vector<int> u_row_ptr_;
  std::vector<int> u_row_cols_;
  std::vector<int> pivot_row_of_;  // pivot position k -> original row
  std::vector<int> row_perm_;      // original row -> pivot position
  // Columns are factored in order of increasing nonzero count so the many
  // unit (slack/artificial) columns pivot first with zero fill-in;
  // col_order_[k] is the basis position factored at step k, and
  // col_pos_ its inverse.
  std::vector<int> col_order_;
  std::vector<int> col_pos_;
  // The eta file, flat: eta e owns [eta_start_[e], eta_start_[e + 1]) of
  // eta_pos_/eta_val_. Its first entry is the pivot (position,
  // alpha[pivot]); the rest are the off-pivot nonzeros, ascending.
  std::vector<int> eta_start_{0};
  std::vector<int> eta_pos_;
  std::vector<double> eta_val_;

  // Workspaces kept across calls. work_ and mark_ are all zero between
  // calls; work_ is indexed by original row inside factorize and by pivot
  // position inside the solves.
  std::vector<double> work_;
  std::vector<std::uint64_t> mark_;  // candidate pivot positions
  std::vector<int> pattern_;         // ftran's result pattern (a prefix of it)
  // factorize's depth-first search state.
  std::vector<int> touched_;
  std::vector<char> in_stack_;
  std::vector<int> stack_;
  std::vector<int> stack_k_;
  std::vector<int> topo_;

  std::int64_t eta_nonzeros_ = 0;
  std::int64_t solve_positions_ = 0;
};

}  // namespace titan::lp
