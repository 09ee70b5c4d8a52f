#include "lp/basis_lu.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace titan::lp {

namespace {

// The row-wise pattern of a factor stored by columns: row r -> the
// columns holding an entry in row r, in row_cols[row_ptr[r], row_ptr[r+1]).
void transpose_pattern(int m, const std::vector<int>& col_ptr, const std::vector<int>& rows,
                       std::vector<int>& row_ptr, std::vector<int>& row_cols) {
  // Count into row_ptr[r + 2] so that after the prefix sum row_ptr[r + 1]
  // is row r's start, then advance it while filling to row r's end.
  row_ptr.assign(static_cast<std::size_t>(m) + 2, 0);
  for (const int r : rows) ++row_ptr[static_cast<std::size_t>(r) + 2];
  for (std::size_t i = 2; i < row_ptr.size(); ++i) row_ptr[i] += row_ptr[i - 1];
  row_cols.resize(rows.size());
  for (int k = 0; k < m; ++k)
    for (int q = col_ptr[static_cast<std::size_t>(k)]; q < col_ptr[static_cast<std::size_t>(k) + 1];
         ++q)
      row_cols[static_cast<std::size_t>(
          row_ptr[static_cast<std::size_t>(rows[static_cast<std::size_t>(q)]) + 1]++)] = k;
  row_ptr.pop_back();
}

}  // namespace

// Visits the marked positions in ascending order, including those `visit`
// marks above the position it is visiting. Leaves the marks set.
template <class Visit>
void BasisLu::scan_ascending(Visit&& visit) {
  for (std::size_t w = 0; w < mark_.size(); ++w) {
    std::uint64_t above = ~std::uint64_t{0};  // bits not yet visited in word w
    for (std::uint64_t bits; (bits = mark_[w] & above) != 0;) {
      const int b = std::countr_zero(bits);
      above = b == 63 ? 0 : ~std::uint64_t{0} << (b + 1);
      visit(static_cast<int>(w * 64) + b);
    }
  }
}

// Visits the marked positions in descending order, including those `visit`
// marks below the position it is visiting. Clears the marks.
template <class Visit>
void BasisLu::scan_descending(Visit&& visit) {
  for (std::size_t w = mark_.size(); w-- > 0;) {
    while (mark_[w] != 0) {
      const int b = 63 - std::countl_zero(mark_[w]);
      mark_[w] &= ~(std::uint64_t{1} << b);
      visit(static_cast<int>(w * 64) + b);
    }
  }
}

bool BasisLu::factorize(const SparseMatrix& a, const std::vector<int>& basis,
                        double pivot_tolerance, Deficiency* deficiency) {
  if (deficiency != nullptr) {
    deficiency->positions.clear();
    deficiency->rows.clear();
  }
  m_ = a.rows();
  assert(static_cast<int>(basis.size()) == m_);
  const auto m = static_cast<std::size_t>(m_);
  l_col_ptr_.assign(1, 0);
  l_rows_.clear();
  l_vals_.clear();
  u_col_ptr_.assign(1, 0);
  u_rows_.clear();
  u_vals_.clear();
  u_diag_.assign(m, 0.0);
  pivot_row_of_.assign(m, -1);
  row_perm_.assign(m, -1);
  eta_start_.assign(1, 0);
  eta_pos_.clear();
  eta_val_.clear();
  work_.assign(m, 0.0);
  in_stack_.assign(m, 0);
  mark_.assign((m + 63) / 64, 0);
  pattern_.resize(m);

  // Factor sparse columns first: the unit slack/artificial columns pivot
  // without creating any fill, leaving a small structural kernel.
  col_order_.resize(m);
  for (int k = 0; k < m_; ++k) col_order_[static_cast<std::size_t>(k)] = k;
  std::stable_sort(col_order_.begin(), col_order_.end(), [&](int x, int y) {
    const int cx = basis[static_cast<std::size_t>(x)];
    const int cy = basis[static_cast<std::size_t>(y)];
    return (a.col_end(cx) - a.col_begin(cx)) < (a.col_end(cy) - a.col_begin(cy));
  });

  // work_ holds the column being eliminated by original row; touched_
  // lists its nonzero rows, topo_ the pivot positions it depends on.
  for (int j = 0; j < m_; ++j) {
    const int col = basis[static_cast<std::size_t>(col_order_[static_cast<std::size_t>(j)])];

    // ---- Symbolic: reach of the column's rows through pivoted L columns.
    topo_.clear();
    touched_.clear();
    for (int k = a.col_begin(col); k < a.col_end(col); ++k) {
      const int r0 = a.row_index(k);
      if (in_stack_[static_cast<std::size_t>(r0)]) continue;
      // Iterative DFS over original rows.
      stack_.clear();
      stack_k_.clear();
      stack_.push_back(r0);
      stack_k_.push_back(-1);
      in_stack_[static_cast<std::size_t>(r0)] = 1;
      while (!stack_.empty()) {
        const int r = stack_.back();
        const int pk = row_perm_[static_cast<std::size_t>(r)];
        bool descended = false;
        if (pk >= 0) {
          int& cursor = stack_k_.back();
          if (cursor < 0) cursor = l_col_ptr_[static_cast<std::size_t>(pk)];
          while (cursor < l_col_ptr_[static_cast<std::size_t>(pk) + 1]) {
            const int child = l_rows_[static_cast<std::size_t>(cursor)];
            ++cursor;
            if (!in_stack_[static_cast<std::size_t>(child)]) {
              in_stack_[static_cast<std::size_t>(child)] = 1;
              stack_.push_back(child);
              stack_k_.push_back(-1);
              descended = true;
              break;
            }
          }
        }
        if (!descended) {
          // Post-order: pivoted rows go to topo, everything to touched.
          if (pk >= 0) topo_.push_back(pk);
          touched_.push_back(r);
          stack_.pop_back();
          stack_k_.pop_back();
        }
      }
    }
    // Post-order gives children before parents; eliminate in reverse
    // (ancestors first = increasing dependency order).
    std::reverse(topo_.begin(), topo_.end());
    std::sort(topo_.begin(), topo_.end());

    // ---- Numeric: scatter and eliminate.
    for (int k = a.col_begin(col); k < a.col_end(col); ++k)
      work_[static_cast<std::size_t>(a.row_index(k))] = a.value(k);
    for (const int pk : topo_) {
      const int pr = pivot_row_of_[static_cast<std::size_t>(pk)];
      const double xk = work_[static_cast<std::size_t>(pr)];
      if (xk == 0.0) continue;
      for (int t = l_col_ptr_[static_cast<std::size_t>(pk)];
           t < l_col_ptr_[static_cast<std::size_t>(pk) + 1]; ++t)
        work_[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(t)])] -=
            l_vals_[static_cast<std::size_t>(t)] * xk;
    }

    // ---- Pivot selection among not-yet-pivoted touched rows.
    int pivot = -1;
    double best = pivot_tolerance;
    for (const int r : touched_) {
      if (row_perm_[static_cast<std::size_t>(r)] >= 0) continue;
      const double v = std::abs(work_[static_cast<std::size_t>(r)]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (pivot < 0) {
      // Singular: clean up the workspace, then either bail (strict mode) or
      // — in diagnosis mode — record the failed basis position and skip the
      // column, factoring on through the independent remainder. The skipped
      // LU slot gets inert placeholders; the caller never solves with a
      // deficient factorization.
      for (const int r : touched_) {
        work_[static_cast<std::size_t>(r)] = 0.0;
        in_stack_[static_cast<std::size_t>(r)] = 0;
      }
      if (deficiency == nullptr) return false;
      deficiency->positions.push_back(col_order_[static_cast<std::size_t>(j)]);
      u_col_ptr_.push_back(static_cast<int>(u_rows_.size()));
      l_col_ptr_.push_back(static_cast<int>(l_rows_.size()));
      u_diag_[static_cast<std::size_t>(j)] = 1.0;
      pivot_row_of_[static_cast<std::size_t>(j)] = -1;
      continue;
    }
    const double d = work_[static_cast<std::size_t>(pivot)];

    // ---- Store U column (pivoted rows) and L column (unpivoted rows).
    for (const int r : touched_) {
      const int pk = row_perm_[static_cast<std::size_t>(r)];
      const double v = work_[static_cast<std::size_t>(r)];
      if (pk >= 0) {
        if (v != 0.0) {
          u_rows_.push_back(pk);
          u_vals_.push_back(v);
        }
      } else if (r != pivot && std::abs(v) > 0.0) {
        l_rows_.push_back(r);
        l_vals_.push_back(v / d);
      }
      work_[static_cast<std::size_t>(r)] = 0.0;
      in_stack_[static_cast<std::size_t>(r)] = 0;
    }
    u_col_ptr_.push_back(static_cast<int>(u_rows_.size()));
    l_col_ptr_.push_back(static_cast<int>(l_rows_.size()));
    u_diag_[static_cast<std::size_t>(j)] = d;
    pivot_row_of_[static_cast<std::size_t>(j)] = pivot;
    row_perm_[static_cast<std::size_t>(pivot)] = j;
  }
  if (deficiency != nullptr && deficiency->any()) {
    for (int r = 0; r < m_; ++r)
      if (row_perm_[static_cast<std::size_t>(r)] < 0) deficiency->rows.push_back(r);
    std::sort(deficiency->positions.begin(), deficiency->positions.end());
    return false;
  }

  // The structure the hypersparse transposed solves walk.
  transpose_pattern(m_, u_col_ptr_, u_rows_, u_row_ptr_, u_row_cols_);
  transpose_pattern(m_, l_col_ptr_, l_rows_, l_row_ptr_, l_row_cols_);
  col_pos_.resize(m);
  for (int k = 0; k < m_; ++k)
    col_pos_[static_cast<std::size_t>(col_order_[static_cast<std::size_t>(k)])] = k;
  return true;
}

std::span<const int> BasisLu::ftran(std::vector<double>& x) {
  assert(static_cast<int>(x.size()) == m_);
  for (int r = 0; r < m_; ++r)
    if (x[static_cast<std::size_t>(r)] != 0.0) mark(row_perm_[static_cast<std::size_t>(r)]);
  // Forward: apply L^{-1} in original row space. A row is final once its
  // pivot position comes up; move it into work_ by pivot position, which
  // leaves x all zero for the scatter below.
  scan_ascending([&](int k) {
    ++solve_positions_;
    const auto pr = static_cast<std::size_t>(pivot_row_of_[static_cast<std::size_t>(k)]);
    const double xk = x[pr];
    x[pr] = 0.0;
    work_[static_cast<std::size_t>(k)] = xk;
    if (xk == 0.0) return;
    for (int t = l_col_ptr_[static_cast<std::size_t>(k)];
         t < l_col_ptr_[static_cast<std::size_t>(k) + 1]; ++t) {
      const int r = l_rows_[static_cast<std::size_t>(t)];
      x[static_cast<std::size_t>(r)] -= l_vals_[static_cast<std::size_t>(t)] * xk;
      mark(row_perm_[static_cast<std::size_t>(r)]);
    }
  });
  // Backward U solve in pivot coordinates, undoing the column ordering on
  // the way out: LU position k corresponds to basis position col_order_[k].
  scan_descending([&](int k) {
    ++solve_positions_;
    const double t = work_[static_cast<std::size_t>(k)] / u_diag_[static_cast<std::size_t>(k)];
    work_[static_cast<std::size_t>(k)] = 0.0;
    x[static_cast<std::size_t>(col_order_[static_cast<std::size_t>(k)])] = t;
    if (t == 0.0) return;
    for (int q = u_col_ptr_[static_cast<std::size_t>(k)];
         q < u_col_ptr_[static_cast<std::size_t>(k) + 1]; ++q) {
      const int i = u_rows_[static_cast<std::size_t>(q)];
      work_[static_cast<std::size_t>(i)] -= u_vals_[static_cast<std::size_t>(q)] * t;
      mark(i);
    }
  });
  // Eta updates, oldest first: B = B0 E1 ... Ek, so
  // x = Ek^{-1} ... E1^{-1} B0^{-1} b.
  for (std::size_t e = 0; e + 1 < eta_start_.size(); ++e) {
    const auto s = static_cast<std::size_t>(eta_start_[e]);
    const auto end = static_cast<std::size_t>(eta_start_[e + 1]);
    const auto p = static_cast<std::size_t>(eta_pos_[s]);
    const double t = x[p] / eta_val_[s];
    if (t != 0.0) {
      for (std::size_t q = s + 1; q < end; ++q)
        x[static_cast<std::size_t>(eta_pos_[q])] -= eta_val_[q] * t;
    }
    x[p] = t;
  }
  // The result's pattern, by a branchless compaction.
  std::size_t n = 0;
  for (int i = 0; i < m_; ++i) {
    pattern_[n] = i;
    n += x[static_cast<std::size_t>(i)] != 0.0 ? 1 : 0;
  }
  return {pattern_.data(), n};
}

void BasisLu::btran(std::vector<double>& y) {
  assert(static_cast<int>(y.size()) == m_);
  // Eta transposes, newest first.
  for (std::size_t e = eta_start_.size() - 1; e-- > 0;) {
    const auto s = static_cast<std::size_t>(eta_start_[e]);
    const auto end = static_cast<std::size_t>(eta_start_[e + 1]);
    const auto p = static_cast<std::size_t>(eta_pos_[s]);
    double acc = y[p];
    for (std::size_t q = s + 1; q < end; ++q)
      acc -= eta_val_[q] * y[static_cast<std::size_t>(eta_pos_[q])];
    y[p] = acc / eta_val_[s];
  }
  // Gather into pivot coordinates (LU position k holds basis position
  // col_order_[k]), leaving y all zero for the row-space result.
  for (int b = 0; b < m_; ++b) {
    const double v = y[static_cast<std::size_t>(b)];
    if (v == 0.0) continue;
    const int k = col_pos_[static_cast<std::size_t>(b)];
    work_[static_cast<std::size_t>(k)] = v;
    y[static_cast<std::size_t>(b)] = 0.0;
    mark(k);
  }
  // U^T forward solve in dot form: a nonzero at position i reaches the
  // U columns holding row i.
  scan_ascending([&](int k) {
    ++solve_positions_;
    double acc = work_[static_cast<std::size_t>(k)];
    for (int q = u_col_ptr_[static_cast<std::size_t>(k)];
         q < u_col_ptr_[static_cast<std::size_t>(k) + 1]; ++q)
      acc -= u_vals_[static_cast<std::size_t>(q)] *
             work_[static_cast<std::size_t>(u_rows_[static_cast<std::size_t>(q)])];
    const double t = acc / u_diag_[static_cast<std::size_t>(k)];
    work_[static_cast<std::size_t>(k)] = t;
    if (t == 0.0) return;
    for (int p = u_row_ptr_[static_cast<std::size_t>(k)];
         p < u_row_ptr_[static_cast<std::size_t>(k) + 1]; ++p)
      mark(u_row_cols_[static_cast<std::size_t>(p)]);
  });
  // L^T backward pass in dot form, straight into y by original row: a
  // nonzero in row r reaches the L columns holding row r.
  scan_descending([&](int k) {
    ++solve_positions_;
    double acc = work_[static_cast<std::size_t>(k)];
    work_[static_cast<std::size_t>(k)] = 0.0;
    for (int q = l_col_ptr_[static_cast<std::size_t>(k)];
         q < l_col_ptr_[static_cast<std::size_t>(k) + 1]; ++q)
      acc -= l_vals_[static_cast<std::size_t>(q)] *
             y[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(q)])];
    const auto r = static_cast<std::size_t>(pivot_row_of_[static_cast<std::size_t>(k)]);
    y[r] = acc;
    if (acc == 0.0) return;
    for (int p = l_row_ptr_[r]; p < l_row_ptr_[r + 1]; ++p)
      mark(l_row_cols_[static_cast<std::size_t>(p)]);
  });
}

bool BasisLu::update(int leaving_pos, const std::vector<double>& alpha,
                     std::span<const int> pattern, double pivot_tolerance) {
  const double pivot = alpha[static_cast<std::size_t>(leaving_pos)];
  if (std::abs(pivot) < pivot_tolerance) return false;
  eta_pos_.push_back(leaving_pos);
  eta_val_.push_back(pivot);
  for (const int i : pattern) {
    if (i == leaving_pos) continue;
    eta_pos_.push_back(i);
    eta_val_.push_back(alpha[static_cast<std::size_t>(i)]);
  }
  eta_nonzeros_ += static_cast<std::int64_t>(eta_pos_.size()) - eta_start_.back();
  eta_start_.push_back(static_cast<int>(eta_pos_.size()));
  return true;
}

}  // namespace titan::lp
