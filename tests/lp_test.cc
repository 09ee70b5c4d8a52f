// Tests for the sparse LP substrate: CSC matrix, basis LU, and the
// two-phase revised simplex. Includes randomized property tests comparing
// LU solves against dense Gaussian elimination and checking simplex optima
// against feasibility + weak-duality style bounds on small random LPs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.h"
#include "lp/basis_lu.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/sparse.h"

namespace titan::lp {
namespace {

TEST(SparseMatrixTest, BuildsFromTripletsAndSumsDuplicates) {
  std::vector<SparseMatrix::Triplet> trips = {
      {0, 0, 1.0}, {1, 0, 2.0}, {0, 1, 3.0}, {0, 1, 4.0}, {2, 2, -1.0}};
  const SparseMatrix m = SparseMatrix::from_triplets(3, 3, trips);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 4u);  // duplicate (0,1) merged

  std::vector<double> y(3, 0.0);
  m.axpy_column(1, 1.0, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
}

TEST(SparseMatrixTest, DotColumn) {
  std::vector<SparseMatrix::Triplet> trips = {{0, 0, 2.0}, {2, 0, 5.0}};
  const SparseMatrix m = SparseMatrix::from_triplets(3, 1, trips);
  const std::vector<double> y = {1.0, 10.0, 3.0};
  EXPECT_DOUBLE_EQ(m.dot_column(0, y), 2.0 + 15.0);
}

TEST(SparseMatrixTest, ZeroSumDuplicatesDropped) {
  std::vector<SparseMatrix::Triplet> trips = {{0, 0, 1.0}, {0, 0, -1.0}, {1, 0, 2.0}};
  const SparseMatrix m = SparseMatrix::from_triplets(2, 1, trips);
  EXPECT_EQ(m.nnz(), 1u);
}

// --- BasisLu vs dense reference -------------------------------------------

// Dense solve of A x = b via Gaussian elimination with partial pivoting.
std::vector<double> dense_solve(std::vector<std::vector<double>> a, std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::abs(a[i][k]) > std::abs(a[piv][k])) piv = i;
    std::swap(a[k], a[piv]);
    std::swap(b[k], b[piv]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a[i][k] / a[k][k];
      for (std::size_t j = k; j < n; ++j) a[i][j] -= f * a[k][j];
      b[i] -= f * b[k];
    }
  }
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i][j] * x[j];
    x[i] = acc / a[i][i];
  }
  return x;
}

struct RandomBasis {
  SparseMatrix a;
  std::vector<int> basis;
  std::vector<std::vector<double>> dense;
};

RandomBasis make_random_basis(int m, double density, core::Rng& rng) {
  RandomBasis rb;
  std::vector<SparseMatrix::Triplet> trips;
  rb.dense.assign(static_cast<std::size_t>(m), std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int j = 0; j < m; ++j) {
    // Guarantee nonsingularity-ish: strong diagonal + sparse off-diagonals.
    const double d = rng.uniform(1.0, 3.0) * (rng.chance(0.5) ? 1.0 : -1.0);
    trips.push_back({j, j, d});
    rb.dense[static_cast<std::size_t>(j)][static_cast<std::size_t>(j)] = d;
    for (int i = 0; i < m; ++i) {
      if (i == j || !rng.chance(density)) continue;
      const double v = rng.uniform(-1.0, 1.0);
      trips.push_back({i, j, v});
      rb.dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = v;
    }
    rb.basis.push_back(j);
  }
  rb.a = SparseMatrix::from_triplets(m, m, std::move(trips));
  return rb;
}

class BasisLuRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BasisLuRandomTest, FtranMatchesDenseSolve) {
  core::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const int m = 5 + GetParam() * 7;
  RandomBasis rb = make_random_basis(m, 0.15, rng);

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(rb.a, rb.basis));

  std::vector<double> b(static_cast<std::size_t>(m));
  for (auto& v : b) v = rng.uniform(-5.0, 5.0);
  std::vector<double> x = b;
  lu.ftran(x);
  const std::vector<double> expected = dense_solve(rb.dense, b);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)], 1e-8)
        << "row " << i;
}

TEST_P(BasisLuRandomTest, BtranMatchesDenseTransposeSolve) {
  core::Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  const int m = 5 + GetParam() * 7;
  RandomBasis rb = make_random_basis(m, 0.15, rng);

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(rb.a, rb.basis));

  std::vector<double> c(static_cast<std::size_t>(m));
  for (auto& v : c) v = rng.uniform(-5.0, 5.0);
  std::vector<double> y = c;
  lu.btran(y);

  // Dense transpose.
  std::vector<std::vector<double>> at(static_cast<std::size_t>(m),
                                      std::vector<double>(static_cast<std::size_t>(m)));
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j)
      at[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          rb.dense[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
  const std::vector<double> expected = dense_solve(at, c);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)], 1e-8);
}

TEST_P(BasisLuRandomTest, EtaUpdateMatchesRefactorization) {
  core::Rng rng(3000 + static_cast<std::uint64_t>(GetParam()));
  const int m = 5 + GetParam() * 7;
  RandomBasis rb = make_random_basis(m, 0.2, rng);

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(rb.a, rb.basis));

  // Build an extra column to swap in at position r.
  const int r = static_cast<int>(rng.uniform_int(0, m - 1));
  std::vector<SparseMatrix::Triplet> extra_trips;
  std::vector<double> extra_col(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    if (i == r || rng.chance(0.2)) {
      const double v = rng.uniform(0.5, 2.0);
      extra_trips.push_back({i, 0, v});
      extra_col[static_cast<std::size_t>(i)] = v;
    }
  }
  // FTRAN the new column with the current factorization.
  std::vector<double> alpha = extra_col;
  lu.ftran(alpha);
  if (std::abs(alpha[static_cast<std::size_t>(r)]) < 1e-6) GTEST_SKIP();
  ASSERT_TRUE(lu.update(r, alpha));

  // Reference: dense basis with column r replaced.
  auto dense2 = rb.dense;
  for (int i = 0; i < m; ++i)
    dense2[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)] =
        extra_col[static_cast<std::size_t>(i)];

  std::vector<double> b(static_cast<std::size_t>(m));
  for (auto& v : b) v = rng.uniform(-3.0, 3.0);
  std::vector<double> x = b;
  lu.ftran(x);
  const auto expected = dense_solve(dense2, b);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)], 1e-7);

  std::vector<double> c(static_cast<std::size_t>(m));
  for (auto& v : c) v = rng.uniform(-3.0, 3.0);
  std::vector<double> y = c;
  lu.btran(y);
  std::vector<std::vector<double>> at(static_cast<std::size_t>(m),
                                      std::vector<double>(static_cast<std::size_t>(m)));
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j)
      at[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          dense2[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
  const auto expected_y = dense_solve(at, c);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expected_y[static_cast<std::size_t>(i)], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BasisLuRandomTest, ::testing::Range(0, 8));

TEST(BasisLuTest, ReportsSingularMatrix) {
  // Two identical columns.
  std::vector<SparseMatrix::Triplet> trips = {{0, 0, 1.0}, {1, 0, 1.0}, {0, 1, 1.0},
                                              {1, 1, 1.0}};
  const SparseMatrix a = SparseMatrix::from_triplets(2, 2, trips);
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(a, {0, 1}));
}

// --- Simplex ----------------------------------------------------------------

TEST(SimplexTest, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18  => (2, 6), obj 36.
  LpModel m;
  const int x = m.add_variable(-3.0);
  const int y = m.add_variable(-5.0);
  const int r0 = m.add_constraint(Sense::kLe, 4.0);
  const int r1 = m.add_constraint(Sense::kLe, 12.0);
  const int r2 = m.add_constraint(Sense::kLe, 18.0);
  m.add_coefficient(r0, x, 1.0);
  m.add_coefficient(r1, y, 2.0);
  m.add_coefficient(r2, x, 3.0);
  m.add_coefficient(r2, y, 2.0);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 6.0, 1e-7);
}

TEST(SimplexTest, HandlesEqualityAndGeRows) {
  // min x + 2y s.t. x + y = 10; x >= 3; y >= 2  => (8, 2), obj 12.
  LpModel m;
  const int x = m.add_variable(1.0);
  const int y = m.add_variable(2.0);
  const int r0 = m.add_constraint(Sense::kEq, 10.0);
  const int r1 = m.add_constraint(Sense::kGe, 3.0);
  const int r2 = m.add_constraint(Sense::kGe, 2.0);
  m.add_coefficient(r0, x, 1.0);
  m.add_coefficient(r0, y, 1.0);
  m.add_coefficient(r1, x, 1.0);
  m.add_coefficient(r2, y, 1.0);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-7);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 8.0, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(y)], 2.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasibility) {
  LpModel m;
  const int x = m.add_variable(1.0);
  const int r0 = m.add_constraint(Sense::kLe, 1.0);
  const int r1 = m.add_constraint(Sense::kGe, 2.0);
  m.add_coefficient(r0, x, 1.0);
  m.add_coefficient(r1, x, 1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  LpModel m;
  const int x = m.add_variable(-1.0);  // min -x, x unbounded above
  const int y = m.add_variable(1.0);
  const int r0 = m.add_constraint(Sense::kGe, 0.0);
  m.add_coefficient(r0, x, 1.0);
  m.add_coefficient(r0, y, 1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Classic degenerate LP (multiple constraints active at the optimum).
  LpModel m;
  const int x = m.add_variable(-1.0);
  const int y = m.add_variable(-1.0);
  for (double b : {1.0, 1.0, 1.0}) {
    const int r = m.add_constraint(Sense::kLe, b);
    m.add_coefficient(r, x, 1.0);
    m.add_coefficient(r, y, 1.0);
  }
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-7);
}

TEST(SimplexTest, NegativeRhsLeRowNeedsArtificial) {
  // x <= -2 with x >= 0 is infeasible.
  LpModel m;
  const int x = m.add_variable(1.0);
  const int r = m.add_constraint(Sense::kLe, -2.0);
  m.add_coefficient(r, x, 1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);

  // -x <= -2 (i.e. x >= 2) is feasible with optimum x = 2.
  LpModel m2;
  const int x2 = m2.add_variable(1.0);
  const int r2 = m2.add_constraint(Sense::kLe, -2.0);
  m2.add_coefficient(r2, x2, -1.0);
  const Solution s = solve(m2);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

// Property test: on random feasible LPs (feasibility forced by construction)
// the solver returns a point that is feasible and no worse than a known
// feasible point.
class SimplexRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomTest, OptimumIsFeasibleAndBeatsKnownPoint) {
  core::Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  const int n = 4 + GetParam() % 6;
  const int rows = 3 + GetParam() % 5;

  // Known point z >= 0.
  std::vector<double> z(static_cast<std::size_t>(n));
  for (auto& v : z) v = rng.uniform(0.0, 3.0);

  LpModel m;
  for (int j = 0; j < n; ++j) m.add_variable(rng.uniform(-1.0, 2.0));
  for (int i = 0; i < rows; ++i) {
    // a*x <= a*z + slack, guaranteeing z is feasible.
    std::vector<double> a(static_cast<std::size_t>(n));
    double az = 0.0;
    for (int j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(j)] = rng.uniform(0.0, 2.0);
      az += a[static_cast<std::size_t>(j)] * z[static_cast<std::size_t>(j)];
    }
    const int r = m.add_constraint(Sense::kLe, az + rng.uniform(0.0, 1.0));
    for (int j = 0; j < n; ++j) m.add_coefficient(r, j, a[static_cast<std::size_t>(j)]);
  }
  // Box the problem so it cannot be unbounded: sum x <= big.
  const int box = m.add_constraint(Sense::kLe, 100.0);
  for (int j = 0; j < n; ++j) m.add_coefficient(box, j, 1.0);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LE(m.max_violation(s.x), 1e-6);
  EXPECT_LE(s.objective, m.objective_value(z) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Random, SimplexRandomTest, ::testing::Range(0, 20));

// --- warm starts ------------------------------------------------------------

// Shared generator for the warm-start tests: a feasible random LP with
// mixed row senses whose rhs can be scaled to fake "the next replan".
LpModel warm_test_model(core::Rng& rng, int n, int rows, double rhs_scale) {
  std::vector<double> z(static_cast<std::size_t>(n));
  for (auto& v : z) v = rng.uniform(0.5, 3.0);
  LpModel m;
  for (int j = 0; j < n; ++j) m.add_variable(rng.uniform(0.1, 2.0));
  for (int i = 0; i < rows; ++i) {
    std::vector<double> a(static_cast<std::size_t>(n));
    double az = 0.0;
    for (int j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(j)] = rng.uniform(0.0, 2.0);
      az += a[static_cast<std::size_t>(j)] * z[static_cast<std::size_t>(j)];
    }
    // A mix of <= rows (z feasible with slack) and = rows (forces phase 1).
    const Sense sense = i % 3 == 0 ? Sense::kEq : Sense::kLe;
    const double slack = sense == Sense::kEq ? 0.0 : rng.uniform(0.1, 1.0);
    const int r = m.add_constraint(sense, (az + slack) * rhs_scale);
    for (int j = 0; j < n; ++j) m.add_coefficient(r, j, a[static_cast<std::size_t>(j)]);
  }
  return m;
}

// Seeding a solve with its own optimal basis must skip phase 1 entirely and
// finish in zero iterations at the same optimum.
TEST(SimplexWarmTest, OwnBasisRoundTripSolvesInZeroIterations) {
  core::Rng rng(71);
  const LpModel m = warm_test_model(rng, 8, 6, 1.0);
  const Solution cold = solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_EQ(cold.basis.entries.size(), static_cast<std::size_t>(m.num_constraints()));
  EXPECT_GT(cold.phase1_iterations, 0);  // the = rows force a cold phase 1

  const Solution warm = solve(m, cold.basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_EQ(warm.phase1_iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  ASSERT_EQ(warm.x.size(), cold.x.size());
  for (std::size_t j = 0; j < cold.x.size(); ++j)
    EXPECT_NEAR(warm.x[j], cold.x[j], 1e-7) << "x[" << j << "]";
}

// Property: warm-solving a perturbed-rhs successor from the predecessor's
// basis reaches the same optimum a cold solve of the successor finds, and
// the answer is feasible for the successor.
class SimplexWarmRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexWarmRandomTest, PerturbedRhsWarmSolveMatchesColdObjective) {
  core::Rng rng(6000 + static_cast<std::uint64_t>(GetParam()));
  const int n = 5 + GetParam() % 6;
  const int rows = 4 + GetParam() % 5;
  const double scale = 1.0 + rng.uniform(-0.2, 0.2);

  // Re-seed so predecessor and successor share coefficients exactly and
  // differ only in the rhs scale (the replan situation).
  const std::uint64_t model_seed = 7000 + static_cast<std::uint64_t>(GetParam());
  core::Rng rng_a(model_seed), rng_b(model_seed);
  const LpModel before = warm_test_model(rng_a, n, rows, 1.0);
  const LpModel after = warm_test_model(rng_b, n, rows, scale);

  const Solution base = solve(before);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  const Solution cold = solve(after);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  const Solution warm = solve(after, base.basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6 * (1.0 + std::abs(cold.objective)));
  EXPECT_LE(after.max_violation(warm.x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Random, SimplexWarmRandomTest, ::testing::Range(0, 20));

// A basis that cannot map onto the model — wrong row count, out-of-range
// columns, a slack named on an equality row — must fall back to the cold
// path and still return the cold answer.
TEST(SimplexWarmTest, MismatchedBasisFallsBackToColdSolve) {
  core::Rng rng(72);
  const LpModel m = warm_test_model(rng, 8, 6, 1.0);
  const Solution cold = solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  Basis wrong_count;
  wrong_count.entries.resize(static_cast<std::size_t>(m.num_constraints() + 3));
  const Solution a = solve(m, wrong_count);
  EXPECT_EQ(a.status, SolveStatus::kOptimal);
  EXPECT_FALSE(a.warm_started);
  EXPECT_NEAR(a.objective, cold.objective, 1e-9);

  Basis bad_columns;
  for (int i = 0; i < m.num_constraints(); ++i)
    bad_columns.entries.push_back(
        {BasisEntry::Kind::kStructural, m.num_variables() + 100 + i});
  const Solution b = solve(m, bad_columns);
  EXPECT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_FALSE(b.warm_started);
  EXPECT_NEAR(b.objective, cold.objective, 1e-9);

  Basis slack_on_eq;  // row 0 of the generator is an equality: no slack
  for (int i = 0; i < m.num_constraints(); ++i)
    slack_on_eq.entries.push_back({BasisEntry::Kind::kSlack, i});
  const Solution c = solve(m, slack_on_eq);
  EXPECT_EQ(c.status, SolveStatus::kOptimal);
  EXPECT_FALSE(c.warm_started);
  EXPECT_NEAR(c.objective, cold.objective, 1e-9);
}

// An infeasible successor stays infeasible under a warm start (the seed is
// rejected, the cold path detects infeasibility as usual).
TEST(SimplexWarmTest, WarmStartDoesNotMaskInfeasibility) {
  LpModel feasible;
  const int x = feasible.add_variable(1.0);
  const int r0 = feasible.add_constraint(Sense::kLe, 5.0);
  feasible.add_coefficient(r0, x, 1.0);
  const int r1 = feasible.add_constraint(Sense::kGe, 1.0);
  feasible.add_coefficient(r1, x, 1.0);
  const Solution base = solve(feasible);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);

  LpModel infeasible;
  const int x2 = infeasible.add_variable(1.0);
  const int q0 = infeasible.add_constraint(Sense::kLe, 1.0);
  infeasible.add_coefficient(q0, x2, 1.0);
  const int q1 = infeasible.add_constraint(Sense::kGe, 2.0);
  infeasible.add_coefficient(q1, x2, 1.0);
  EXPECT_EQ(solve(infeasible, base.basis).status, SolveStatus::kInfeasible);
}

// Medium-size structured LP resembling the Titan-Next shape: assignment
// variables with equality demand rows and capacity rows plus peak rows.
TEST(SimplexTest, StructuredAssignmentLp) {
  core::Rng rng(99);
  const int configs = 12, dcs = 4, slots = 6;
  LpModel m;
  // x[t][c][d], cost 0; y[d] peak vars with cost 1.
  std::vector<int> y(static_cast<std::size_t>(dcs));
  auto xvar = [&](int t, int c, int d) { return (t * configs + c) * dcs + d; };
  for (int t = 0; t < slots; ++t)
    for (int c = 0; c < configs; ++c)
      for (int d = 0; d < dcs; ++d) m.add_variable(0.0);
  for (int d = 0; d < dcs; ++d) y[static_cast<std::size_t>(d)] = m.add_variable(1.0);

  std::vector<double> demand(static_cast<std::size_t>(slots * configs));
  for (int t = 0; t < slots; ++t)
    for (int c = 0; c < configs; ++c) {
      const double n = rng.uniform(1.0, 20.0);
      demand[static_cast<std::size_t>(t * configs + c)] = n;
      const int r = m.add_constraint(Sense::kEq, n);
      for (int d = 0; d < dcs; ++d) m.add_coefficient(r, xvar(t, c, d), 1.0);
    }
  // Peak rows: y_d >= sum_c x[t][c][d]  for each t.
  for (int t = 0; t < slots; ++t)
    for (int d = 0; d < dcs; ++d) {
      const int r = m.add_constraint(Sense::kLe, 0.0);
      for (int c = 0; c < configs; ++c) m.add_coefficient(r, xvar(t, c, d), 1.0);
      m.add_coefficient(r, y[static_cast<std::size_t>(d)], -1.0);
    }

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LE(m.max_violation(s.x), 1e-6);

  // The optimum of sum of per-DC peaks with free assignment equals the max
  // over slots of total demand divided optimally across DCs == max_t
  // total_demand(t) (put everything anywhere; peaks sum to per-DC max;
  // balancing equalizes). Lower bound: max_t sum_c demand / 1 spread over
  // dcs -> sum of peaks >= max_t total_t. Verify against that bound.
  double max_total = 0.0;
  for (int t = 0; t < slots; ++t) {
    double tot = 0.0;
    for (int c = 0; c < configs; ++c) tot += demand[static_cast<std::size_t>(t * configs + c)];
    max_total = std::max(max_total, tot);
  }
  EXPECT_GE(s.objective, max_total - 1e-6);
  EXPECT_LE(s.objective, max_total + 1e-6);
}

// --- anti-cycling ----------------------------------------------------------

// A degenerate first pivot (a zero-rhs row binds immediately) must arm the
// bounded Bland burst and still reach the optimum, with both stall and
// Bland pivots surfaced on the Solution.
TEST(SimplexTest, DegenerateStallArmsBoundedBlandBurst) {
  // min -2x - y;  x - y <= 0 (rhs 0: entering x pivots degenerately),
  // x + y <= 2, x <= 1. Optimum x = 1, y = 1, objective -3.
  LpModel m;
  const int x = m.add_variable(-2.0);
  const int y = m.add_variable(-1.0);
  const int r0 = m.add_constraint(Sense::kLe, 0.0);
  m.add_coefficient(r0, x, 1.0);
  m.add_coefficient(r0, y, -1.0);
  const int r1 = m.add_constraint(Sense::kLe, 2.0);
  m.add_coefficient(r1, x, 1.0);
  m.add_coefficient(r1, y, 1.0);
  const int r2 = m.add_constraint(Sense::kLe, 1.0);
  m.add_coefficient(r2, x, 1.0);

  SolveOptions eager;  // Bland after a single degenerate pivot
  eager.bland_trigger = 1;
  eager.bland_burst = 8;
  const Solution s = solve(m, eager);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-7);
  EXPECT_GE(s.stall_pivots, 1);
  EXPECT_GE(s.bland_pivots, 1);

  // At the production trigger the same LP never leaves Dantzig pricing, and
  // the answer is identical.
  const Solution relaxed = solve(m);
  ASSERT_EQ(relaxed.status, SolveStatus::kOptimal);
  EXPECT_NEAR(relaxed.objective, -3.0, 1e-7);
  EXPECT_EQ(relaxed.bland_pivots, 0);
}

// --- warm repair of rhs damage ---------------------------------------------

// Three-row LP whose optimal basis goes primal-infeasible when the first
// rhs shrinks: min -x - 2y + 5z, x + y + z <= r0, x <= 2, y <= 3.
LpModel rhs_demo_model(double r0) {
  LpModel m;
  const int x = m.add_variable(-1.0);
  const int y = m.add_variable(-2.0);
  const int z = m.add_variable(5.0);
  const int c0 = m.add_constraint(Sense::kLe, r0);
  m.add_coefficient(c0, x, 1.0);
  m.add_coefficient(c0, y, 1.0);
  m.add_coefficient(c0, z, 1.0);
  const int c1 = m.add_constraint(Sense::kLe, 2.0);
  m.add_coefficient(c1, x, 1.0);
  const int c2 = m.add_constraint(Sense::kLe, 3.0);
  m.add_coefficient(c2, y, 1.0);
  return m;
}

// Shrinking the coupling rhs drives a basic structural negative; the
// re-solve from the stale optimal basis must repair it through the
// restoration pass and land on the successor's cold optimum.
TEST(SimplexWarmTest, RhsDamagedSeedRepairsThroughRestoration) {
  const LpModel before = rhs_demo_model(4.0);
  const Solution base = solve(before);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  EXPECT_NEAR(base.objective, -7.0, 1e-7);  // x = 1, y = 3

  const LpModel after = rhs_demo_model(2.5);
  const Solution cold = solve(after);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_NEAR(cold.objective, -5.0, 1e-7);  // y = 2.5

  // One damaged row of three is past the default 10% repair gate, which is
  // sized for the plan LPs; open the gate so the repair itself is tested.
  SolveOptions opt;
  opt.warm_repair_limit = 1.0;
  const Solution warm = solve(after, base.basis, opt);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_GE(warm.phase1_iterations, 1);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
  EXPECT_LE(after.max_violation(warm.x), 1e-6);
}

// Optimal solves export the row duals; every structural column must price
// nonnegative against them (the optimality certificate).
TEST(SimplexDualTest, OptimalSolveExportsConsistentDuals) {
  core::Rng rng(73);
  const LpModel m = warm_test_model(rng, 8, 6, 1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  ASSERT_EQ(s.duals.size(), static_cast<std::size_t>(m.num_constraints()));
  const SparseMatrix a = m.matrix();
  for (int j = 0; j < m.num_variables(); ++j)
    EXPECT_GE(m.costs()[static_cast<std::size_t>(j)] - a.dot_column(j, s.duals), -1e-6)
        << "column " << j;
}

// --- structural-rank deficiency & warm-gate edge cases ---------------------

// Duplicate basis columns leave one position unpivotable; the Deficiency
// report names that position and the uncovered row, in matched order.
TEST(BasisLuDeficiencyTest, DuplicateColumnsDiagnosedWithMatchingRows) {
  // Columns: e0, e0 (dependent duplicate), e2, e1 (the repair candidate).
  std::vector<SparseMatrix::Triplet> trips = {
      {0, 0, 1.0}, {0, 1, 1.0}, {2, 2, 1.0}, {1, 3, 1.0}};
  const SparseMatrix a = SparseMatrix::from_triplets(3, 4, trips);

  BasisLu lu;
  std::vector<int> basis = {0, 1, 2};
  EXPECT_FALSE(lu.factorize(a, basis));  // no diagnosis requested: plain abort

  BasisLu::Deficiency def;
  EXPECT_FALSE(lu.factorize(a, basis, 1e-10, &def));
  ASSERT_TRUE(def.any());
  ASSERT_EQ(def.positions.size(), def.rows.size());
  ASSERT_EQ(def.rows.size(), 1u);
  EXPECT_EQ(def.rows[0], 1);  // row 1 has no pivot
  EXPECT_TRUE(def.positions[0] == 0 || def.positions[0] == 1);

  // Swapping the failed position for row 1's unit column repairs the basis.
  basis[static_cast<std::size_t>(def.positions[0])] = 3;
  EXPECT_TRUE(lu.factorize(a, basis));
}

// A seed naming the same structural column twice cannot map onto the model
// at all — the warm attempt is rejected before factorization and the cold
// path answers.
TEST(SimplexWarmTest, DuplicateStructuralSeedFallsBackCold) {
  core::Rng rng(74);
  const LpModel m = warm_test_model(rng, 8, 6, 1.0);
  const Solution cold = solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  Basis dup;
  dup.entries.assign(static_cast<std::size_t>(m.num_constraints()),
                     {BasisEntry::Kind::kStructural, 0});
  const Solution s = solve(m, dup);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_FALSE(s.warm_started);
  EXPECT_NEAR(s.objective, cold.objective, 1e-9);
}

// An all-artificial seed on a model whose inequality rows own no
// artificials is unmappable (map rejection); on an all-equality model it
// maps but leaves every row hot, exhausting the warm repair budget. Both
// must land on the cold answer with warm_started unset.
TEST(SimplexWarmTest, AllArtificialSeedFallsBackCold) {
  // Mixed rows: the <= rows have slacks, not artificials -> unmappable.
  core::Rng rng(75);
  const LpModel mixed = warm_test_model(rng, 8, 6, 1.0);
  Basis all_art;
  for (int i = 0; i < mixed.num_constraints(); ++i)
    all_art.entries.push_back({BasisEntry::Kind::kArtificial, i});
  const Solution a = solve(mixed, all_art);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  EXPECT_FALSE(a.warm_started);
  EXPECT_NEAR(a.objective, solve(mixed).objective, 1e-9);

  // All-equality model: the seed maps and factorizes, but every artificial
  // sits at its (positive) rhs — more hot rows than warm_repair_limit
  // tolerates, and useless to the dual loop — so the solve reruns cold.
  LpModel eq;
  for (int j = 0; j < 3; ++j) eq.add_variable(1.0);
  for (int i = 0; i < 3; ++i) {
    const int r = eq.add_constraint(Sense::kEq, 1.0);
    eq.add_coefficient(r, i, 1.0);
  }
  Basis eq_art;
  for (int i = 0; i < 3; ++i) eq_art.entries.push_back({BasisEntry::Kind::kArtificial, i});
  const Solution b = solve(eq, eq_art);
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_FALSE(b.warm_started);
  EXPECT_NEAR(b.objective, 3.0, 1e-7);
}

}  // namespace
}  // namespace titan::lp
