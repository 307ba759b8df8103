#include "math/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace eadrl::math {
namespace {

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, Identity) {
  Matrix i = Matrix::Identity(3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, RowColAccess) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.Row(1), (Vec{4, 5, 6}));
  EXPECT_EQ(m.Col(2), (Vec{3, 6}));
  m.SetRow(0, {7, 8, 9});
  EXPECT_EQ(m.Row(0), (Vec{7, 8, 9}));
}

TEST(MatrixTest, Transpose) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, MatMul) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatVecAndTransposeMatVec) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(a.MatVec({1, 1, 1}), (Vec{6, 15}));
  EXPECT_EQ(a.TransposeMatVec({1, 1}), (Vec{5, 7, 9}));
}

TEST(MatrixTest, TransposeMatVecMatchesExplicitTranspose) {
  Matrix a{{1, -2, 0.5}, {3, 4, -1}, {0, 2, 2}, {5, -5, 1}};
  Vec x{0.3, -1.2, 2.0, 0.7};
  Vec direct = a.TransposeMatVec(x);
  Vec via = a.Transpose().MatVec(x);
  ASSERT_EQ(direct.size(), via.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], via[i], 1e-12);
  }
}

TEST(MatrixTest, AddScaledAndScale) {
  Matrix a{{1, 1}, {1, 1}};
  Matrix b{{1, 2}, {3, 4}};
  a.AddScaled(b, 2.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 9.0);
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a(1, 1), 4.5);
}

TEST(MatrixTest, Norms) {
  Matrix a{{3, 0}, {0, 4}};
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4.0);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

// ---------------------------------------------------------------------------
// Batch-major kernels. Bit-identical comparisons (EXPECT_DOUBLE_EQ) are
// deliberate: the determinism contract in matrix.h promises the blocked and
// fused kernels reproduce the naive loops exactly, not just approximately.

Matrix PseudoRandom(size_t rows, size_t cols, unsigned seed) {
  // Small LCG so the fixtures need no RNG dependency; values in [-1, 1).
  Matrix m(rows, cols);
  unsigned x = seed * 2654435761u + 1u;
  for (double& v : m.data()) {
    x = x * 1664525u + 1013904223u;
    v = static_cast<double>(x % 20000u) / 10000.0 - 1.0;
  }
  return m;
}

// Naive triple loop in the contract's ascending-k order.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      out(i, j) = s;
    }
  }
  return out;
}

TEST(MatrixKernelTest, BlockedMatMulMatchesNaiveBitwise) {
  // Shapes straddling the 4-row register block, including remainder rows.
  for (size_t m : {1u, 3u, 4u, 5u, 8u, 17u}) {
    Matrix a = PseudoRandom(m, 7, 1);
    Matrix b = PseudoRandom(7, 5, 2);
    Matrix got = a.MatMul(b);
    Matrix want = NaiveMatMul(a, b);
    ASSERT_EQ(got.rows(), want.rows());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.data()[i], want.data()[i]) << "m=" << m;
    }
  }
}

TEST(MatrixKernelTest, MatMulTransposeAMatchesMaterializedBitwise) {
  Matrix a = PseudoRandom(6, 4, 3);
  Matrix b = PseudoRandom(6, 5, 4);
  Matrix fused = a.MatMulTransposeA(b);
  Matrix chained = a.Transpose().MatMul(b);
  ASSERT_EQ(fused.rows(), 4u);
  ASSERT_EQ(fused.cols(), 5u);
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_DOUBLE_EQ(fused.data()[i], chained.data()[i]);
  }
}

TEST(MatrixKernelTest, MatMulTransposeAAccumulatesInAscendingRowOrder) {
  Matrix a = PseudoRandom(5, 3, 5);
  Matrix b = PseudoRandom(5, 2, 6);
  // Per-sample accumulation: out += a_row_k^T b_row_k, k ascending.
  Matrix want(3, 2, 0.25);
  for (size_t k = 0; k < a.rows(); ++k) {
    for (size_t i = 0; i < 3u; ++i) {
      for (size_t j = 0; j < 2u; ++j) want(i, j) += a(k, i) * b(k, j);
    }
  }
  Matrix got(3, 2, 0.25);
  a.MatMulTransposeAInto(b, &got, /*accumulate=*/true);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got.data()[i], want.data()[i]);
  }
}

TEST(MatrixKernelTest, MatMulTransposeBMatchesMaterializedBitwise) {
  for (size_t cols : {1u, 3u, 4u, 6u}) {  // straddle the 4-column tile.
    Matrix x = PseudoRandom(5, 7, 7);
    Matrix w = PseudoRandom(cols, 7, 8);
    Matrix fused = x.MatMulTransposeB(w);
    Matrix chained = x.MatMul(w.Transpose());
    ASSERT_EQ(fused.cols(), cols);
    for (size_t i = 0; i < fused.size(); ++i) {
      EXPECT_DOUBLE_EQ(fused.data()[i], chained.data()[i]) << "cols=" << cols;
    }
  }
}

// ---------------------------------------------------------------------------
// Forward-kernel variants. The AVX2 path must reproduce the scalar reference
// byte for byte, so these compare with memcmp: the sign of zero counts,
// which EXPECT_DOUBLE_EQ would forgive. The one exception is which NaN a
// NaN result is. When two NaNs meet in an add, IEEE 754 lets either one
// propagate; x86 keeps the first operand, and for the scalar reference the
// compiler picks that order (the -O3 and the -O2 sanitizer builds differ).
// So a NaN result only has to be NaN in both.

// Index of the first element whose bytes differ, or -1 when all agree.
long FirstByteMismatch(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const double g = got.data()[i];
    const double w = want.data()[i];
    if (std::isnan(g) && std::isnan(w)) continue;
    if (std::memcmp(&g, &w, sizeof(double)) != 0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

// An input where a fused multiply-add rounds differently: row `i` of `a`
// and row `j` of `b` make out(i, j) = 0.0 + 1 * -(1 + 2^-29) +
// (1 + 2^-30)^2. Rounding the product first gives exactly 0; fusing it
// with the add keeps the 2^-60 the product's rounding drops.
void PlantFmaProbe(Matrix* a, size_t i, Matrix* b, size_t j) {
  const double e = std::ldexp(1.0, -30);
  for (size_t k = 0; k < a->cols(); ++k) (*a)(i, k) = 0.0;
  for (size_t k = 0; k < b->cols(); ++k) (*b)(j, k) = 0.0;
  (*a)(i, 0) = 1.0;
  (*a)(i, 1) = 1.0 + e;
  (*b)(j, 0) = -(1.0 + 2.0 * e);
  (*b)(j, 1) = 1.0 + e;
}

// Actor-shaped operands with signed zeros, infinities and NaN in both; a
// last row of -0.0 against a last row of positive weights, so every product
// of out(m-1, n-1) is -0.0 and only the +0.0 start makes it +0.0; and the
// FMA probe at out(0, 1).
void ForwardOperands(size_t m, size_t k_dim, size_t n, Matrix* a, Matrix* b) {
  *a = PseudoRandom(m, k_dim, static_cast<unsigned>(m * 131 + k_dim));
  *b = PseudoRandom(n, k_dim, static_cast<unsigned>(n * 17 + k_dim));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {-0.0, inf, -inf, nan};
  for (size_t s = 0; s < 4; ++s) {
    a->data()[(s * 37 + 5) % a->size()] = specials[s];
    b->data()[(s * 53 + 11) % b->size()] = specials[s];
    b->data()[(s * 29 + 3 * k_dim) % b->size()] = specials[(s + 2) % 4];
  }
  for (size_t k = 0; k < k_dim; ++k) {
    (*a)(m - 1, k) = -0.0;
    (*b)(n - 1, k) = 0.5;
  }
  PlantFmaProbe(a, 0, b, 1);
}

constexpr size_t kActorLayers[][2] = {{10, 64}, {64, 64}, {64, 43}};
constexpr size_t kForwardRows[] = {1, 4, 7, 8, 9, 35, 64};

TEST(ForwardKernelTest, Avx2MatchesReferenceBytewise) {
  if (ForwardKernelFor(kForwardPackMinRows) != ForwardKernel::kAvx2) {
    GTEST_SKIP() << "this CPU has no AVX2; only the scalar kernel runs";
  }
  for (const auto& layer : kActorLayers) {
    for (size_t m : kForwardRows) {
      Matrix a;
      Matrix b;
      ForwardOperands(m, layer[0], layer[1], &a, &b);
      Matrix want;
      Matrix got;
      MatMulTransposeBWith(ForwardKernel::kScalar, a, b, &want);
      MatMulTransposeBWith(ForwardKernel::kAvx2, a, b, &got);
      ASSERT_EQ(got.rows(), m);
      ASSERT_EQ(got.cols(), layer[1]);
      const long bad = FirstByteMismatch(got, want);
      EXPECT_EQ(bad, -1) << layer[0] << "->" << layer[1] << " m=" << m
                         << " got " << got.data()[bad < 0 ? 0 : bad]
                         << " want " << want.data()[bad < 0 ? 0 : bad];
    }
  }
}

TEST(ForwardKernelTest, DispatchMatchesReferenceBytewise) {
  // MatMulTransposeBInto picks per call; whatever it picks on this host
  // must give the reference's bytes, below and above the threshold.
  for (const auto& layer : kActorLayers) {
    for (size_t m : kForwardRows) {
      Matrix a;
      Matrix b;
      ForwardOperands(m, layer[0], layer[1], &a, &b);
      Matrix want;
      MatMulTransposeBWith(ForwardKernel::kScalar, a, b, &want);
      // The FMA probe guards the reference too: a build that contracted
      // its multiply-add would read 2^-60 here.
      EXPECT_EQ(want(0, 1), 0.0);
      Matrix got;
      a.MatMulTransposeBInto(b, &got);
      EXPECT_EQ(FirstByteMismatch(got, want), -1)
          << layer[0] << "->" << layer[1] << " m=" << m << " via "
          << ForwardKernelName(ForwardKernelFor(m));
    }
  }
  EXPECT_EQ(ForwardKernelFor(kForwardPackMinRows - 1), ForwardKernel::kScalar);
}

TEST(MatrixKernelTest, TransposeMatVecKeepsExactZeroHandling) {
  // The branch-free kernel must match the old skip-zero loop on values
  // (a skipped term and an added 0.0*row term agree for finite rows).
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  Vec x{2.0, 0.0, -1.0};
  Vec got = a.TransposeMatVec(x);
  EXPECT_EQ(got, (Vec{2.0 * 1 - 5, 2.0 * 2 - 6}));
}

TEST(MatrixKernelTest, IntoVariantsReuseCapacityAcrossShapes) {
  Matrix a = PseudoRandom(6, 6, 9);
  Matrix b = PseudoRandom(6, 6, 10);
  Matrix out;
  a.MatMulInto(b, &out);
  const double* warm = out.data().data();
  a.MatMulInto(b, &out);  // same shape: must not reallocate.
  EXPECT_EQ(out.data().data(), warm);
  Vec v;
  a.RowInto(2, &v);
  EXPECT_EQ(v, a.Row(2));
  a.ColInto(3, &v);
  EXPECT_EQ(v, a.Col(3));
  Vec y;
  a.MatVecInto(v, &y);
  EXPECT_EQ(y, a.MatVec(v));
}

TEST(MatrixKernelTest, ResizeKeepsCapacityAndShape) {
  Matrix m(4, 8, 1.0);
  const double* warm = m.data().data();
  m.Resize(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m.Resize(4, 8);
  EXPECT_EQ(m.data().data(), warm);  // never shrank capacity.
}

TEST(MatrixKernelTest, SoftmaxRowsMatchesVectorSoftmaxBitwise) {
  Matrix m = PseudoRandom(5, 9, 11);
  m.Scale(3.0);  // spread the logits a bit.
  Matrix rows = m;
  SoftmaxRowsInPlace(&rows);
  for (size_t r = 0; r < m.rows(); ++r) {
    Vec want = Softmax(m.Row(r));
    for (size_t j = 0; j < m.cols(); ++j) {
      EXPECT_DOUBLE_EQ(rows(r, j), want[j]);
    }
  }
}

}  // namespace
}  // namespace eadrl::math
