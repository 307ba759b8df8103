#include "math/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "chk/chk.h"
#include "obs/resource.h"

namespace eadrl::math {

namespace {
// Matrix/vector results below are the scratch churn on the nn/rl hot paths;
// reporting them lets spans attribute allocation pressure (see
// obs/resource.h). ~1 ns per call, so unconditional is fine. The *Into
// variants deliberately do not report: reusing a warm buffer is not an
// allocation, and the span counters exist to surface exactly that difference.
inline void CountScratch(size_t doubles) {
  obs::CountAlloc(doubles * sizeof(double));
}

// Rows per register tile of the product kernels: four output rows share one
// streamed row of the right-hand operand, so the inner loop is four
// independent multiply-add chains over contiguous memory — wide enough
// to keep vector units busy, narrow enough to stay in registers.
constexpr size_t kRowBlock = 4;
}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin() == rows.end() ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    EADRL_CHECK_EQ(r.size(), cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromRows(const std::vector<Vec>& rows) {
  EADRL_CHECK(!rows.empty());
  Matrix m(rows.size(), rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) m.SetRow(i, rows[i]);
  return m;
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Vec Matrix::Row(size_t i) const {
  EADRL_CHECK_LT(i, rows_);
  CountScratch(cols_);
  return Vec(data_.begin() + i * cols_, data_.begin() + (i + 1) * cols_);
}

Vec Matrix::Col(size_t j) const {
  EADRL_CHECK_LT(j, cols_);
  CountScratch(rows_);
  Vec out(rows_);
  for (size_t i = 0; i < rows_; ++i) out[i] = data_[i * cols_ + j];
  return out;
}

void Matrix::RowInto(size_t i, Vec* out) const {
  EADRL_CHECK_LT(i, rows_);
  out->assign(data_.begin() + i * cols_, data_.begin() + (i + 1) * cols_);
}

void Matrix::ColInto(size_t j, Vec* out) const {
  EADRL_CHECK_LT(j, cols_);
  out->resize(rows_);
  for (size_t i = 0; i < rows_; ++i) (*out)[i] = data_[i * cols_ + j];
}

void Matrix::SetRow(size_t i, const Vec& row) {
  EADRL_CHECK_LT(i, rows_);
  EADRL_CHECK_EQ(row.size(), cols_);
  for (size_t j = 0; j < cols_; ++j) data_[i * cols_ + j] = row[j];
}

Matrix Matrix::Transpose() const {
  CountScratch(data_.size());
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out(j, i) = data_[i * cols_ + j];
  }
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  CountScratch(rows_ * other.cols_);
  Matrix out;
  MatMulInto(other, &out);
  return out;
}

void Matrix::MatMulInto(const Matrix& other, Matrix* out) const {
  EADRL_CHK_DIM(other.rows_, cols_, "Matrix::MatMul inner dimension");
  EADRL_CHECK_EQ(cols_, other.rows_);
  EADRL_CHECK(out != this && out != &other);
  const size_t n = other.cols_;
  out->Resize(rows_, n);
  std::fill(out->data_.begin(), out->data_.end(), 0.0);
  // Register-blocked i/k/j: kRowBlock output rows at a time, k sequential,
  // contiguous j innermost. Each output element still accumulates over k in
  // ascending order, so the tiling is bit-identical to the naive loop; the
  // branch-free inner loop (no `a == 0.0` skip) only normalizes the sign of
  // exact-zero results.
  size_t i = 0;
  for (; i + kRowBlock <= rows_; i += kRowBlock) {
    const double* a0 = &data_[(i + 0) * cols_];
    const double* a1 = &data_[(i + 1) * cols_];
    const double* a2 = &data_[(i + 2) * cols_];
    const double* a3 = &data_[(i + 3) * cols_];
    double* o0 = &out->data_[(i + 0) * n];
    double* o1 = &out->data_[(i + 1) * n];
    double* o2 = &out->data_[(i + 2) * n];
    double* o3 = &out->data_[(i + 3) * n];
    for (size_t k = 0; k < cols_; ++k) {
      const double* brow = &other.data_[k * n];
      const double c0 = a0[k];
      const double c1 = a1[k];
      const double c2 = a2[k];
      const double c3 = a3[k];
      for (size_t j = 0; j < n; ++j) {
        const double b = brow[j];
        o0[j] += c0 * b;
        o1[j] += c1 * b;
        o2[j] += c2 * b;
        o3[j] += c3 * b;
      }
    }
  }
  for (; i < rows_; ++i) {
    const double* arow = &data_[i * cols_];
    double* orow = &out->data_[i * n];
    for (size_t k = 0; k < cols_; ++k) {
      const double a = arow[k];
      const double* brow = &other.data_[k * n];
      for (size_t j = 0; j < n; ++j) orow[j] += a * brow[j];
    }
  }
}

Matrix Matrix::MatMulTransposeA(const Matrix& other) const {
  CountScratch(cols_ * other.cols_);
  Matrix out;
  MatMulTransposeAInto(other, &out);
  return out;
}

void Matrix::MatMulTransposeAInto(const Matrix& other, Matrix* out,
                                  bool accumulate) const {
  // this is K x M, other is K x N; out = this^T * other is M x N.
  EADRL_CHK_DIM(other.rows_, rows_, "Matrix::MatMulTransposeA row count");
  EADRL_CHECK_EQ(rows_, other.rows_);
  EADRL_CHECK(out != this && out != &other);
  const size_t n = other.cols_;
  if (accumulate) {
    EADRL_CHECK(out->rows_ == cols_ && out->cols_ == n);
  } else {
    out->Resize(cols_, n);
    std::fill(out->data_.begin(), out->data_.end(), 0.0);
  }
  // k outermost: row k of `this` broadcasts down column i while row k of
  // `other` streams across j. Per output element the k contributions arrive
  // in ascending order — the same order as Transpose().MatMul(other) and,
  // when k indexes batch samples, the same order as per-sample gradient
  // accumulation.
  for (size_t k = 0; k < rows_; ++k) {
    const double* arow = &data_[k * cols_];
    const double* brow = &other.data_[k * n];
    for (size_t i = 0; i < cols_; ++i) {
      const double a = arow[i];
      double* orow = &out->data_[i * n];
      for (size_t j = 0; j < n; ++j) orow[j] += a * brow[j];
    }
  }
}

Matrix Matrix::MatMulTransposeB(const Matrix& other) const {
  CountScratch(rows_ * other.rows_);
  Matrix out;
  MatMulTransposeBInto(other, &out);
  return out;
}

void Matrix::MatMulTransposeBInto(const Matrix& other, Matrix* out) const {
  MatMulTransposeBWith(ForwardKernelFor(rows_), *this, other, out);
}

namespace {

// out (M x N) = a (M x K) * b^T, b being N x K; all three row-major. The
// reference: both operands are traversed along contiguous rows, out[i][j]
// is the dot of row i with row j, accumulated over k in ascending order.
// Four output columns per pass share each load of the left row (independent
// accumulator chains).
void MatMulTransposeBScalar(const double* a, const double* b, double* out,
                            size_t m, size_t k_dim, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k_dim;
    double* orow = out + i * n;
    size_t j = 0;
    for (; j + kRowBlock <= n; j += kRowBlock) {
      const double* b0 = b + (j + 0) * k_dim;
      const double* b1 = b + (j + 1) * k_dim;
      const double* b2 = b + (j + 2) * k_dim;
      const double* b3 = b + (j + 3) * k_dim;
      double s0 = 0.0;
      double s1 = 0.0;
      double s2 = 0.0;
      double s3 = 0.0;
      for (size_t k = 0; k < k_dim; ++k) {
        const double x = arow[k];
        s0 += x * b0[k];
        s1 += x * b1[k];
        s2 += x * b2[k];
        s3 += x * b3[k];
      }
      orow[j + 0] = s0;
      orow[j + 1] = s1;
      orow[j + 2] = s2;
      orow[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const double* brow = b + j * k_dim;
      double s = 0.0;
      for (size_t k = 0; k < k_dim; ++k) s += arow[k] * brow[k];
      orow[j] = s;
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define EADRL_HAVE_AVX2_KERNEL 1
#if defined(__clang__)
// Clang has no optimize attribute; it contracts only within one source
// expression, and the intrinsics below are separate ones.
#define EADRL_NO_FP_CONTRACT
#else
#define EADRL_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#endif

// Columns per register tile: two 4-double AVX2 vectors.
constexpr size_t kColTile = 8;

bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}

// Stores the first `count` lanes of a column tile (fewer than kColTile in
// the last tile of a row whose width is not a multiple of it).
__attribute__((target("avx2"))) inline void StoreTile(double* dst, __m256d lo,
                                                      __m256d hi,
                                                      size_t count) {
  if (count == kColTile) {
    _mm256_storeu_pd(dst, lo);
    _mm256_storeu_pd(dst + 4, hi);
    return;
  }
  alignas(32) double tile[kColTile];
  _mm256_store_pd(tile, lo);
  _mm256_store_pd(tile + 4, hi);
  std::memcpy(dst, tile, count * sizeof(double));
}

// The reference's sums, eight columns at a time: the panel holds b^T with
// its rows padded to `stride` columns, so out[i][j..j+8) accumulates
// a[i][k] * panel[k][j..j+8) over k ascending, one _mm256_mul_pd then one
// _mm256_add_pd per step, from +0.0 -- exactly the scalar chain's
// roundings. fp-contract=off (and no "fma" target) keeps the compiler from
// fusing the pair; the padding columns are computed and never stored.
__attribute__((target("avx2"))) EADRL_NO_FP_CONTRACT void MatMulPackedAvx2(
    const double* a, const double* panel, double* out, size_t m, size_t k_dim,
    size_t n, size_t stride) {
  size_t i = 0;
  for (; i + kRowBlock <= m; i += kRowBlock) {
    const double* a0 = a + (i + 0) * k_dim;
    const double* a1 = a + (i + 1) * k_dim;
    const double* a2 = a + (i + 2) * k_dim;
    const double* a3 = a + (i + 3) * k_dim;
    for (size_t j = 0; j < n; j += kColTile) {
      __m256d s0l = _mm256_setzero_pd(), s0h = _mm256_setzero_pd();
      __m256d s1l = _mm256_setzero_pd(), s1h = _mm256_setzero_pd();
      __m256d s2l = _mm256_setzero_pd(), s2h = _mm256_setzero_pd();
      __m256d s3l = _mm256_setzero_pd(), s3h = _mm256_setzero_pd();
      const double* p = panel + j;
      for (size_t k = 0; k < k_dim; ++k, p += stride) {
        const __m256d bl = _mm256_loadu_pd(p);
        const __m256d bh = _mm256_loadu_pd(p + 4);
        __m256d x = _mm256_set1_pd(a0[k]);
        s0l = _mm256_add_pd(s0l, _mm256_mul_pd(x, bl));
        s0h = _mm256_add_pd(s0h, _mm256_mul_pd(x, bh));
        x = _mm256_set1_pd(a1[k]);
        s1l = _mm256_add_pd(s1l, _mm256_mul_pd(x, bl));
        s1h = _mm256_add_pd(s1h, _mm256_mul_pd(x, bh));
        x = _mm256_set1_pd(a2[k]);
        s2l = _mm256_add_pd(s2l, _mm256_mul_pd(x, bl));
        s2h = _mm256_add_pd(s2h, _mm256_mul_pd(x, bh));
        x = _mm256_set1_pd(a3[k]);
        s3l = _mm256_add_pd(s3l, _mm256_mul_pd(x, bl));
        s3h = _mm256_add_pd(s3h, _mm256_mul_pd(x, bh));
      }
      const size_t count = std::min(kColTile, n - j);
      StoreTile(out + (i + 0) * n + j, s0l, s0h, count);
      StoreTile(out + (i + 1) * n + j, s1l, s1h, count);
      StoreTile(out + (i + 2) * n + j, s2l, s2h, count);
      StoreTile(out + (i + 3) * n + j, s3l, s3h, count);
    }
  }
  for (; i < m; ++i) {
    const double* arow = a + i * k_dim;
    for (size_t j = 0; j < n; j += kColTile) {
      __m256d sl = _mm256_setzero_pd();
      __m256d sh = _mm256_setzero_pd();
      const double* p = panel + j;
      for (size_t k = 0; k < k_dim; ++k, p += stride) {
        const __m256d x = _mm256_set1_pd(arow[k]);
        sl = _mm256_add_pd(sl, _mm256_mul_pd(x, _mm256_loadu_pd(p)));
        sh = _mm256_add_pd(sh, _mm256_mul_pd(x, _mm256_loadu_pd(p + 4)));
      }
      StoreTile(out + i * n + j, sl, sh, std::min(kColTile, n - j));
    }
  }
}

// Packs b^T (K x N, rows padded to a multiple of kColTile with zeros) into
// a per-thread panel on every call. Not cached: the weights change under
// every Adam step, target soft update and reload, and the pack is cheap
// next to the product once a call has kForwardPackMinRows rows.
void MatMulTransposeBAvx2(const double* a, const double* b, double* out,
                          size_t m, size_t k_dim, size_t n) {
  thread_local std::vector<double> panel;
  const size_t stride = (n + kColTile - 1) / kColTile * kColTile;
  panel.resize(k_dim * stride);
  for (size_t k = 0; k < k_dim; ++k) {
    double* prow = panel.data() + k * stride;
    for (size_t j = 0; j < n; ++j) prow[j] = b[j * k_dim + k];
    std::fill(prow + n, prow + stride, 0.0);
  }
  MatMulPackedAvx2(a, panel.data(), out, m, k_dim, n, stride);
}
#endif

}  // namespace

ForwardKernel ForwardKernelFor(size_t rows) {
#ifdef EADRL_HAVE_AVX2_KERNEL
  if (rows >= kForwardPackMinRows && CpuHasAvx2()) return ForwardKernel::kAvx2;
#else
  (void)rows;
#endif
  return ForwardKernel::kScalar;
}

const char* ForwardKernelName(ForwardKernel kernel) {
  switch (kernel) {
    case ForwardKernel::kScalar:
      return "scalar";
    case ForwardKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void MatMulTransposeBWith(ForwardKernel kernel, const Matrix& a,
                          const Matrix& b, Matrix* out) {
  // a is M x K, b is N x K; out = a * b^T is M x N.
  EADRL_CHK_DIM(b.cols(), a.cols(), "Matrix::MatMulTransposeB column count");
  EADRL_CHECK_EQ(a.cols(), b.cols());
  EADRL_CHECK(out != &a && out != &b);
  const size_t m = a.rows();
  const size_t k_dim = a.cols();
  const size_t n = b.rows();
  out->Resize(m, n);
  switch (kernel) {
    case ForwardKernel::kScalar:
      MatMulTransposeBScalar(a.data().data(), b.data().data(),
                             out->data().data(), m, k_dim, n);
      return;
    case ForwardKernel::kAvx2:
      EADRL_CHECK(ForwardKernelFor(kForwardPackMinRows) ==
                  ForwardKernel::kAvx2);
#ifdef EADRL_HAVE_AVX2_KERNEL
      MatMulTransposeBAvx2(a.data().data(), b.data().data(),
                           out->data().data(), m, k_dim, n);
#endif
      return;
  }
}

Vec Matrix::MatVec(const Vec& x) const {
  CountScratch(rows_);
  Vec out;
  MatVecInto(x, &out);
  return out;
}

void Matrix::MatVecInto(const Vec& x, Vec* out) const {
  EADRL_CHK_DIM(x.size(), cols_, "Matrix::MatVec operand");
  EADRL_CHECK_EQ(x.size(), cols_);
  EADRL_CHECK(out != &x);
  out->resize(rows_);
  // Four rows per pass share each load of x (independent accumulator
  // chains); each output element sums over j in ascending order, identical
  // to the single-row loop.
  size_t i = 0;
  for (; i + kRowBlock <= rows_; i += kRowBlock) {
    const double* r0 = &data_[(i + 0) * cols_];
    const double* r1 = &data_[(i + 1) * cols_];
    const double* r2 = &data_[(i + 2) * cols_];
    const double* r3 = &data_[(i + 3) * cols_];
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (size_t j = 0; j < cols_; ++j) {
      const double xj = x[j];
      s0 += r0[j] * xj;
      s1 += r1[j] * xj;
      s2 += r2[j] * xj;
      s3 += r3[j] * xj;
    }
    (*out)[i + 0] = s0;
    (*out)[i + 1] = s1;
    (*out)[i + 2] = s2;
    (*out)[i + 3] = s3;
  }
  for (; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    double s = 0.0;
    for (size_t j = 0; j < cols_; ++j) s += row[j] * x[j];
    (*out)[i] = s;
  }
}

Vec Matrix::TransposeMatVec(const Vec& x) const {
  CountScratch(cols_);
  Vec out;
  TransposeMatVecInto(x, &out);
  return out;
}

void Matrix::TransposeMatVecInto(const Vec& x, Vec* out) const {
  EADRL_CHK_DIM(x.size(), rows_, "Matrix::TransposeMatVec operand");
  EADRL_CHECK_EQ(x.size(), rows_);
  EADRL_CHECK(out != &x);
  out->assign(cols_, 0.0);
  // Branch-free (the old `xi == 0.0` skip defeated vectorization); per
  // output element the i contributions arrive in ascending order either way.
  for (size_t i = 0; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    const double xi = x[i];
    for (size_t j = 0; j < cols_; ++j) (*out)[j] += xi * row[j];
  }
}

void Matrix::AddScaled(const Matrix& other, double alpha) {
  EADRL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::Scale(double s) {
  for (double& v : data_) v *= s;
}

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

void SoftmaxRowsInPlace(Matrix* m) {
  EADRL_CHECK(m->cols() > 0);
  const size_t cols = m->cols();
  for (size_t i = 0; i < m->rows(); ++i) {
    double* row = m->RowPtr(i);
    // Same max-shift/exp/normalize sequence as math::Softmax, element order
    // included, so each row matches the vector call bit for bit.
    double mx = row[0];
    for (size_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    for (size_t j = 0; j < cols; ++j) row[j] /= sum;
  }
}

}  // namespace eadrl::math
