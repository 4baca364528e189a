// Dense dynamic matrix over real or complex scalars, plus the small set of
// vector helpers the detectors need. Row-major storage; sizes in this
// library are tiny (antennas <= ~16), so clarity beats blocking/SIMD.
#pragma once

#include <cassert>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/types.h"

namespace geosphere::linalg {

namespace detail {

template <typename T>
struct ScalarTraits {
  static T conj(T x) { return x; }
  static double abs_sq(T x) { return static_cast<double>(x) * static_cast<double>(x); }
};

template <typename R>
struct ScalarTraits<std::complex<R>> {
  static std::complex<R> conj(std::complex<R> x) { return std::conj(x); }
  static double abs_sq(std::complex<R> x) { return std::norm(x); }
};

}  // namespace detail

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Row-major brace construction: Matrix<double>{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ > 0 ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
      if (r.size() != cols_) throw std::invalid_argument("ragged initializer for Matrix");
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  static Matrix zeros(std::size_t rows, std::size_t cols) { return Matrix(rows, cols); }

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  /// Reshapes to rows x cols with every element zeroed, reusing the
  /// existing storage capacity -- the batched detection paths use this for
  /// per-batch scratch matrices instead of reallocating.
  void assign_shape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }

  /// Reshapes to rows x cols WITHOUT clearing retained elements (grown
  /// storage is value-initialized by vector::resize) -- for outputs the
  /// caller overwrites in full, e.g. the batched rotation, where the
  /// per-batch zero pass of assign_shape is pure waste.
  void resize_shape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  T& operator()(std::size_t i, std::size_t j) {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  const T& operator()(std::size_t i, std::size_t j) const {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  const std::vector<T>& data() const { return data_; }

  /// Pointer to row i's contiguous storage (row-major layout). The batched
  /// tree searches keep per-vector data in rows so each vector is one
  /// contiguous span.
  const T* row_data(std::size_t i) const {
    assert(i < rows_);
    return data_.data() + i * cols_;
  }

  Matrix transpose() const {
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
    return out;
  }

  /// Conjugate transpose (equals transpose for real T).
  Matrix hermitian() const {
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j)
        out(j, i) = detail::ScalarTraits<T>::conj((*this)(i, j));
    return out;
  }

  std::vector<T> col(std::size_t j) const {
    assert(j < cols_);
    std::vector<T> out(rows_);
    for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, j);
    return out;
  }

  /// Column `j` into a caller-owned buffer whose capacity is reused -- the
  /// batched detection paths use this to walk the columns of a received
  /// batch without per-column heap traffic.
  void col_into(std::size_t j, std::vector<T>& out) const {
    assert(j < cols_);
    out.resize(rows_);
    for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, j);
  }

  std::vector<T> row(std::size_t i) const {
    assert(i < rows_);
    return std::vector<T>(data_.begin() + static_cast<std::ptrdiff_t>(i * cols_),
                          data_.begin() + static_cast<std::ptrdiff_t>((i + 1) * cols_));
  }

  void set_col(std::size_t j, const std::vector<T>& v) {
    assert(j < cols_ && v.size() == rows_);
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
  }

  /// Columns `keep` of this matrix, in the given order (used for SIC and
  /// column-reordered QR).
  Matrix select_cols(const std::vector<std::size_t>& keep) const {
    Matrix out(rows_, keep.size());
    for (std::size_t j = 0; j < keep.size(); ++j) {
      assert(keep[j] < cols_);
      for (std::size_t i = 0; i < rows_; ++i) out(i, j) = (*this)(i, keep[j]);
    }
    return out;
  }

  Matrix block(std::size_t i0, std::size_t j0, std::size_t nrows, std::size_t ncols) const {
    assert(i0 + nrows <= rows_ && j0 + ncols <= cols_);
    Matrix out(nrows, ncols);
    for (std::size_t i = 0; i < nrows; ++i)
      for (std::size_t j = 0; j < ncols; ++j) out(i, j) = (*this)(i0 + i, j0 + j);
    return out;
  }

  double frobenius_norm_sq() const {
    double s = 0.0;
    for (const auto& x : data_) s += detail::ScalarTraits<T>::abs_sq(x);
    return s;
  }

  Matrix& operator+=(const Matrix& o) {
    check_same_shape(o);
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += o.data_[k];
    return *this;
  }
  Matrix& operator-=(const Matrix& o) {
    check_same_shape(o);
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= o.data_[k];
    return *this;
  }
  Matrix& operator*=(T s) {
    for (auto& x : data_) x *= s;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, T s) { return a *= s; }
  friend Matrix operator*(T s, Matrix a) { return a *= s; }

  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    Matrix out;
    multiply_into(a, b, out);
    return out;
  }

  /// Matrix-matrix product into a caller-owned matrix whose storage is
  /// reused -- the batched detection hot path (one product per subcarrier
  /// instead of one mat-vec per received vector). Column `j` of the result
  /// is bit-identical to `multiply_into(a, b.col(j))`: every output element
  /// accumulates over k in increasing order, exactly like the mat-vec form,
  /// so batched and per-vector detection agree to the last bit. operator*
  /// delegates here (one shared accumulation order). `out` must not alias
  /// `a` or `b`.
  friend void multiply_into(const Matrix& a, const Matrix& b, Matrix& out) {
    if (a.cols_ != b.rows_) throw std::invalid_argument("Matrix product: shape mismatch");
    out.rows_ = a.rows_;
    out.cols_ = b.cols_;
    out.data_.assign(a.rows_ * b.cols_, T{});
    for (std::size_t i = 0; i < a.rows_; ++i) {
      T* orow = out.data_.data() + i * b.cols_;
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const T aik = a(i, k);
        const T* brow = b.data_.data() + k * b.cols_;
        for (std::size_t j = 0; j < b.cols_; ++j) orow[j] += aik * brow[j];
      }
    }
  }

  friend std::vector<T> operator*(const Matrix& a, const std::vector<T>& v) {
    std::vector<T> out;
    multiply_into(a, v, out);
    return out;
  }

  /// out = (a * b)^T into a caller-owned matrix whose storage is reused.
  /// Row j of the result accumulates over k in increasing order, exactly
  /// like multiply_into(a, b.col(j)) -- so each row is bit-identical to the
  /// per-vector product of column j. This is the scalar reference of the
  /// tree searches' transposed layout (one contiguous row per received
  /// vector): they rotate with detect/sphere/simd/rotate.h, whose tests
  /// compare it against this product bit for bit. `out` must not alias `a`
  /// or `b`.
  friend void multiply_transpose_into(const Matrix& a, const Matrix& b, Matrix& out) {
    if (a.cols_ != b.rows_) throw std::invalid_argument("Matrix product: shape mismatch");
    out.rows_ = b.cols_;
    out.cols_ = a.rows_;
    out.data_.resize(b.cols_ * a.rows_);
    // b's column j is strided; gathering it once per j (instead of once per
    // (i, j)) keeps the inner dot products on contiguous data. The k-order
    // accumulation -- and therefore every result bit -- is unchanged.
    constexpr std::size_t kColBuf = 32;
    const bool buffered = a.cols_ <= kColBuf;
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      if (buffered) {
        // Explicit real arithmetic: per product the exact naive formula
        // (ar*br - ai*bi, ar*bi + ai*br) that std::complex multiplication
        // computes on its finite-operand fast path, with the same one
        // rounding per operation and the same accumulation order -- so
        // results are bit-identical for finite data, without the
        // per-multiply NaN-recovery branch the complex operator carries.
        double bre[kColBuf];
        double bim[kColBuf];
        for (std::size_t j = 0; j < b.cols_; ++j) {
          T* orow = out.data_.data() + j * a.rows_;
          for (std::size_t k = 0; k < a.cols_; ++k) {
            const T v = b(k, j);
            bre[k] = v.real();
            bim[k] = v.imag();
          }
          for (std::size_t i = 0; i < a.rows_; ++i) {
            const T* arow = a.data_.data() + i * a.cols_;
            double acc_re = 0.0;
            double acc_im = 0.0;
            for (std::size_t k = 0; k < a.cols_; ++k) {
              const double ar = arow[k].real();
              const double ai = arow[k].imag();
              const double t_re = ar * bre[k] - ai * bim[k];
              const double t_im = ar * bim[k] + ai * bre[k];
              acc_re += t_re;
              acc_im += t_im;
            }
            orow[i] = T(acc_re, acc_im);
          }
        }
        return;
      }
    }
    T colbuf[kColBuf];
    for (std::size_t j = 0; j < b.cols_; ++j) {
      T* orow = out.data_.data() + j * a.rows_;
      if (buffered) {
        for (std::size_t k = 0; k < a.cols_; ++k) colbuf[k] = b(k, j);
        for (std::size_t i = 0; i < a.rows_; ++i) {
          const T* arow = a.data_.data() + i * a.cols_;
          T acc{};
          for (std::size_t k = 0; k < a.cols_; ++k) acc += arow[k] * colbuf[k];
          orow[i] = acc;
        }
      } else {
        for (std::size_t i = 0; i < a.rows_; ++i) {
          T acc{};
          for (std::size_t k = 0; k < a.cols_; ++k) acc += a(i, k) * b(k, j);
          orow[i] = acc;
        }
      }
    }
  }

  /// Matrix-vector product into a caller-owned buffer whose capacity is
  /// reused -- the form the per-received-vector detection hot path uses to
  /// avoid heap traffic. operator* delegates here, so both forms share one
  /// accumulation order (bit-identical results by construction). `out`
  /// must not alias `v`.
  friend void multiply_into(const Matrix& a, const std::vector<T>& v, std::vector<T>& out) {
    if (a.cols_ != v.size()) throw std::invalid_argument("Matrix-vector product: shape mismatch");
    out.assign(a.rows_, T{});
    for (std::size_t i = 0; i < a.rows_; ++i)
      for (std::size_t j = 0; j < a.cols_; ++j) out[i] += a(i, j) * v[j];
  }

 private:
  void check_same_shape(const Matrix& o) const {
    if (rows_ != o.rows_ || cols_ != o.cols_)
      throw std::invalid_argument("Matrix elementwise op: shape mismatch");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using CMatrix = Matrix<cf64>;
using RMatrix = Matrix<double>;

// ---- Vector helpers -------------------------------------------------------

inline cf64 dot(const CVector& a, const CVector& b) {
  assert(a.size() == b.size());
  cf64 s{};
  for (std::size_t i = 0; i < a.size(); ++i) s += std::conj(a[i]) * b[i];
  return s;
}

inline double norm_sq(const CVector& v) {
  double s = 0.0;
  for (const auto& x : v) s += std::norm(x);
  return s;
}

inline CVector operator-(CVector a, const CVector& b) {
  assert(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

inline CVector operator+(CVector a, const CVector& b) {
  assert(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

/// Squared Euclidean distance ||a - b||^2.
inline double distance_sq(const CVector& a, const CVector& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += std::norm(a[i] - b[i]);
  return s;
}

}  // namespace geosphere::linalg
