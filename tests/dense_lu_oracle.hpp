#pragma once
// Dense matrices and the dense LU with row partial pivoting that the
// simulator used before it factored sparsely. Tests keep them as the oracle
// that linalg::SparseLu must match bit for bit (solutions under ==, and
// every singular verdict).

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <numeric>
#include <vector>

#include "linalg/sparse_lu.hpp"
#include "util/error.hpp"

namespace olp::linalg::oracle {

/// A dense row-major matrix of element type T (double or Complex).
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  T& operator()(std::size_t r, std::size_t c) {
    OLP_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    OLP_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Resets every element to zero without reallocating.
  void set_zero() { data_.assign(data_.size(), T{}); }

  /// Matrix-vector product.
  std::vector<T> mul(const std::vector<T>& x) const {
    OLP_CHECK(x.size() == cols_, "dimension mismatch in matrix-vector product");
    std::vector<T> y(rows_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      T acc{};
      const T* row = &data_[r * cols_];
      for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
      y[r] = acc;
    }
    return y;
  }

  Matrix mul(const Matrix& b) const {
    OLP_CHECK(cols_ == b.rows_, "dimension mismatch in matrix product");
    Matrix out(rows_, b.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const T aik = (*this)(i, k);
        if (aik == T{}) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) {
          out(i, j) += aik * b(k, j);
        }
      }
    }
    return out;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using RealMatrix = Matrix<double>;
using ComplexMatrix = Matrix<Complex>;

/// Infinity norm of a vector.
template <typename T>
double inf_norm(const std::vector<T>& v) {
  double best = 0.0;
  for (const T& x : v) best = std::max(best, std::abs(x));
  return best;
}

/// In-place LU factorization with row partial pivoting.
///
/// Stores L (unit diagonal, below) and U (on/above the diagonal) packed in a
/// single matrix, plus the row permutation. `ok()` is false when a pivot
/// smaller than the singularity threshold was encountered.
template <typename T>
class Lu {
 public:
  explicit Lu(Matrix<T> a, double singular_tol = 1e-13)
      : lu_(std::move(a)), perm_(lu_.rows()) {
    OLP_CHECK(lu_.rows() == lu_.cols(), "LU requires a square matrix");
    const std::size_t n = lu_.rows();
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});

    double max_abs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        max_abs = std::max(max_abs, std::abs(lu_(i, j)));
      }
    }
    const double tol = singular_tol * std::max(max_abs, 1.0);

    for (std::size_t k = 0; k < n; ++k) {
      // Pivot selection.
      std::size_t pivot = k;
      double pivot_mag = std::abs(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double mag = std::abs(lu_(i, k));
        if (mag > pivot_mag) {
          pivot_mag = mag;
          pivot = i;
        }
      }
      if (pivot_mag <= tol) {
        ok_ = false;
        return;
      }
      if (pivot != k) {
        std::swap(perm_[k], perm_[pivot]);
        for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(pivot, j));
      }
      // Elimination.
      const T pivot_val = lu_(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const T factor = lu_(i, k) / pivot_val;
        lu_(i, k) = factor;
        if (factor == T{}) continue;
        for (std::size_t j = k + 1; j < n; ++j) {
          lu_(i, j) -= factor * lu_(k, j);
        }
      }
    }
  }

  bool ok() const noexcept { return ok_; }

  /// Solves A x = b. Requires ok().
  std::vector<T> solve(const std::vector<T>& b) const {
    OLP_CHECK(ok_, "solve on a singular factorization");
    const std::size_t n = lu_.rows();
    OLP_CHECK(b.size() == n, "rhs dimension mismatch");
    std::vector<T> x(n);
    // Apply permutation and forward-substitute L y = P b.
    for (std::size_t i = 0; i < n; ++i) {
      T acc = b[perm_[i]];
      for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
      x[i] = acc;
    }
    // Back-substitute U x = y.
    for (std::size_t ii = n; ii-- > 0;) {
      T acc = x[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
      x[ii] = acc / lu_(ii, ii);
    }
    return x;
  }

 private:
  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  bool ok_ = true;
};

/// One-shot dense solve; returns false (and leaves x untouched) when the
/// matrix is numerically singular.
template <typename T>
bool solve(Matrix<T> a, const std::vector<T>& b, std::vector<T>& x) {
  Lu<T> lu(std::move(a));
  if (!lu.ok()) return false;
  x = lu.solve(b);
  return true;
}

/// The dense matrix whose pattern slots hold `values`.
template <typename T>
Matrix<T> to_dense(const SparsePattern& p, const std::vector<T>& values) {
  const std::size_t n = static_cast<std::size_t>(p.size());
  Matrix<T> a(n, n);
  for (int r = 0; r < p.size(); ++r) {
    for (int s = p.row_begin(r); s < p.row_end(r); ++s) {
      a(static_cast<std::size_t>(r), static_cast<std::size_t>(p.col(s))) =
          values[static_cast<std::size_t>(s)];
    }
  }
  return a;
}

/// The pattern of a dense matrix's nonzeros plus its diagonal, and the
/// values of its slots.
template <typename T>
SparsePattern pattern_of(const Matrix<T>& a, std::vector<T>& values) {
  std::vector<std::pair<int, int>> entries;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (r == c || a(r, c) != T{}) {
        entries.emplace_back(static_cast<int>(r), static_cast<int>(c));
      }
    }
  }
  SparsePattern p(static_cast<int>(a.rows()), std::move(entries));
  values.assign(static_cast<std::size_t>(p.nnz()), T{});
  for (int r = 0; r < p.size(); ++r) {
    for (int s = p.row_begin(r); s < p.row_end(r); ++s) {
      values[static_cast<std::size_t>(s)] =
          a(static_cast<std::size_t>(r), static_cast<std::size_t>(p.col(s)));
    }
  }
  return p;
}

}  // namespace olp::linalg::oracle
