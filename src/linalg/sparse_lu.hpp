#pragma once
// Sparse LU factorization for modified nodal analysis.
//
// MNA matrices are very sparse even at this repository's sizes: the 8-stage
// RO-VCO's transient system (216 unknowns with extracted primitives) holds
// 1,120 nonzeros (2.4%). A right-looking elimination in natural order does
// about 21k multiply-adds per ring factorization where a dense LU does
// n^3/3 = 3.4M, so the simulator factors sparsely.
//
// The factorization is bit-identical to a dense LU with row partial pivoting
// (pick the largest |a(i,k)| among the rows not yet pivoted, the lowest
// current row position on a tie; skip rows whose multiplier is exactly zero;
// solve with column-ordered triangular sweeps). It picks the same pivots,
// applies every nonzero update in the same order, and skips only updates by
// an exact zero, so every solution and every singular verdict equals the
// dense one. No fill-reducing ordering is used, because it would change the
// rounding.
//
// The first factorization on a pattern records its pivot sequence and the
// elimination structure it implies (candidate rows per step, fill). Later
// factorizations replay that record without searching or allocating, and
// check at each step that the pivot rule still picks the recorded row; from
// the first step where it does not, the pivot search resumes and records
// anew (the steps before it are unchanged).

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace olp::linalg {

using Complex = std::complex<double>;

/// The nonzero structure of a square matrix in compressed-row form, with
/// columns sorted within each row. Entry `s` (a "slot", 0 <= s < nnz())
/// indexes the value arrays that SparseLu factors.
class SparsePattern {
 public:
  SparsePattern() = default;

  /// Pattern of an n x n matrix holding the given (row, col) entries;
  /// duplicates merge into one slot.
  SparsePattern(int n, std::vector<std::pair<int, int>> entries);

  int size() const noexcept { return n_; }
  int nnz() const noexcept { return static_cast<int>(cols_.size()); }
  int row_begin(int r) const { return row_begin_[static_cast<std::size_t>(r)]; }
  int row_end(int r) const {
    return row_begin_[static_cast<std::size_t>(r) + 1];
  }
  int col(int s) const { return cols_[static_cast<std::size_t>(s)]; }

  /// Slot of entry (r, c); -1 when either index is negative (the MNA
  /// convention for ground). Throws when the entry is not in the pattern.
  int slot(int r, int c) const;

 private:
  int n_ = 0;
  std::vector<int> row_begin_;
  std::vector<int> cols_;
};

/// Sparse LU with row partial pivoting on a fixed pattern, for T = double or
/// Complex. The pattern must outlive the factorization.
template <typename T>
class SparseLu {
 public:
  /// Factorizations since construction. Every factor() call either replays
  /// the record to the end (`replay`) or runs a pivot search (`factor`); a
  /// pivot search that follows a rejected replay (`repivot`) resumes at the
  /// step the replay rejected, since the steps before it are unchanged.
  struct Counts {
    long factor = 0;   ///< pivot searches (full or resumed), which record
    long replay = 0;   ///< factorizations that replayed the recorded pivots
    long repivot = 0;  ///< replays rejected by the pivot check
  };

  explicit SparseLu(const SparsePattern& pattern) : pattern_(&pattern) {}

  /// Factors the matrix whose pattern slots hold `values`. Returns ok(),
  /// which is false when a pivot is at or below 1e-13 * max(max|a|, 1):
  /// in MNA terms a floating node or an ill-posed circuit.
  bool factor(const std::vector<T>& values) {
    OLP_CHECK(static_cast<int>(values.size()) == pattern_->nnz(),
              "values do not match the sparsity pattern");
    // Scale the tolerance by the largest entry so conductance units do not
    // change the notion of "singular".
    double max_abs = 0.0;
    for (const T& v : values) max_abs = std::max(max_abs, std::abs(v));
    const double tol = 1e-13 * std::max(max_abs, 1.0);

    int from = 0;
    if (recorded_) {
      std::copy(values.begin(), values.end(), lu_.begin());
      std::fill(lu_.begin() + static_cast<std::ptrdiff_t>(values.size()),
                lu_.end(), T{});
      const Replay r = replay(tol, from);
      if (r != Replay::kRejected) {
        ++counts_.replay;
        ok_ = r == Replay::kDone;
        return ok_;
      }
      ++counts_.repivot;
      rewind(from);
    } else {
      start(values);
    }
    ++counts_.factor;
    ok_ = pivot_search(from, tol);
    recorded_ = ok_;
    return ok_;
  }

  bool ok() const noexcept { return ok_; }

  /// Solves A x = b with the last factorization; requires ok(). Reuses the
  /// storage of `x`, which must not alias `b`.
  void solve(const std::vector<T>& b, std::vector<T>& x) const {
    OLP_CHECK(ok_, "solve on a singular factorization");
    const std::size_t n = static_cast<std::size_t>(pattern_->size());
    OLP_CHECK(b.size() == n, "rhs dimension mismatch");
    OLP_CHECK(&b != &x, "solve output must not alias the rhs");
    x.resize(n);
    // Apply the permutation and forward-substitute L y = P b.
    for (std::size_t i = 0; i < n; ++i) {
      T acc = b[static_cast<std::size_t>(steps_[i].pivot_row)];
      for (int e = l_begin_[i]; e < l_begin_[i + 1]; ++e) {
        const Entry& l = l_[static_cast<std::size_t>(e)];
        acc -= value(l.slot) * x[static_cast<std::size_t>(l.col)];
      }
      x[i] = acc;
    }
    // Back-substitute U x = y.
    for (std::size_t i = n; i-- > 0;) {
      const Step& st = steps_[i];
      T acc = x[i];
      for (int e = st.u_begin; e < st.u_begin + st.u_len; ++e) {
        const Entry& u = u_[static_cast<std::size_t>(e)];
        acc -= value(u.slot) * x[static_cast<std::size_t>(u.col)];
      }
      x[i] = acc / value(st.diag_slot);
    }
  }

  const Counts& counts() const noexcept { return counts_; }

 private:
  enum class Replay { kDone, kSingular, kRejected };

  struct Entry {
    int col;
    int slot;
  };

  /// A node of a column's chain of rows (see col_head_).
  struct Link {
    int row;
    int next;
  };

  /// The record of elimination step k.
  struct Step {
    int cand_begin = 0;  ///< candidates' column-k slots in cand_slot_, in
    int cand_count = 0;  ///< increasing row position at step k
    bool first_at_k = false;  ///< the first candidate sits at position k
    int pivot = 0;       ///< the pivot's index among the candidates
    int pivot_row = 0;   ///< its physical row (row k of P A)
    int diag_slot = 0;
    int u_begin = 0;     ///< U row k, columns > k, in u_
    int u_len = 0;
    int upd_begin = 0;   ///< per non-pivot candidate, u_len slots in upd_
    // Sizes of the growing arrays when the step began, to resume here.
    int lu_mark = 0, pool_mark = 0, link_mark = 0, elim_mark = 0;
  };

  /// One row eliminated at a step: its multiplier's slot, and the segment
  /// of pool_ that holds the row's active part afterwards.
  struct Elim {
    int row;
    int k;
    int slot;
    int seg_begin;
    int seg_len;
  };

  /// Active part of a physical row during the pivot search.
  struct Row {
    int seg_begin = 0;
    int seg_len = 0;
    int pos = 0;  ///< current row position
  };

  T& value(int slot) { return lu_[static_cast<std::size_t>(slot)]; }
  Row& row_of(int r) { return rows_[static_cast<std::size_t>(r)]; }
  const T& value(int slot) const { return lu_[static_cast<std::size_t>(slot)]; }

  /// The dense pivot rule over one step's candidate slots, listed in
  /// increasing current row position: the first strictly largest magnitude,
  /// starting from the row at position k. That row is the first candidate
  /// when `first_at_k`; otherwise its entry is an exact zero. Returns the
  /// chosen candidate's index (-1: the non-candidate row at position k) and
  /// its magnitude in `mag`.
  int choose_pivot(const int* slots, int count, bool first_at_k,
                   double& mag) const {
    int best = -1;
    double best_mag = 0.0;
    int c = 0;
    if (first_at_k) {
      best = 0;
      best_mag = std::abs(value(slots[0]));
      c = 1;
    }
    for (; c < count; ++c) {
      const double m = std::abs(value(slots[c]));
      if (m > best_mag) {
        best_mag = m;
        best = c;
      }
    }
    mag = best_mag;
    return best;
  }

  /// Re-runs the recorded elimination on freshly loaded values. On a
  /// rejection `at` is the step whose pivot check failed; the steps before
  /// it are complete.
  Replay replay(double tol, int& at) {
    const int n = pattern_->size();
    for (int k = 0; k < n; ++k) {
      const Step& st = steps_[static_cast<std::size_t>(k)];
      const int* slots = cand_slot_.data() + st.cand_begin;
      double mag = 0.0;
      const int pivot = choose_pivot(slots, st.cand_count, st.first_at_k, mag);
      if (pivot != st.pivot) {
        at = k;
        return Replay::kRejected;
      }
      if (mag <= tol) return Replay::kSingular;
      const T pivot_val = value(slots[pivot]);
      const std::size_t ulen = static_cast<std::size_t>(st.u_len);
      const Entry* urow = u_.data() + st.u_begin;
      const int* targets = upd_.data() + st.upd_begin;
      for (int c = 0; c < st.cand_count; ++c) {
        if (c == pivot) continue;
        const T factor = value(slots[c]) / pivot_val;
        value(slots[c]) = factor;
        if (factor != T{}) {
          for (std::size_t t = 0; t < ulen; ++t) {
            value(targets[t]) -= factor * value(urow[t].slot);
          }
        }
        targets += ulen;
      }
    }
    return Replay::kDone;
  }

  /// Initial state of a pivot search from step 0: the pattern's rows as the
  /// active rows, in natural order.
  void start(const std::vector<T>& values) {
    const SparsePattern& p = *pattern_;
    const std::size_t ns = static_cast<std::size_t>(p.size());
    lu_.assign(values.begin(), values.end());
    pool_.clear();
    links_.clear();
    col_head_.assign(ns, -1);
    for (int r = 0; r < p.size(); ++r) {
      for (int s = p.row_begin(r); s < p.row_end(r); ++s) {
        pool_.push_back(Entry{p.col(s), s});
        link(p.col(s), r);
      }
    }
    rows_.resize(ns);
    perm_.resize(ns);
    reset_rows();
    steps_.resize(ns);
    cand_slot_.clear();
    u_.clear();
    upd_.clear();
    elims_.clear();
  }

  /// Restores the pivot search's state at the start of step k from the
  /// record: pool segments, column links and fill from later steps are
  /// dropped, and each row gets back its position and active segment.
  void rewind(int k) {
    const Step& st = steps_[static_cast<std::size_t>(k)];
    lu_.resize(static_cast<std::size_t>(st.lu_mark));
    pool_.resize(static_cast<std::size_t>(st.pool_mark));
    // Fill from step k on only links columns after k; chains run newest
    // first, so dropping their heads down to the mark drops exactly it.
    for (std::size_t c = static_cast<std::size_t>(k); c < col_head_.size();
         ++c) {
      while (col_head_[c] >= st.link_mark) {
        col_head_[c] = links_[static_cast<std::size_t>(col_head_[c])].next;
      }
    }
    links_.resize(static_cast<std::size_t>(st.link_mark));
    reset_rows();
    for (int i = 0; i < k; ++i) {
      swap_into(i, steps_[static_cast<std::size_t>(i)].pivot_row);
    }
    elims_.resize(static_cast<std::size_t>(st.elim_mark));
    for (const Elim& e : elims_) {
      row_of(e.row).seg_begin = e.seg_begin;
      row_of(e.row).seg_len = e.seg_len;
    }
    cand_slot_.resize(static_cast<std::size_t>(st.cand_begin));
    u_.resize(static_cast<std::size_t>(st.u_begin));
    upd_.resize(static_cast<std::size_t>(st.upd_begin));
  }

  /// Every row back at its natural position with its pattern row, which
  /// the pool's first nnz entries hold, as its active segment.
  void reset_rows() {
    const SparsePattern& p = *pattern_;
    for (int r = 0; r < p.size(); ++r) {
      row_of(r) = Row{p.row_begin(r), p.row_end(r) - p.row_begin(r), r};
    }
    std::iota(perm_.begin(), perm_.end(), 0);
  }

  void link(int col, int row) {
    links_.push_back(Link{row, col_head_[static_cast<std::size_t>(col)]});
    col_head_[static_cast<std::size_t>(col)] =
        static_cast<int>(links_.size()) - 1;
  }

  /// Swaps `row` into position k, as the dense loop swaps whole rows.
  void swap_into(int k, int row) {
    const std::size_t ks = static_cast<std::size_t>(k);
    const int displaced = perm_[ks];
    const int from = row_of(row).pos;
    perm_[static_cast<std::size_t>(from)] = displaced;
    row_of(displaced).pos = from;
    perm_[ks] = row;
    row_of(row).pos = k;
  }

  /// Pivot search and elimination from step `from` on, recording each step.
  bool pivot_search(int from, double tol) {
    const int n = pattern_->size();
    for (int k = from; k < n; ++k) {
      const std::size_t ks = static_cast<std::size_t>(k);
      Step& st = steps_[ks];
      st.lu_mark = static_cast<int>(lu_.size());
      st.pool_mark = static_cast<int>(pool_.size());
      st.link_mark = static_cast<int>(links_.size());
      st.elim_mark = static_cast<int>(elims_.size());
      st.cand_begin = static_cast<int>(cand_slot_.size());
      st.u_begin = static_cast<int>(u_.size());
      st.upd_begin = static_cast<int>(upd_.size());

      cands_.clear();
      for (int e = col_head_[ks]; e >= 0;) {
        const Link& node = links_[static_cast<std::size_t>(e)];
        const int pos = row_of(node.row).pos;
        if (pos >= k) cands_.emplace_back(pos, node.row);
        e = node.next;
      }
      std::sort(cands_.begin(), cands_.end());
      for (const auto& [pos, r] : cands_) {
        // Columns below k are eliminated, so column k leads the active row.
        const Entry& lead =
            pool_[static_cast<std::size_t>(row_of(r).seg_begin)];
        OLP_ASSERT(lead.col == k, "sparse LU active row out of order");
        cand_slot_.push_back(lead.slot);
      }
      st.cand_count = static_cast<int>(cands_.size());
      st.first_at_k = !cands_.empty() && cands_.front().first == k;
      double mag = 0.0;
      st.pivot = choose_pivot(cand_slot_.data() + st.cand_begin, st.cand_count,
                              st.first_at_k, mag);
      if (mag <= tol) return false;
      const int prow = cands_[static_cast<std::size_t>(st.pivot)].second;
      st.pivot_row = prow;
      swap_into(k, prow);

      // The pivot row's active part is row k of U.
      const Row& urow = row_of(prow);
      st.diag_slot = pool_[static_cast<std::size_t>(urow.seg_begin)].slot;
      u_.insert(u_.end(), pool_.begin() + urow.seg_begin + 1,
                pool_.begin() + urow.seg_begin + urow.seg_len);
      st.u_len = urow.seg_len - 1;
      const std::size_t ulen = static_cast<std::size_t>(st.u_len);

      const T pivot_val = value(st.diag_slot);
      const int* slots = cand_slot_.data() + st.cand_begin;
      for (int c = 0; c < st.cand_count; ++c) {
        if (c == st.pivot) continue;
        const int r = cands_[static_cast<std::size_t>(c)].second;
        Row& row = row_of(r);
        const std::size_t rlen = static_cast<std::size_t>(row.seg_len);
        const int lslot = slots[c];
        const T factor = value(lslot) / pivot_val;
        value(lslot) = factor;
        // Merge U row k into the rest of this row, as a new pool segment.
        // Fill is created whatever the multiplier's value, so the structure
        // holds for any values.
        const std::size_t out = pool_.size();
        pool_.resize(out + rlen - 1 + ulen);
        const Entry* src = pool_.data() + row.seg_begin;
        const Entry* u = u_.data() + st.u_begin;
        Entry* merged = pool_.data() + out;
        std::size_t a = 1, m = 0;
        for (std::size_t e = 0; e < ulen; ++e) {
          while (a < rlen && src[a].col < u[e].col) merged[m++] = src[a++];
          int target;
          if (a < rlen && src[a].col == u[e].col) {
            target = src[a++].slot;
          } else {
            target = static_cast<int>(lu_.size());
            lu_.push_back(T{});
            link(u[e].col, r);
          }
          merged[m++] = Entry{u[e].col, target};
          upd_.push_back(target);
          if (factor != T{}) value(target) -= factor * value(u[e].slot);
        }
        while (a < rlen) merged[m++] = src[a++];
        pool_.resize(out + m);
        row.seg_begin = static_cast<int>(out);
        row.seg_len = static_cast<int>(m);
        elims_.push_back(Elim{r, k, lslot, row.seg_begin, row.seg_len});
      }
    }

    // L by final position, columns increasing: bucket the multipliers,
    // logged in step order, by their row's position.
    const std::size_t ns = static_cast<std::size_t>(n);
    l_begin_.assign(ns + 1, 0);
    for (const Elim& e : elims_) {
      ++l_begin_[static_cast<std::size_t>(row_of(e.row).pos) + 1];
    }
    std::partial_sum(l_begin_.begin(), l_begin_.end(), l_begin_.begin());
    l_.resize(elims_.size());
    l_fill_.assign(l_begin_.begin(), l_begin_.end() - 1);
    for (const Elim& e : elims_) {
      const std::size_t i = static_cast<std::size_t>(
          l_fill_[static_cast<std::size_t>(row_of(e.row).pos)]++);
      l_[i] = Entry{e.k, e.slot};
    }
    return true;
  }

  const SparsePattern* pattern_;
  bool ok_ = false;
  bool recorded_ = false;
  Counts counts_;

  /// Pattern slots first, then the fill of the recorded elimination.
  std::vector<T> lu_;

  // The record: per step, its candidates, pivot, U row and update targets;
  // L by final position.
  std::vector<Step> steps_;
  std::vector<int> cand_slot_;
  std::vector<Entry> u_;
  std::vector<int> upd_;
  std::vector<int> l_begin_;
  std::vector<Entry> l_;

  // Pivot-search state, kept so that a rejected replay can resume it.
  // Each row's active part (columns >= the current step, sorted) is a
  // segment of pool_; a row that takes an update is rewritten at the pool's
  // end, so earlier segments stay intact. col_head_ chains through links_,
  // newest first, the rows holding an entry in each column.
  std::vector<Entry> pool_;
  std::vector<Row> rows_;
  std::vector<int> perm_;  ///< physical row at each position
  std::vector<int> col_head_;
  std::vector<Link> links_;
  std::vector<Elim> elims_;
  std::vector<std::pair<int, int>> cands_;
  std::vector<int> l_fill_;
};

}  // namespace olp::linalg
