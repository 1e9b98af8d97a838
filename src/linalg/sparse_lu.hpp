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
// anew (the steps before it are unchanged). A changed pivot usually changes
// the elimination only for a few steps: once the resumed search's state
// (pivoted rows, row positions, structure) is provably the record's again,
// the rest of the record is what the search would record, and the replay
// takes over. On the oscillating ring that cuts a resumed search from about
// half the steps to a sixth of those.

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
  /// step the replay rejected, since the steps before it are unchanged, and
  /// hands the rest back to the replay once it reaches the record's state
  /// (`rejoin`).
  struct Counts {
    long factor = 0;   ///< pivot searches (full or resumed), which record
    long replay = 0;   ///< factorizations that replayed the recorded pivots
    long repivot = 0;  ///< replays rejected by the pivot check
    long rejoin = 0;   ///< resumed searches that rejoined the record
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
    const int n = pattern_->size();

    if (!recorded_) {
      start(values);
      ++counts_.factor;
      recorded_ = pivot_search(0, tol, false) == n;
      return finish(recorded_);
    }
    std::copy(values.begin(), values.end(), lu_.begin());
    std::fill(lu_.begin() + static_cast<std::ptrdiff_t>(values.size()),
              lu_.end(), T{});
    int at = 0;
    Replay r = replay(tol, at);
    if (r != Replay::kRejected) {
      ++counts_.replay;
      return finish(r == Replay::kDone);
    }
    ++counts_.repivot;
    ++counts_.factor;
    // Search from the rejected step; a search that rejoins the record hands
    // the rest back to the replay, which may reject again further on.
    while (r == Replay::kRejected) {
      rewind(at);
      at = pivot_search(at, tol, true);
      if (at < 0) {
        recorded_ = false;
        return finish(false);
      }
      compact();
      r = at == n ? Replay::kDone : replay(tol, at);
    }
    return finish(r == Replay::kDone);
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

  /// An entry of a row: its column and slot.
  struct Entry {
    int col;
    int slot;
  };

  /// An entry of a column: its physical row and slot.
  struct Cell {
    int row;
    int slot;
  };

  /// Where a fill slot sits, and a scratch mark of the rejoin check.
  struct Fill {
    int row;
    int col;
    int mark;
  };

  /// The record of elimination step k. Its parts are segments of the pools
  /// (cand_*_, u_, upd_, born_), which a resumed search appends to.
  struct Step {
    int cand_begin = 0;  ///< candidates' rows and column-k slots, in
    int cand_count = 0;  ///< increasing row position at step k
    bool first_at_k = false;  ///< the first candidate sits at position k
    int pivot = 0;       ///< the pivot's index among the candidates
    int pivot_row = 0;   ///< its physical row (row k of P A)
    int diag_slot = 0;
    int u_begin = 0;     ///< U row k, columns > k, in u_
    int u_len = 0;
    int upd_begin = 0;   ///< per non-pivot candidate, u_len slots in upd_
    int born_begin = 0;  ///< the fill slots the step creates, in born_
    int born_count = 0;
  };

  /// A candidate row of a pivot search step.
  struct Cand {
    int pos;  ///< its current row position
    int row;
    int slot;  ///< its column-k entry
  };

  /// One list per row (or column) in one array. Lists grow at their end and
  /// shrink from it; a list that outgrows its room moves to the array's end
  /// with twice the room, so a search allocates only when the structure
  /// outgrows every earlier one since the last reset.
  template <typename Item>
  class Lists {
   public:
    /// n empty lists, list i with room for `room(i)` items.
    template <typename Room>
    void reset(int n, Room room) {
      spans_.resize(static_cast<std::size_t>(n));
      int end = 0;
      for (int i = 0; i < n; ++i) {
        const int r = room(i);
        spans_[static_cast<std::size_t>(i)] = Span{end, 0, r};
        end += r;
      }
      items_.resize(static_cast<std::size_t>(end));
    }
    Item* begin(int i) { return items_.data() + span(i).begin; }
    int size(int i) const {
      return spans_[static_cast<std::size_t>(i)].len;
    }
    void push(int i, const Item& item) {
      Span& sp = span(i);
      if (sp.len == sp.room) {
        const std::size_t moved = items_.size();
        sp.room = 2 * sp.room + 2;
        items_.resize(moved + static_cast<std::size_t>(sp.room));
        std::copy_n(items_.begin() + sp.begin, sp.len,
                    items_.begin() + static_cast<std::ptrdiff_t>(moved));
        sp.begin = static_cast<int>(moved);
      }
      items_[static_cast<std::size_t>(sp.begin + sp.len++)] = item;
    }
    void pop(int i) { --span(i).len; }

   private:
    struct Span {
      int begin;
      int len;
      int room;
    };
    Span& span(int i) { return spans_[static_cast<std::size_t>(i)]; }

    std::vector<Item> items_;
    std::vector<Span> spans_;
  };

  T& value(int slot) { return lu_[static_cast<std::size_t>(slot)]; }
  const T& value(int slot) const { return lu_[static_cast<std::size_t>(slot)]; }
  int& slot_at(int row, int col) {
    return slot_at_[static_cast<std::size_t>(row) *
                        static_cast<std::size_t>(pattern_->size()) +
                    static_cast<std::size_t>(col)];
  }
  Step& step(int k) { return steps_[static_cast<std::size_t>(k)]; }
  static int item(const std::vector<int>& v, int i) {
    return v[static_cast<std::size_t>(i)];
  }

  /// Ends a factor() call: builds L if the record changed and the factors
  /// are usable.
  bool finish(bool ok) {
    ok_ = ok;
    if (ok_ && l_stale_) build_l();
    return ok_;
  }

  /// The dense pivot rule over one step's candidates, listed in
  /// increasing current row position: the first strictly largest magnitude,
  /// starting from the row at position k. That row is the first candidate
  /// when `first_at_k`; otherwise its entry is an exact zero. Returns the
  /// chosen candidate's index (-1: the non-candidate row at position k) and
  /// its magnitude in `mag`.
  int choose_pivot(const Cell* cands, int count, bool first_at_k,
                   double& mag) const {
    int best = -1;
    double best_mag = 0.0;
    int c = 0;
    if (first_at_k) {
      best = 0;
      best_mag = std::abs(value(cands[0].slot));
      c = 1;
    }
    for (; c < count; ++c) {
      const double m = std::abs(value(cands[c].slot));
      if (m > best_mag) {
        best_mag = m;
        best = c;
      }
    }
    mag = best_mag;
    return best;
  }

  /// Re-runs the recorded elimination from step `at` (the steps before it
  /// are done) on freshly loaded values. On a rejection `at` is the step
  /// whose pivot check failed.
  Replay replay(double tol, int& at) {
    const int n = pattern_->size();
    for (int k = at; k < n; ++k) {
      const Step& st = step(k);
      const Cell* cands = cand_.data() + st.cand_begin;
      double mag = 0.0;
      const int pivot = choose_pivot(cands, st.cand_count, st.first_at_k, mag);
      if (pivot != st.pivot) {
        at = k;
        return Replay::kRejected;
      }
      if (mag <= tol) return Replay::kSingular;
      const T pivot_val = value(cands[pivot].slot);
      const std::size_t ulen = static_cast<std::size_t>(st.u_len);
      const Entry* urow = u_.data() + st.u_begin;
      const int* targets = upd_.data() + st.upd_begin;
      for (int c = 0; c < st.cand_count; ++c) {
        if (c == pivot) continue;
        const T factor = value(cands[c].slot) / pivot_val;
        value(cands[c].slot) = factor;
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

  /// Initial state of a pivot search from step 0: the pattern's entries,
  /// every row at its natural position, no fill slots, an empty record.
  void start(const std::vector<T>& values) {
    const SparsePattern& p = *pattern_;
    const int n = p.size();
    const std::size_t ns = static_cast<std::size_t>(n);
    // The values and the record grow by push_back; start them at a size
    // small systems do not outgrow.
    const std::size_t nnz = static_cast<std::size_t>(p.nnz());
    lu_.reserve(2 * nnz);
    fill_.reserve(nnz);
    cand_.reserve(2 * nnz);
    u_.reserve(2 * nnz);
    upd_.reserve(4 * nnz);
    born_.reserve(nnz);
    lu_.assign(values.begin(), values.end());
    fill_.clear();
    cand_.clear();
    u_.clear();
    upd_.clear();
    born_.clear();
    slot_at_.assign(ns * ns, -1);
    // Room for as much fill again as each row or column starts with (pos_
    // counts the columns' entries until it takes the positions).
    std::vector<int>& col_len = pos_;
    col_len.assign(ns, 0);
    for (int s = 0; s < p.nnz(); ++s) {
      ++col_len[static_cast<std::size_t>(p.col(s))];
    }
    rows_.reset(n, [&p](int r) {
      return 2 * (p.row_end(r) - p.row_begin(r)) + 2;
    });
    cols_.reset(n, [&col_len](int c) {
      return 2 * col_len[static_cast<std::size_t>(c)] + 2;
    });
    for (int r = 0; r < n; ++r) {
      for (int s = p.row_begin(r); s < p.row_end(r); ++s) {
        rows_.push(r, Entry{p.col(s), s});
        cols_.push(p.col(s), Cell{r, s});
        slot_at(r, p.col(s)) = s;
      }
    }
    state_step_ = 0;
    perm_.resize(ns);
    std::iota(pos_.begin(), pos_.end(), 0);
    std::iota(perm_.begin(), perm_.end(), 0);
    steps_.resize(ns);
  }

  /// Makes fill slot s an entry of the structure, or (pop) removes it; the
  /// lists take it back from their ends, so pops must mirror the pushes.
  void push_fill(int s) {
    const Fill& c = fill_[static_cast<std::size_t>(s - pattern_->nnz())];
    slot_at(c.row, c.col) = s;
    rows_.push(c.row, Entry{c.col, s});
    cols_.push(c.col, Cell{c.row, s});
  }
  void pop_fill(int s) {
    const Fill& c = fill_[static_cast<std::size_t>(s - pattern_->nnz())];
    slot_at(c.row, c.col) = -2 - s;  // keeps the slot for its next birth
    rows_.pop(c.row);
    cols_.pop(c.col);
  }

  /// Brings the search state to the start of step k of the record: the fill
  /// of the steps in between is taken out (newest first) or put in, and
  /// every row gets back its position.
  void rewind(int k) {
    for (int i = state_step_; i-- > k;) {
      const Step& st = step(i);
      for (int b = st.born_begin + st.born_count; b-- > st.born_begin;) {
        pop_fill(item(born_, b));
      }
    }
    for (int i = state_step_; i < k; ++i) {
      const Step& st = step(i);
      for (int b = st.born_begin; b < st.born_begin + st.born_count; ++b) {
        push_fill(item(born_, b));
      }
    }
    state_step_ = k;
    std::iota(pos_.begin(), pos_.end(), 0);
    std::iota(perm_.begin(), perm_.end(), 0);
    for (int i = 0; i < k; ++i) swap_into(pos_, perm_, i, step(i).pivot_row);
  }

  /// Swaps `row` into position k, as the dense loop swaps whole rows.
  static void swap_into(std::vector<int>& pos, std::vector<int>& perm, int k,
                        int row) {
    const std::size_t ks = static_cast<std::size_t>(k);
    const int displaced = perm[ks];
    const int from = pos[static_cast<std::size_t>(row)];
    perm[static_cast<std::size_t>(from)] = displaced;
    pos[static_cast<std::size_t>(displaced)] = from;
    perm[ks] = row;
    pos[static_cast<std::size_t>(row)] = k;
  }

  /// Pivot search and elimination from step `from` on, recording each step.
  /// Returns n when done, -1 on a singular pivot, and, when `resume` (the
  /// record still holds the steps of the rejected replay from `from` on),
  /// the first step j at which the search state equals the record's:
  /// steps j and later of the record are then exactly what the search
  /// would record, and the caller replays them instead.
  ///
  /// The structure so far is kept three ways: each row's and each column's
  /// entries (pattern first, then fill in creation order), and slot_at_,
  /// which maps (row, column) to its slot. A step takes its candidates from
  /// column k's list, U row k from the pivot row's list, and each
  /// candidate's update targets from slot_at_; entries a candidate lacks
  /// become fill. A fill entry keeps its slot for good, so the steps of
  /// two records that coincide also agree on every slot.
  int pivot_search(int from, double tol, bool resume) {
    const int n = pattern_->size();
    if (resume) begin_span();
    for (int k = from; k < n; ++k) {
      if (resume && k > from && span_rejoins(from, k)) {
        // Steps k and later are the record's; the search state stays at k.
        ++counts_.rejoin;
        clear_span(from, k);
        state_step_ = k;
        l_stale_ = true;
        return k;
      }
      Step& st = step(k);
      if (resume) old_.push_back(st);

      // Candidates: the rows at positions k and later with an entry in
      // column k, in increasing position (insertion sort; there are few).
      cands_.clear();
      const Cell* col = cols_.begin(k);
      for (int i = 0; i < cols_.size(k); ++i) {
        const Cand cand{item(pos_, col[i].row), col[i].row, col[i].slot};
        if (cand.pos < k) continue;
        cands_.push_back(cand);
        std::size_t j = cands_.size() - 1;
        for (; j > 0 && cands_[j - 1].pos > cand.pos; --j) {
          cands_[j] = cands_[j - 1];
        }
        cands_[j] = cand;
      }
      st.cand_begin = static_cast<int>(cand_.size());
      for (const Cand& c : cands_) cand_.push_back(Cell{c.row, c.slot});
      st.cand_count = static_cast<int>(cands_.size());
      st.first_at_k = !cands_.empty() && cands_.front().pos == k;
      double mag = 0.0;
      st.pivot = choose_pivot(cand_.data() + st.cand_begin, st.cand_count,
                              st.first_at_k, mag);
      if (mag <= tol) {
        if (resume) clear_span(from, k);
        return -1;
      }
      const Cand pivot = cands_[static_cast<std::size_t>(st.pivot)];
      st.pivot_row = pivot.row;
      st.diag_slot = pivot.slot;
      if (resume) {
        track_span(k, old_.back().pivot_row, pivot.row);
      } else {
        swap_into(pos_, perm_, k, pivot.row);
      }

      // U row k: the pivot row's entries right of column k, by column.
      st.u_begin = static_cast<int>(u_.size());
      const Entry* prow = rows_.begin(pivot.row);
      for (int i = 0; i < rows_.size(pivot.row); ++i) {
        if (prow[i].col > k) u_.push_back(prow[i]);
      }
      std::sort(u_.begin() + st.u_begin, u_.end(),
                [](const Entry& a, const Entry& b) { return a.col < b.col; });
      st.u_len = static_cast<int>(u_.size()) - st.u_begin;
      const std::size_t ulen = static_cast<std::size_t>(st.u_len);

      st.upd_begin = static_cast<int>(upd_.size());
      st.born_begin = static_cast<int>(born_.size());
      const T pivot_val = value(st.diag_slot);
      for (int c = 0; c < st.cand_count; ++c) {
        if (c == st.pivot) continue;
        const int r = cands_[static_cast<std::size_t>(c)].row;
        const int lslot = cands_[static_cast<std::size_t>(c)].slot;
        const T factor = value(lslot) / pivot_val;
        value(lslot) = factor;
        // Fill is created whatever the multiplier's value, so the structure
        // holds for any values.
        const std::size_t first = upd_.size();
        upd_.resize(first + ulen);
        const Entry* u = u_.data() + st.u_begin;
        for (std::size_t t = 0; t < ulen; ++t) {
          int slot = slot_at(r, u[t].col);
          if (slot < 0) {
            slot = slot == -1 ? new_fill(r, u[t].col) : -2 - slot;
            born_.push_back(slot);
            push_fill(slot);
          }
          upd_[first + t] = slot;
        }
        if (factor != T{}) {
          for (std::size_t t = 0; t < ulen; ++t) {
            value(upd_[first + t]) -= factor * value(u[t].slot);
          }
        }
      }
      st.born_count = static_cast<int>(born_.size()) - st.born_begin;
    }
    if (resume) clear_span(from, n);
    state_step_ = n;
    l_stale_ = true;
    return n;
  }

  /// A fill slot for entry (row, col), which never had one: a new zero at
  /// the end of the values.
  int new_fill(int row, int col) {
    lu_.push_back(T{});
    fill_.push_back(Fill{row, col, 0});
    return static_cast<int>(lu_.size()) - 1;
  }

  // --- Rejoining the record ----------------------------------------------
  //
  // A resumed search starts from the record's state at step `from` and
  // overwrites the record step by step; old_ keeps the steps it replaces.
  // Both sequences of steps act on the same starting state, so their states
  // at a later step j are equal exactly when
  //   (a) both pivoted the same set of rows,
  //   (b) every row neither has pivoted sits at the same position, and
  //   (c) no fill entry created by only one of them is still active (in an
  //       unpivoted row, in column j or later).
  // moved_[r] counts row r's pivots by the search minus the record's, and
  // unpivoted_ counts the rows with moved_ != 0: (a) holds when it is zero.
  // old_pos_/old_perm_ follow the record's positions; misplaced_ counts the
  // rows both still hold unpivoted but at different positions: (b) holds
  // when it is zero. (c) is checked only when (a) and (b) hold.

  void begin_span() {
    moved_.resize(pos_.size());  // all zero between spans
    old_.clear();
    old_pos_ = pos_;
    old_perm_ = perm_;
    unpivoted_ = 0;
    misplaced_ = 0;
  }

  /// Clears the marks of a span that reached step k.
  void clear_span(int from, int k) {
    for (int i = from; i < k; ++i) {
      moved_[static_cast<std::size_t>(step(i).pivot_row)] = 0;
      moved_[static_cast<std::size_t>(
          old_[static_cast<std::size_t>(i - from)].pivot_row)] = 0;
    }
  }

  /// Step k: the record pivoted `old_row`, the search `new_row`.
  void track_span(int k, int old_row, int new_row) {
    const int rows[4] = {old_row, item(old_perm_, k), new_row, item(perm_, k)};
    // A row's contribution to misplaced_ before the next step.
    auto misplaced = [this](int r, int next) {
      const int p = item(pos_, r), q = item(old_pos_, r);
      return p >= next && q >= next && p != q ? 1 : 0;
    };
    for (int i = 0; i < 4; ++i) {
      if (std::find(rows, rows + i, rows[i]) == rows + i) {
        misplaced_ -= misplaced(rows[i], k);
      }
    }
    swap_into(old_pos_, old_perm_, k, old_row);
    swap_into(pos_, perm_, k, new_row);
    for (int i = 0; i < 4; ++i) {
      if (std::find(rows, rows + i, rows[i]) == rows + i) {
        misplaced_ += misplaced(rows[i], k + 1);
      }
    }
    bump(old_row, -1);
    bump(new_row, 1);
  }

  void bump(int row, int by) {
    int& m = moved_[static_cast<std::size_t>(row)];
    unpivoted_ -= m != 0 ? 1 : 0;
    m += by;
    unpivoted_ += m != 0 ? 1 : 0;
  }

  /// Whether the search state at step k equals the record's.
  bool span_rejoins(int from, int k) {
    if (unpivoted_ != 0 || misplaced_ != 0) return false;
    const int nnz = pattern_->nnz();
    auto fill = [this, nnz](int s) -> Fill& {
      return fill_[static_cast<std::size_t>(s - nnz)];
    };
    // Fill created by the search +1, by the record -1: what is left nonzero
    // was created by only one of them.
    auto each_birth = [this, from, k](auto&& f) {
      for (int i = from; i < k; ++i) {
        const Step& st = step(i);
        const Step& old = old_[static_cast<std::size_t>(i - from)];
        for (int b = st.born_begin; b < st.born_begin + st.born_count; ++b) {
          f(item(born_, b), 1);
        }
        for (int b = old.born_begin; b < old.born_begin + old.born_count;
             ++b) {
          f(item(born_, b), -1);
        }
      }
    };
    each_birth([&fill](int s, int by) { fill(s).mark += by; });
    bool same = true;
    each_birth([&](int s, int) {
      Fill& f = fill(s);
      if (f.mark != 0 && f.col >= k && item(pos_, f.row) >= k) same = false;
      f.mark = 0;
    });
    return same;
  }

  // --- After a search --------------------------------------------------------

  /// L by final position, columns increasing: each step's multipliers,
  /// bucketed by their row's final position.
  void build_l() {
    const int n = pattern_->size();
    const std::size_t ns = static_cast<std::size_t>(n);
    std::iota(pos_.begin(), pos_.end(), 0);
    std::iota(perm_.begin(), perm_.end(), 0);
    for (int i = 0; i < n; ++i) swap_into(pos_, perm_, i, step(i).pivot_row);
    auto each_multiplier = [this, n](auto&& f) {
      for (int k = 0; k < n; ++k) {
        const Step& st = step(k);
        for (int c = 0; c < st.cand_count; ++c) {
          if (c == st.pivot) continue;
          const Cell& cand = cand_[static_cast<std::size_t>(st.cand_begin + c)];
          f(k, item(pos_, cand.row), cand.slot);
        }
      }
    };
    l_begin_.assign(ns + 1, 0);
    each_multiplier([this](int, int pos, int) {
      ++l_begin_[static_cast<std::size_t>(pos) + 1];
    });
    std::partial_sum(l_begin_.begin(), l_begin_.end(), l_begin_.begin());
    l_.resize(static_cast<std::size_t>(l_begin_.back()));
    l_fill_.assign(l_begin_.begin(), l_begin_.end() - 1);
    each_multiplier([this](int k, int pos, int slot) {
      l_[static_cast<std::size_t>(l_fill_[static_cast<std::size_t>(pos)]++)] =
          Entry{k, slot};
    });
    l_stale_ = false;
    // The search state's positions are rebuilt by the next rewind.
  }

  /// Resumed searches append to the pools and leave the segments of the
  /// steps they replace behind; rewrites the pools in step order once those
  /// make up more than half of them.
  void compact() {
    const int n = pattern_->size();
    std::size_t live = 0;
    for (int k = 0; k < n; ++k) {
      const Step& st = step(k);
      live += static_cast<std::size_t>(st.cand_count * (1 + st.u_len) +
                                       st.born_count);
    }
    if (2 * live + 1024 >=
        cand_.size() + u_.size() + upd_.size() + born_.size()) {
      return;
    }
    std::vector<Cell> cand;
    std::vector<Entry> u;
    std::vector<int> upd, born;
    auto move = [](auto& to, const auto& pool, int& begin, int len) {
      const int moved = static_cast<int>(to.size());
      to.insert(to.end(), pool.begin() + begin, pool.begin() + begin + len);
      begin = moved;
    };
    for (int k = 0; k < n; ++k) {
      Step& st = step(k);
      move(cand, cand_, st.cand_begin, st.cand_count);
      move(u, u_, st.u_begin, st.u_len);
      move(upd, upd_, st.upd_begin,
           std::max(st.cand_count - 1, 0) * st.u_len);
      move(born, born_, st.born_begin, st.born_count);
    }
    cand_.swap(cand);
    u_.swap(u);
    upd_.swap(upd);
    born_.swap(born);
  }

  const SparsePattern* pattern_;
  bool ok_ = false;
  bool recorded_ = false;
  bool l_stale_ = false;  ///< the record changed since L was built
  Counts counts_;

  /// Pattern slots first, then every fill slot created since start().
  std::vector<T> lu_;

  // The record: per step, its candidates, pivot, U row, update targets and
  // new fill; L by final position.
  std::vector<Step> steps_;
  std::vector<Cell> cand_;
  std::vector<Entry> u_;
  std::vector<int> upd_;
  std::vector<int> born_;
  std::vector<int> l_begin_;
  std::vector<Entry> l_;
  std::vector<int> l_fill_;

  // Pivot-search state at the start of step state_step_ of the record, kept
  // so that a rejected replay can resume the search: the entries of each
  // row and column, the (row, column) -> slot map (n^2 ints; -1 where there
  // was never an entry, -2 - s where fill slot s was and is not now; 0.3 MB
  // at 280 unknowns), each fill slot's place, and the row positions.
  int state_step_ = 0;
  Lists<Entry> rows_;
  Lists<Cell> cols_;
  std::vector<int> slot_at_;
  std::vector<Fill> fill_;  ///< fill slot nnz + i
  std::vector<int> pos_;   ///< current position of each physical row
  std::vector<int> perm_;  ///< physical row at each position
  std::vector<Cand> cands_;  ///< scratch: one step's candidates

  // A resumed search's comparison with the record it replaces (see above).
  std::vector<Step> old_;
  std::vector<int> old_pos_;
  std::vector<int> old_perm_;
  std::vector<int> moved_;
  int unpivoted_ = 0;
  int misplaced_ = 0;
};

}  // namespace olp::linalg
