#include "linalg/sparse_lu.hpp"

namespace olp::linalg {

SparsePattern::SparsePattern(int n, std::vector<std::pair<int, int>> entries)
    : n_(n) {
  OLP_CHECK(n >= 0, "pattern size must be non-negative");
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  row_begin_.assign(static_cast<std::size_t>(n) + 1, 0);
  cols_.reserve(entries.size());
  for (const auto& [r, c] : entries) {
    OLP_CHECK(r >= 0 && r < n && c >= 0 && c < n,
              "pattern entry out of range");
    ++row_begin_[static_cast<std::size_t>(r) + 1];
    cols_.push_back(c);
  }
  std::partial_sum(row_begin_.begin(), row_begin_.end(), row_begin_.begin());
}

int SparsePattern::slot(int r, int c) const {
  if (r < 0 || c < 0) return -1;
  OLP_CHECK(r < n_ && c < n_, "pattern index out of range");
  const auto first = cols_.begin() + row_begin(r);
  const auto last = cols_.begin() + row_end(r);
  const auto it = std::lower_bound(first, last, c);
  OLP_CHECK(it != last && *it == c, "entry not in the sparsity pattern");
  return static_cast<int>(it - cols_.begin());
}

}  // namespace olp::linalg
