// LogicalMapping — the logical↔physical coordinate permutation of a
// weight matrix on the chip.
//
// Logical weight (i, j) lives at physical cell
// (row_perm[i], col_perm[j]); the inverse permutations answer "whose
// weight is stored here?" for components that walk physical space (the
// packed-panel repack, targeted re-sync, the detector's
// FaultMatrix consumers). The re-mapping engine computes new
// permutations against this class and the store installs them — the
// mapping itself never touches device state.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

namespace refit {

/// Row/column permutation pair with cached inverses. Always a bijection
/// (validated on install); default state is the identity.
class LogicalMapping {
 public:
  LogicalMapping() = default;
  /// Identity mapping for a rows×cols matrix.
  LogicalMapping(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const { return row_perm_.size(); }
  [[nodiscard]] std::size_t cols() const { return col_perm_.size(); }

  /// Install new permutations; REFIT_CHECKs size and bijectivity.
  void set(std::vector<std::size_t> row_perm, std::vector<std::size_t> col_perm);

  /// Physical coordinates hosting logical (i, j).
  [[nodiscard]] std::size_t physical_row(std::size_t i) const {
    return row_perm_[i];
  }
  [[nodiscard]] std::size_t physical_col(std::size_t j) const {
    return col_perm_[j];
  }
  /// Logical coordinates hosted at physical (r, c).
  [[nodiscard]] std::size_t logical_row(std::size_t r) const {
    return inv_row_perm_[r];
  }
  [[nodiscard]] std::size_t logical_col(std::size_t c) const {
    return inv_col_perm_[c];
  }

  [[nodiscard]] const std::vector<std::size_t>& row_perm() const {
    return row_perm_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_perm() const {
    return col_perm_;
  }
  [[nodiscard]] const std::vector<std::size_t>& inv_row_perm() const {
    return inv_row_perm_;
  }
  [[nodiscard]] const std::vector<std::size_t>& inv_col_perm() const {
    return inv_col_perm_;
  }

  /// Checkpointing (perms only; inverses are rebuilt on load).
  void save(std::ostream& os) const;
  [[nodiscard]] static LogicalMapping load(std::istream& is);

 private:
  std::vector<std::size_t> row_perm_;
  std::vector<std::size_t> col_perm_;
  std::vector<std::size_t> inv_row_perm_;
  std::vector<std::size_t> inv_col_perm_;
};

}  // namespace refit
