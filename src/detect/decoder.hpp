// Segment-constraint decoder for the quiescent-voltage comparison test.
//
// Each test cycle yields, per column (or per row in the transpose
// direction), the *residue modulo the divisor* of the number of stuck cells
// inside one (row-group × column) segment. The decoder combines the row-
// and column-direction residues into per-cell fault predictions:
//
//   1. Exact rules (constraint propagation, nonogram-style): a segment with
//      residue 0 and fewer unknowns than the divisor proves all its unknown
//      candidates healthy; a segment whose residue equals its unknown count
//      proves them all faulty. Resolutions feed back into crossing
//      segments until a fixpoint.
//   2. Ambiguity fallback: any candidate still unresolved is flagged faulty
//      iff both its row segment and its column segment retain a nonzero
//      residual — the source of the paper's false positives, which grow
//      with the test size.
//
// Segments arrive flat, in CSR form (SegmentList): one shared cell array
// with per-segment offsets, so a pass over a whole crossbar fills three
// arrays instead of allocating one cell list per measured segment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace refit {

/// The measured segments of one test direction in CSR form. Segment s
/// covers the candidate cells cells[begin[s] .. begin[s+1]) (flat
/// row-major indices into the crossbar) and the comparator produced
/// residue[s] = (#stuck cells among them) mod divisor.
struct SegmentList {
  std::vector<std::size_t> begin{0};
  std::vector<std::size_t> cells;
  std::vector<std::size_t> residue;

  [[nodiscard]] std::size_t size() const { return residue.size(); }
  /// True when no cell was appended since the last close().
  [[nodiscard]] bool open_empty() const { return cells.size() == begin.back(); }
  /// Seal the cells appended since the last close() as one segment.
  void close(std::size_t r) {
    residue.push_back(r);
    begin.push_back(cells.size());
  }
  /// Drop every segment (capacity is kept for the next pass).
  void clear() {
    begin.assign(1, 0);
    cells.clear();
    residue.clear();
  }
};

/// Decoder inputs for one fault-type pass over one crossbar.
struct DecodeInput {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t divisor = 16;
  /// Candidate mask (flat row-major, nonzero = candidate); non-candidates
  /// are never flagged.
  std::vector<std::uint8_t> candidate;
  SegmentList row_segments;
  SegmentList col_segments;
  bool use_constraint_propagation = true;
  std::size_t max_iterations = 16;
};

/// Per-cell verdicts; flat row-major, 1 = predicted faulty.
std::vector<std::uint8_t> decode_segments(const DecodeInput& in);

}  // namespace refit
