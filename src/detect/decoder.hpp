// Segment-constraint decoder for the quiescent-voltage comparison test.
//
// Each test cycle yields, per column (or per row in the transpose
// direction), the *residue modulo the divisor* of the number of stuck cells
// inside one (row-group × column) segment. The decoder combines the row-
// and column-direction residues into per-cell fault predictions:
//
//   1. Exact rules (constraint propagation, nonogram-style): a segment with
//      residue 0 and fewer unknowns than the divisor proves all its unknown
//      cells healthy; a segment whose residue equals its unknown count
//      proves them all faulty. Resolutions feed back into crossing
//      segments until a fixpoint.
//   2. Ambiguity fallback: any cell still unresolved is flagged faulty
//      iff both its row segment and its column segment retain a nonzero
//      residual — the source of the paper's false positives, which grow
//      with the test size.
//
// The decoder works in the detector's candidate space: cells are numbered
// 0..cells-1 (the detector numbers its candidates in row-major order) and
// only candidates appear in segments, so its cost follows the candidate
// and segment counts, not the crossbar size. A cell no segment covers is
// never flagged. Segments arrive flat, in CSR form (SegmentList): one
// shared cell array with per-segment offsets. A SegmentDecoder keeps its
// working arrays between calls (one decoder per lane) and resets what each
// call uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace refit {

/// The measured segments of one test direction in CSR form. Segment s
/// covers the cells cells[begin[s] .. begin[s+1]) and the comparator
/// produced residue[s] = (#stuck cells among them) mod divisor.
struct SegmentList {
  std::vector<std::uint32_t> begin{0};
  std::vector<std::uint32_t> cells;
  std::vector<std::size_t> residue;

  [[nodiscard]] std::size_t size() const { return residue.size(); }
  /// Seal the cells appended since the last close() as one segment.
  void close(std::size_t r) {
    residue.push_back(r);
    begin.push_back(static_cast<std::uint32_t>(cells.size()));
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
  std::size_t cells = 0;  ///< cells are numbered [0, cells)
  std::size_t divisor = 16;
  SegmentList row_segments;
  SegmentList col_segments;
  bool use_constraint_propagation = true;
  std::size_t max_iterations = 16;
};

/// Decodes segment residues into per-cell verdicts, reusing its arrays.
class SegmentDecoder {
 public:
  /// Verdict per cell of `in` (in.cells entries, 1 = predicted faulty).
  /// The reference stays valid until the next decode() on this decoder.
  const std::vector<std::uint8_t>& decode(const DecodeInput& in);

 private:
  struct Segment {
    const std::uint32_t* first = nullptr;  ///< the segment's cells
    const std::uint32_t* last = nullptr;
    std::uint32_t unresolved = 0;
    /// Residue minus already-resolved faulty cells, kept as a residue.
    std::size_t residual = 0;
  };
  /// Validate one direction's CSR arrays and index its segments:
  /// seg_of[cell] becomes the covering segment, segs its ranges/counters.
  static void index(const SegmentList& list, const DecodeInput& in,
                    std::vector<std::int32_t>& seg_of,
                    std::vector<Segment>& segs);

  std::vector<std::uint8_t> state_;  ///< CellState per cell
  std::vector<std::int32_t> row_seg_of_, col_seg_of_;
  std::vector<Segment> rs_, cs_;
  std::vector<std::uint8_t> verdict_;
};

}  // namespace refit
