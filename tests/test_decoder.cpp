// Tests for the segment-constraint decoder (src/detect/decoder.hpp).
#include "detect/decoder.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace refit {
namespace {

/// Build a DecodeInput for a small grid (cell id = flat row-major index)
/// where every cell outside `non_candidates` is a candidate and segments
/// follow a simple row-group / col-group layout (non-candidates are left
/// out of their segments, as the detector does).
DecodeInput grid_input(std::size_t rows, std::size_t cols,
                       std::size_t group_rows, std::size_t group_cols,
                       const std::vector<std::size_t>& faulty_cells,
                       std::size_t divisor = 16,
                       const std::vector<std::size_t>& non_candidates = {}) {
  DecodeInput in;
  in.cells = rows * cols;
  in.divisor = divisor;
  std::vector<bool> candidate(rows * cols, true);
  for (auto nc : non_candidates) candidate[nc] = false;
  std::vector<bool> faulty(rows * cols, false);
  for (auto f : faulty_cells) faulty[f] = true;
  auto add = [&](SegmentList& segs, std::size_t cell, std::size_t& count) {
    if (!candidate[cell]) return;
    segs.cells.push_back(static_cast<std::uint32_t>(cell));
    count += faulty[cell];
  };
  for (std::size_t r0 = 0; r0 < rows; r0 += group_rows) {
    for (std::size_t c = 0; c < cols; ++c) {
      std::size_t count = 0;
      for (std::size_t r = r0; r < std::min(rows, r0 + group_rows); ++r)
        add(in.row_segments, r * cols + c, count);
      in.row_segments.close(count % divisor);
    }
  }
  for (std::size_t c0 = 0; c0 < cols; c0 += group_cols) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::size_t count = 0;
      for (std::size_t c = c0; c < std::min(cols, c0 + group_cols); ++c)
        add(in.col_segments, r * cols + c, count);
      in.col_segments.close(count % divisor);
    }
  }
  return in;
}

/// One decode on a fresh decoder.
std::vector<std::uint8_t> decode(const DecodeInput& in) {
  SegmentDecoder decoder;
  return decoder.decode(in);
}

TEST(Decoder, NoFaultsNoFlags) {
  const DecodeInput in = grid_input(4, 4, 2, 2, {});
  const auto pred = decode(in);
  for (bool b : pred) EXPECT_FALSE(b);
}

TEST(Decoder, SingleFaultExactlyLocated) {
  // One fault: its row segment has residue 1 with the fault as one of the
  // unknowns; propagation plus intersection must pin it exactly.
  const DecodeInput in = grid_input(4, 4, 2, 2, {5});
  const auto pred = decode(in);
  EXPECT_TRUE(pred[5]);
  int flags = 0;
  for (bool b : pred) flags += b;
  EXPECT_EQ(flags, 1);
}

TEST(Decoder, PropagationResolvesFullSegments) {
  // Both cells of a row segment faulty → residue == unresolved → all
  // faulty, exactly.
  const DecodeInput in = grid_input(4, 4, 2, 2, {0, 4});  // col 0, rows 0-1
  const auto pred = decode(in);
  EXPECT_TRUE(pred[0]);
  EXPECT_TRUE(pred[4]);
  int flags = 0;
  for (bool b : pred) flags += b;
  EXPECT_EQ(flags, 2);
}

TEST(Decoder, ZeroResidueClearsCells) {
  // Fault pattern that keeps some segments at zero: those cells must never
  // be flagged even if the crossing segment has residue.
  const DecodeInput in = grid_input(4, 4, 4, 4, {0});
  const auto pred = decode(in);
  EXPECT_TRUE(pred[0]);
  // Cells in columns 1..3 share the row segment? No: with group 4 each
  // row segment is a whole column. Columns 1-3 have residue 0.
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 1; c < 4; ++c) EXPECT_FALSE(pred[r * 4 + c]);
}

TEST(Decoder, NonCandidatesNeverFlagged) {
  // Cell 3 cannot be tested: it is left out of its segments, so their
  // residues count only the faulty candidates 0..2.
  const DecodeInput in = grid_input(2, 2, 2, 2, {0, 1, 2, 3}, 16, {3});
  const auto pred = decode(in);
  EXPECT_FALSE(pred[3]);
  EXPECT_TRUE(pred[0]);
}

TEST(Decoder, AmbiguousFallbackUsesIntersection) {
  // Without propagation, a diagonal pair in one 2×2 block is ambiguous:
  // the fallback flags the whole block (row and column evidence crosses).
  DecodeInput in = grid_input(2, 2, 2, 2, {0, 3});
  in.use_constraint_propagation = false;
  const auto pred = decode(in);
  // All four cells share flagged row segments (each column segment has one
  // fault) and flagged col segments → all flagged; 2 are FPs. This is the
  // precision loss the paper's Fig. 4(a) illustrates.
  EXPECT_TRUE(pred[0]);
  EXPECT_TRUE(pred[3]);
  EXPECT_TRUE(pred[1]);
  EXPECT_TRUE(pred[2]);
}

TEST(Decoder, PropagationBeatsFallbackOnDiagonal) {
  // With propagation the same diagonal pair *is* resolvable: every segment
  // has exactly 2 unknowns and residue 1... not fully determined, but the
  // 2×2 system with residues (1,1,1,1) admits both diagonals. Decoder
  // should still flag both true cells (possibly plus the mirror diagonal).
  DecodeInput in = grid_input(2, 2, 2, 2, {0, 3});
  const auto pred = decode(in);
  EXPECT_TRUE(pred[0]);
  EXPECT_TRUE(pred[3]);
}

TEST(Decoder, ModuloAliasingMissesMultiplesOfDivisor) {
  // divisor 4, one column-segment containing exactly 4 faults → residue 0
  // in the row direction (group covers the column), so recall suffers
  // unless the transpose direction catches it. Build both directions
  // aliased: a 4×4 fully faulty grid with divisor 4 → all residues 0 →
  // nothing detected. This documents the paper's §4.2 coverage trade-off.
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < 16; ++i) all.push_back(i);
  const DecodeInput in = grid_input(4, 4, 4, 4, all, /*divisor=*/4);
  const auto pred = decode(in);
  for (bool b : pred) EXPECT_FALSE(b);
}

TEST(Decoder, LargerDivisorAvoidsAliasing) {
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < 16; ++i) all.push_back(i);
  const DecodeInput in = grid_input(4, 4, 4, 4, all, /*divisor=*/32);
  const auto pred = decode(in);
  for (bool b : pred) EXPECT_TRUE(b);
}

TEST(Decoder, CellCoveredByOneDirectionUsesThatVerdict) {
  DecodeInput in;
  in.cells = 2;
  in.divisor = 16;
  // Only a row segment covering both cells, residue 1.
  in.row_segments.cells = {0, 1};
  in.row_segments.close(1);
  in.use_constraint_propagation = false;
  const auto pred = decode(in);
  EXPECT_TRUE(pred[0]);
  EXPECT_TRUE(pred[1]);
}

TEST(Decoder, RejectsBadInput) {
  DecodeInput in;
  in.cells = 0;
  EXPECT_THROW(decode(in), CheckError);
  // Cells appended but never closed into a segment.
  DecodeInput open = grid_input(2, 2, 2, 2, {0});
  open.row_segments.cells.push_back(1);
  EXPECT_THROW(decode(open), CheckError);
  // A cell index outside the crossbar.
  DecodeInput oob = grid_input(2, 2, 2, 2, {0});
  oob.col_segments.cells.push_back(4);
  oob.col_segments.close(1);
  EXPECT_THROW(decode(oob), CheckError);
}

TEST(Decoder, ReusedDecoderMatchesFreshOne) {
  // A decoder keeps its arrays between calls: decoding a larger input,
  // then smaller ones, must give what a fresh decoder gives each time.
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < 16; ++i) all.push_back(i);
  const DecodeInput inputs[] = {
      grid_input(8, 8, 4, 2, {1, 9, 17, 40, 41, 63}),
      grid_input(4, 4, 4, 4, all, /*divisor=*/32),
      grid_input(2, 2, 2, 2, {0, 3}),
      grid_input(4, 4, 2, 2, {5}),
  };
  SegmentDecoder reused;
  for (const DecodeInput& in : inputs) {
    EXPECT_EQ(reused.decode(in), decode(in));
  }
}

}  // namespace
}  // namespace refit
