// Fault-site decoding from quiescent-test observables (see decoder.hpp).
#include "detect/decoder.hpp"

#include "common/check.hpp"

namespace refit {

namespace {

enum CellState : std::uint8_t { kUnknown, kHealthy, kFaulty };

}  // namespace

void SegmentDecoder::index(const SegmentList& list, const DecodeInput& in,
                           std::vector<std::int32_t>& seg_of,
                           std::vector<Segment>& segs) {
  REFIT_CHECK(list.begin.size() == list.residue.size() + 1 &&
              list.begin.front() == 0 &&
              list.begin.back() == list.cells.size());
  segs.resize(list.size());
  for (std::size_t s = 0; s < list.size(); ++s) {
    REFIT_CHECK(list.begin[s] <= list.begin[s + 1]);
    Segment& sg = segs[s];
    sg.first = list.cells.data() + list.begin[s];
    sg.last = list.cells.data() + list.begin[s + 1];
    // Every cell starts unknown, so each listed cell is unresolved.
    sg.unresolved = list.begin[s + 1] - list.begin[s];
    sg.residual = list.residue[s] % in.divisor;
    for (const std::uint32_t* p = sg.first; p != sg.last; ++p) {
      REFIT_CHECK(*p < in.cells);
      seg_of[*p] = static_cast<std::int32_t>(s);
    }
  }
}

const std::vector<std::uint8_t>& SegmentDecoder::decode(
    const DecodeInput& in) {
  REFIT_CHECK(in.cells > 0 && in.divisor >= 2);
  const std::size_t n = in.cells;
  const std::size_t d = in.divisor;
  // Every array this call reads is reset here: the decoder is reused.
  state_.assign(n, kUnknown);
  row_seg_of_.assign(n, -1);
  col_seg_of_.assign(n, -1);
  index(in.row_segments, in, row_seg_of_, rs_);
  index(in.col_segments, in, col_seg_of_, cs_);

  // Resolve an unknown cell and update both covering segments' residuals.
  const auto settle = [d](std::int32_t si, std::vector<Segment>& segs,
                          bool faulty) {
    if (si < 0) return;
    Segment& sg = segs[static_cast<std::size_t>(si)];
    REFIT_DCHECK(sg.unresolved > 0);
    --sg.unresolved;
    // Subtract one fault from the residue (modular arithmetic).
    if (faulty) sg.residual = (sg.residual + d - 1) % d;
  };
  const auto resolve = [&](std::uint32_t cell, CellState verdict) {
    state_[cell] = verdict;
    settle(row_seg_of_[cell], rs_, verdict == kFaulty);
    settle(col_seg_of_[cell], cs_, verdict == kFaulty);
  };

  if (in.use_constraint_propagation) {
    bool changed = true;
    std::size_t iters = 0;
    while (changed && iters++ < in.max_iterations) {
      changed = false;
      for (std::vector<Segment>* segs : {&rs_, &cs_}) {
        for (Segment& sg : *segs) {
          if (sg.unresolved == 0) continue;
          // Modulo information loss: with >= divisor unknowns the residue
          // no longer pins the exact count, so the exact rules are unsafe.
          if (sg.unresolved >= d) continue;
          // The verdict is picked once per segment: resolving mutates
          // unresolved/residual, but only ever the visited cell's state.
          CellState verdict;
          if (sg.residual == 0) {
            verdict = kHealthy;
          } else if (sg.residual == sg.unresolved) {
            verdict = kFaulty;
          } else {
            continue;
          }
          for (const std::uint32_t* p = sg.first; p != sg.last; ++p) {
            if (state_[*p] != kUnknown) continue;
            resolve(*p, verdict);
            changed = true;
          }
        }
      }
    }
  }

  // Fallback for the ambiguous remainder: flag when both directions still
  // carry evidence of stuck cells. A cell covered by only one direction
  // keeps that direction's verdict.
  verdict_.resize(n);
  for (std::size_t cell = 0; cell < n; ++cell) {
    const std::int32_t rsi = row_seg_of_[cell];
    const std::int32_t csi = col_seg_of_[cell];
    const bool row_ev =
        rsi >= 0 && rs_[static_cast<std::size_t>(rsi)].residual > 0;
    const bool col_ev =
        csi >= 0 && cs_[static_cast<std::size_t>(csi)].residual > 0;
    const bool ambiguous_flag =
        rsi >= 0 && csi >= 0 ? row_ev && col_ev : row_ev || col_ev;
    verdict_[cell] = static_cast<std::uint8_t>(
        state_[cell] == kFaulty || (state_[cell] == kUnknown && ambiguous_flag));
  }
  return verdict_;
}

}  // namespace refit
