// In-memory dataset container and batching (see dataset.hpp).
#include "data/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace refit {

Batcher::Batcher(const Dataset& data, std::size_t batch_size, Rng& rng)
    : data_(data), batch_size_(batch_size), rng_(rng) {
  REFIT_CHECK(batch_size_ > 0);
  REFIT_CHECK_MSG(data_.train_size() >= batch_size_,
                  "training split smaller than one batch");
  order_.resize(data_.train_size());
  std::iota(order_.begin(), order_.end(), 0);
  reshuffle();
}

Batch Batcher::next() {
  if (cursor_ + batch_size_ > order_.size()) {
    ++epochs_;
    reshuffle();
  }
  std::vector<std::size_t> rows(order_.begin() + cursor_,
                                order_.begin() + cursor_ + batch_size_);
  cursor_ += batch_size_;
  Batch b;
  b.images = gather_rows(data_.train_images, rows);
  b.labels.reserve(rows.size());
  for (std::size_t r : rows) b.labels.push_back(data_.train_labels[r]);
  return b;
}

void Batcher::reshuffle() {
  rng_.shuffle(order_);
  cursor_ = 0;
}

void Batcher::save(std::ostream& os) const {
  std::vector<std::uint64_t> order(order_.begin(), order_.end());
  ser::write_vec(os, order);
  ser::write_pod<std::uint64_t>(os, cursor_);
  ser::write_pod<std::uint64_t>(os, epochs_);
}

void Batcher::load(std::istream& is) {
  // Read and check everything before committing any of it: a bad stream
  // throws CheckError and leaves the batcher as it was.
  const auto order = ser::read_vec<std::uint64_t>(is);
  const auto cursor = ser::read_pod<std::uint64_t>(is);
  const auto epochs = ser::read_pod<std::uint64_t>(is);
  const std::size_t n = data_.train_size();
  REFIT_CHECK_MSG(order.size() == n,
                  "batcher checkpoint does not match the dataset");
  // next() computes cursor + batch_size; a cursor past the end would wrap.
  REFIT_CHECK_MSG(cursor <= n, "batcher checkpoint cursor " << cursor
                                   << " exceeds the order length " << n);
  std::vector<std::uint8_t> seen(n, 0);
  for (const std::uint64_t r : order) {
    REFIT_CHECK_MSG(r < n && seen[r] == 0,
                    "batcher checkpoint order is not a permutation");
    seen[r] = 1;
  }
  order_.assign(order.begin(), order.end());
  cursor_ = static_cast<std::size_t>(cursor);
  epochs_ = static_cast<std::size_t>(epochs);
}

Tensor gather_rows(const Tensor& data, const std::vector<std::size_t>& rows) {
  REFIT_CHECK(data.rank() >= 2);
  Shape s = data.shape();
  const std::size_t per_row = data.numel() / s[0];
  const std::size_t n = s[0];
  s[0] = rows.size();
  Tensor out(s);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    REFIT_CHECK(rows[i] < n);
    std::copy(data.data() + rows[i] * per_row,
              data.data() + (rows[i] + 1) * per_row,
              out.data() + i * per_row);
  }
  return out;
}

}  // namespace refit
