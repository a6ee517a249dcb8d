// Tests for the dataset container, batcher, and synthetic generators.
#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "data/synthetic.hpp"

namespace refit {
namespace {

Dataset tiny_dataset() {
  Dataset d;
  d.num_classes = 2;
  d.train_images = Tensor({10, 3});
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      d.train_images.at(i, j) = static_cast<float>(i);
  d.train_labels.assign(10, 0);
  d.test_images = Tensor({4, 3});
  d.test_labels.assign(4, 1);
  return d;
}

TEST(Batcher, BatchShape) {
  Rng rng(1);
  const Dataset d = tiny_dataset();
  Batcher b(d, 4, rng);
  const Batch batch = b.next();
  EXPECT_EQ(batch.images.shape(), (Shape{4, 3}));
  EXPECT_EQ(batch.labels.size(), 4u);
}

TEST(Batcher, RowsStayAligned) {
  // Every row's content encodes its original index; labels must match.
  Rng rng(2);
  Dataset d = tiny_dataset();
  for (std::size_t i = 0; i < 10; ++i)
    d.train_labels[i] = static_cast<std::uint8_t>(i % 2);
  Batcher b(d, 5, rng);
  for (int k = 0; k < 8; ++k) {
    const Batch batch = b.next();
    for (std::size_t i = 0; i < 5; ++i) {
      const auto orig = static_cast<std::size_t>(batch.images.at(i, 0));
      EXPECT_EQ(batch.labels[i], orig % 2);
    }
  }
}

TEST(Batcher, EpochCoversAllSamples) {
  Rng rng(3);
  const Dataset d = tiny_dataset();
  Batcher b(d, 5, rng);
  std::set<int> seen;
  for (int k = 0; k < 2; ++k) {
    const Batch batch = b.next();
    for (std::size_t i = 0; i < 5; ++i)
      seen.insert(static_cast<int>(batch.images.at(i, 0)));
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(b.epochs_completed(), 0u);
  b.next();
  EXPECT_EQ(b.epochs_completed(), 1u);
}

TEST(Batcher, TooLargeBatchThrows) {
  Rng rng(4);
  const Dataset d = tiny_dataset();
  EXPECT_THROW(Batcher(d, 11, rng), CheckError);
}

/// A batcher checkpoint stream with the given fields.
std::string batcher_stream(const std::vector<std::uint64_t>& order,
                           std::uint64_t cursor, std::uint64_t epochs) {
  std::ostringstream os;
  ser::write_vec(os, order);
  ser::write_pod<std::uint64_t>(os, cursor);
  ser::write_pod<std::uint64_t>(os, epochs);
  return os.str();
}

/// The batcher's checkpoint bytes (its whole iteration state).
std::string saved(const Batcher& b) {
  std::ostringstream os;
  b.save(os);
  return os.str();
}

TEST(Batcher, LoadRejectsBadStateAndLeavesBatcherUnchanged) {
  Rng rng(5);
  const Dataset d = tiny_dataset();
  Batcher b(d, 4, rng);
  b.next();
  const std::string before = saved(b);
  std::vector<std::uint64_t> ident(10);
  std::iota(ident.begin(), ident.end(), 0);
  std::vector<std::uint64_t> repeated = ident;
  repeated[3] = 7;
  std::vector<std::uint64_t> out_of_range = ident;
  out_of_range[9] = 10;
  const std::string bad[] = {
      // A cursor near 2^64 would wrap cursor + batch_size in next().
      batcher_stream(ident, std::numeric_limits<std::uint64_t>::max(), 0),
      batcher_stream(ident, 11, 0),
      batcher_stream(repeated, 0, 0),
      batcher_stream(out_of_range, 0, 0),
      batcher_stream({0, 1, 2}, 0, 0),
  };
  for (const std::string& bytes : bad) {
    std::istringstream is(bytes);
    EXPECT_THROW(b.load(is), CheckError);
    EXPECT_EQ(saved(b), before);
  }
  // The boundary cursor is valid: next() starts a new epoch.
  std::istringstream ok(batcher_stream(ident, 10, 2));
  b.load(ok);
  EXPECT_EQ(saved(b), batcher_stream(ident, 10, 2));
  EXPECT_EQ(b.next().images.dim(0), 4u);
  EXPECT_EQ(b.epochs_completed(), 3u);
}

TEST(GatherRows, PicksRows) {
  Tensor d({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor g = gather_rows(d, {2, 0});
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 2.0f);
}

TEST(SyntheticMnist, ShapesAndLabels) {
  Rng rng(5);
  SyntheticConfig cfg;
  cfg.train_size = 200;
  cfg.test_size = 50;
  const Dataset d = make_synthetic_mnist(cfg, rng);
  EXPECT_EQ(d.train_images.shape(), (Shape{200, 784}));
  EXPECT_EQ(d.test_images.shape(), (Shape{50, 784}));
  EXPECT_EQ(d.num_classes, 10u);
  for (auto l : d.train_labels) EXPECT_LT(l, 10);
}

TEST(SyntheticMnist, AllClassesPresent) {
  Rng rng(6);
  SyntheticConfig cfg;
  cfg.train_size = 500;
  cfg.test_size = 10;
  const Dataset d = make_synthetic_mnist(cfg, rng);
  std::set<int> classes(d.train_labels.begin(), d.train_labels.end());
  EXPECT_EQ(classes.size(), 10u);
}

TEST(SyntheticMnist, DeterministicForSeed) {
  SyntheticConfig cfg;
  cfg.train_size = 20;
  cfg.test_size = 5;
  Rng r1(7), r2(7);
  const Dataset a = make_synthetic_mnist(cfg, r1);
  const Dataset b = make_synthetic_mnist(cfg, r2);
  for (std::size_t i = 0; i < a.train_images.numel(); ++i)
    ASSERT_EQ(a.train_images[i], b.train_images[i]);
  EXPECT_EQ(a.train_labels, b.train_labels);
}

TEST(SyntheticCifar, ShapesAndRange) {
  Rng rng(8);
  SyntheticConfig cfg;
  cfg.train_size = 100;
  cfg.test_size = 20;
  const Dataset d = make_synthetic_cifar(cfg, rng, 16);
  EXPECT_EQ(d.train_images.shape(), (Shape{100, 3, 16, 16}));
  // Values are prototype([-1,1]) × amplitude + noise — loosely bounded.
  for (std::size_t i = 0; i < d.train_images.numel(); ++i)
    EXPECT_LT(std::abs(d.train_images[i]), 4.0f);
}

TEST(SyntheticCifar, ClassesAreSeparable) {
  // Same-class samples must be closer to their prototype than to other
  // prototypes on average; verify via nearest-class-mean classification
  // beating chance comfortably.
  Rng rng(9);
  SyntheticConfig cfg;
  cfg.train_size = 600;
  cfg.test_size = 200;
  const Dataset d = make_synthetic_cifar(cfg, rng, 12);
  const std::size_t dim = 3 * 12 * 12;
  std::vector<std::vector<double>> means(10, std::vector<double>(dim, 0.0));
  std::vector<int> counts(10, 0);
  for (std::size_t i = 0; i < 600; ++i) {
    const int c = d.train_labels[i];
    ++counts[c];
    for (std::size_t j = 0; j < dim; ++j)
      means[c][j] += d.train_images[i * dim + j];
  }
  for (int c = 0; c < 10; ++c)
    for (auto& v : means[c]) v /= std::max(1, counts[c]);
  int correct = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    double best = 1e30;
    int arg = -1;
    for (int c = 0; c < 10; ++c) {
      double dist = 0.0;
      for (std::size_t j = 0; j < dim; ++j) {
        const double diff = d.test_images[i * dim + j] - means[c][j];
        dist += diff * diff;
      }
      if (dist < best) {
        best = dist;
        arg = c;
      }
    }
    correct += arg == d.test_labels[i];
  }
  EXPECT_GT(correct, 100);  // ≥50 % vs 10 % chance
}

}  // namespace
}  // namespace refit
