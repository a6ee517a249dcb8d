// MICRO — google-benchmark micro-benchmarks for the simulator's hot
// kernels: GEMM, im2col, crossbar programming, the quiescent-voltage
// detection pass, and the re-mapping solvers.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "core/remap.hpp"
#include "detect/quiescent_detector.hpp"
#include "rram/faults.hpp"
#include "tensor/ops.hpp"

using namespace refit;

namespace {

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_Im2col(benchmark::State& state) {
  Rng rng(2);
  const Tensor x = Tensor::randn({8, 16, 16, 16}, rng);
  const ConvGeometry g{16, 16, 16, 3, 1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(im2col(x, g));
  }
}
BENCHMARK(BM_Im2col);

void BM_CrossbarWrite(benchmark::State& state) {
  CrossbarConfig cfg;
  cfg.rows = 128;
  cfg.cols = 128;
  Crossbar xb(cfg, EnduranceModel::unlimited(), Rng(3));
  std::size_t i = 0;
  for (auto _ : state) {
    xb.write((i / 128) % 128, i % 128, 0.5);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CrossbarWrite);

void BM_DetectionPass(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = n;
  cfg.write_noise_sigma = 0.01;
  Crossbar xb(cfg, EnduranceModel::unlimited(), Rng(6));
  Rng rng(7);
  randomize_crossbar_content(xb, 0.3, 0.2, rng);
  FaultInjectionConfig fc;
  fc.fraction = 0.1;
  inject_fabrication_faults(xb, fc, rng);
  const QuiescentVoltageDetector det(DetectorConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.detect(xb));
  }
}
BENCHMARK(BM_DetectionPass)->Arg(128)->Arg(256);

void BM_RemapSolver(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto algo = static_cast<RemapAlgorithm>(state.range(1));
  Rng crng(8);
  InterfaceCost cost(m);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t p = 0; p < m; ++p) cost.add(j, p, crng.uniform(0, 10));
  RemapConfig cfg;
  cfg.algorithm = algo;
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_assignment(cost, cfg, rng));
  }
}
BENCHMARK(BM_RemapSolver)
    ->Args({64, static_cast<int>(RemapAlgorithm::kGreedySwap)})
    ->Args({64, static_cast<int>(RemapAlgorithm::kGenetic)})
    ->Args({64, static_cast<int>(RemapAlgorithm::kHungarian)})
    ->Args({128, static_cast<int>(RemapAlgorithm::kHungarian)});

}  // namespace

BENCHMARK_MAIN();
