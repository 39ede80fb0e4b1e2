// Google-benchmark microbenchmarks for the numeric substrate: GEMM kernel
// variants, the im2col convolution, batch-norm, quantized vs float MLP
// inference, and the end-to-end per-batch training step.
#include <benchmark/benchmark.h>

#include "nessa/nn/conv.hpp"
#include "nessa/nn/loss.hpp"
#include "nessa/nn/optimizer.hpp"
#include "nessa/quant/qmodel.hpp"
#include "nessa/tensor/ops.hpp"
#include "nessa/util/rng.hpp"

using namespace nessa;

namespace {

tensor::Tensor random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor t({r, c});
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.gaussian());
  }
  return t;
}

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_matrix(n, n, 1);
  auto b = random_matrix(n, n, 2);
  for (auto _ : state) {
    auto c = tensor::matmul_naive(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNaive)->Range(32, 256);

void BM_GemmBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_matrix(n, n, 1);
  auto b = random_matrix(n, n, 2);
  for (auto _ : state) {
    auto c = tensor::matmul(a, b, /*parallel=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmBlocked)->Range(32, 512);

void BM_GemmParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_matrix(n, n, 1);
  auto b = random_matrix(n, n, 2);
  for (auto _ : state) {
    auto c = tensor::matmul(a, b, /*parallel=*/true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmParallel)->Range(128, 512);

/// 256 x k times k x 256, serial, for A * B and A^T * B: at k = 4096 the
/// 4 MB B operand is larger than a 2 MB L2, so the kernels' step blocking
/// shows here and nowhere in the square shapes above.
void BM_GemmDeepK(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const bool at_b = state.range(1) != 0;
  auto a = at_b ? random_matrix(k, 256, 1) : random_matrix(256, k, 1);
  auto b = random_matrix(k, 256, 2);
  for (auto _ : state) {
    auto c = at_b ? tensor::matmul_at_b(a, b, false)
                  : tensor::matmul(a, b, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * 256 * 256 * k));
}
BENCHMARK(BM_GemmDeepK)->ArgsProduct({{512, 4096}, {0, 1}});

void BM_PairwiseSqDists(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto x = random_matrix(n, 16, 3);
  for (auto _ : state) {
    auto d = tensor::pairwise_sq_dists(x, false);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_PairwiseSqDists)->Range(64, 1024);

void BM_Conv2dForward(benchmark::State& state) {
  util::Rng rng(4);
  nn::Conv2d conv({3, 16, 16}, 16, 3, 1, 1, rng);
  auto x = random_matrix(32, 3 * 256, 5);
  for (auto _ : state) {
    auto y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dBackward(benchmark::State& state) {
  util::Rng rng(6);
  nn::Conv2d conv({3, 16, 16}, 16, 3, 1, 1, rng);
  auto x = random_matrix(32, 3 * 256, 7);
  auto y = conv.forward(x, true);
  auto g = random_matrix(32, 16 * 256, 8);
  nn::Tensor dx;
  for (auto _ : state) {
    conv.backward(g, &dx);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_Conv2dBackward);

void BM_BatchNormForwardTrain(benchmark::State& state) {
  nn::BatchNorm2d bn({16, 16, 16});
  auto x = random_matrix(32, 16 * 256, 9);
  for (auto _ : state) {
    auto y = bn.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BatchNormForwardTrain);

void BM_MlpTrainStep(benchmark::State& state) {
  util::Rng rng(10);
  auto model = nn::Sequential::mlp({64, 128, 64, 10}, rng);
  nn::Sgd sgd;
  nn::SoftmaxCrossEntropy loss_fn;
  auto x = random_matrix(128, 64, 11);
  std::vector<nn::Label> y(128);
  for (std::size_t i = 0; i < 128; ++i) {
    y[i] = static_cast<nn::Label>(i % 10);
  }
  for (auto _ : state) {
    model.zero_grads();
    auto loss = loss_fn.forward(model.forward(x, true), y);
    model.backward(loss_fn.backward(loss, y));
    sgd.step(model.params());
    benchmark::DoNotOptimize(loss.mean_loss);
  }
}
BENCHMARK(BM_MlpTrainStep);

void BM_MiniResnetTrainStep(benchmark::State& state) {
  util::Rng rng(12);
  auto model = nn::build_mini_resnet({3, 8, 8}, 8, 10, rng);
  nn::Sgd sgd;
  nn::SoftmaxCrossEntropy loss_fn;
  auto x = random_matrix(32, 3 * 64, 13);
  std::vector<nn::Label> y(32);
  for (std::size_t i = 0; i < 32; ++i) {
    y[i] = static_cast<nn::Label>(i % 10);
  }
  for (auto _ : state) {
    model.zero_grads();
    auto loss = loss_fn.forward(model.forward(x, true), y);
    model.backward(loss_fn.backward(loss, y));
    sgd.step(model.params());
    benchmark::DoNotOptimize(loss.mean_loss);
  }
}
BENCHMARK(BM_MiniResnetTrainStep);

void BM_QuantizedVsFloat_Float(benchmark::State& state) {
  util::Rng rng(14);
  auto model = nn::Sequential::mlp({128, 256, 10}, rng);
  auto x = random_matrix(256, 128, 15);
  for (auto _ : state) {
    auto y = model.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_QuantizedVsFloat_Float);

void BM_QuantizedVsFloat_Int8(benchmark::State& state) {
  util::Rng rng(14);
  auto model = nn::Sequential::mlp({128, 256, 10}, rng);
  auto qmodel = quant::QuantizedMlp::from_model(model);
  auto x = random_matrix(256, 128, 15);
  for (auto _ : state) {
    auto y = qmodel.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_QuantizedVsFloat_Int8);

}  // namespace
