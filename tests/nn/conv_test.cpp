#include "nessa/nn/conv.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nessa/nn/activation.hpp"
#include "nessa/nn/dense.hpp"
#include "nessa/nn/loss.hpp"
#include "nessa/tensor/ops.hpp"

namespace nessa::nn {
namespace {

TEST(Conv2d, GeometryStride1Pad1) {
  util::Rng rng(1);
  Conv2d conv({3, 8, 8}, 16, 3, 1, 1, rng);
  EXPECT_EQ(conv.output_dims(), (ImageDims{16, 8, 8}));
}

TEST(Conv2d, GeometryStride2) {
  util::Rng rng(2);
  Conv2d conv({3, 8, 8}, 8, 3, 2, 1, rng);
  EXPECT_EQ(conv.output_dims(), (ImageDims{8, 4, 4}));
}

TEST(Conv2d, RejectsBadGeometry) {
  util::Rng rng(3);
  EXPECT_THROW(Conv2d({0, 4, 4}, 2, 3, 1, 1, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d({1, 2, 2}, 2, 5, 1, 0, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d({1, 4, 4}, 0, 3, 1, 1, rng), std::invalid_argument);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  // 1x1 conv with identity weight reproduces the input per channel.
  util::Rng rng(4);
  Conv2d conv({2, 3, 3}, 2, 1, 1, 0, rng);
  conv.weight() = tensor::Tensor::from({2, 2}, {1, 0, 0, 1});
  Tensor x({1, 18});
  for (std::size_t i = 0; i < 18; ++i) x[i] = static_cast<float>(i);
  Tensor y = conv.forward(x, true);
  for (std::size_t i = 0; i < 18; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, HandComputed3x3) {
  // Single channel 3x3 input, single 3x3 all-ones kernel, pad 1: the
  // center output is the sum of all inputs.
  util::Rng rng(5);
  Conv2d conv({1, 3, 3}, 1, 3, 1, 1, rng);
  conv.weight() = tensor::Tensor::full({9, 1}, 1.0f);
  Tensor x = tensor::Tensor::from({1, 9}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = conv.forward(x, true);
  EXPECT_FLOAT_EQ(y(0, 4), 45.0f);         // center: full sum
  EXPECT_FLOAT_EQ(y(0, 0), 1 + 2 + 4 + 5);  // corner: 2x2 window
}

TEST(AvgPool2d, Averages2x2Windows) {
  AvgPool2d pool({1, 4, 4});
  Tensor x({1, 16});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.cols(), 4u);
  EXPECT_FLOAT_EQ(y[0], (0 + 1 + 4 + 5) / 4.0f);
  EXPECT_FLOAT_EQ(y[3], (10 + 11 + 14 + 15) / 4.0f);
}

TEST(AvgPool2d, RejectsOddExtents) {
  EXPECT_THROW(AvgPool2d({1, 3, 4}), std::invalid_argument);
  EXPECT_THROW(AvgPool2d({1, 4, 5}), std::invalid_argument);
}

TEST(AvgPool2d, BackwardSpreadsGradient) {
  AvgPool2d pool({1, 2, 2});
  Tensor x({1, 4});
  pool.forward(x, true);
  Tensor g = tensor::Tensor::from({1, 1}, {4.0f});
  Tensor dx;
  pool.backward(g, &dx);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(dx[i], 1.0f);
}

TEST(BatchNorm2d, NormalizesPerChannelInTraining) {
  BatchNorm2d bn({2, 2, 2});
  util::Rng rng(6);
  Tensor x = tensor::Tensor::randn({10, 8}, 3.0f, rng);
  // Shift channel 1 strongly.
  for (std::size_t b = 0; b < 10; ++b) {
    for (std::size_t p = 4; p < 8; ++p) x(b, p) += 50.0f;
  }
  Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::size_t b = 0; b < 10; ++b) {
      for (std::size_t p = 0; p < 4; ++p) {
        const float v = y(b, c * 4 + p);
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    }
    EXPECT_NEAR(sum / 40.0, 0.0, 1e-4);
    EXPECT_NEAR(sq / 40.0, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, InferenceUsesRunningStats) {
  BatchNorm2d bn({1, 2, 2});
  util::Rng rng(7);
  // Feed several training batches with mean 5.
  for (int i = 0; i < 200; ++i) {
    Tensor x = tensor::Tensor::randn({8, 4}, 1.0f, rng);
    for (std::size_t j = 0; j < x.size(); ++j) x[j] += 5.0f;
    bn.forward(x, true);
  }
  // At inference, an input of exactly 5 should map near 0.
  Tensor probe = tensor::Tensor::full({1, 4}, 5.0f);
  Tensor y = bn.forward(probe, false);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(y[i], 0.0f, 0.2f);
  }
}

TEST(ResidualBlock, IdentityGeometry) {
  util::Rng rng(8);
  ResidualBlock block({4, 6, 6}, 4, 1, rng);
  EXPECT_EQ(block.output_dims(), (ImageDims{4, 6, 6}));
  Tensor x({3, 4 * 36});
  Tensor y = block.forward(x, true);
  EXPECT_EQ(y.cols(), 4u * 36);
}

TEST(ResidualBlock, StridedProjectionGeometry) {
  util::Rng rng(9);
  ResidualBlock block({4, 6, 6}, 8, 2, rng);
  EXPECT_EQ(block.output_dims(), (ImageDims{8, 3, 3}));
  // Projection shortcut contributes parameters.
  EXPECT_GE(block.params().size(), 10u);  // 2 convs + 2 bns + shortcut
}

TEST(MiniResnet, ForwardShapeAndFlops) {
  util::Rng rng(10);
  auto model = build_mini_resnet({3, 8, 8}, 8, 5, rng);
  Tensor x({2, 3 * 64});
  Tensor y = model.forward(x, false);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 5u);
  EXPECT_GT(model.flops_per_sample(), 100'000u);
  EXPECT_GT(model.parameter_count(), 1'000u);
}

TEST(MiniResnet, CloneMatchesForward) {
  util::Rng rng(11);
  auto model = build_mini_resnet({3, 8, 8}, 4, 3, rng);
  auto copy = model.clone();
  Tensor x = tensor::Tensor::randn({2, 3 * 64}, 1.0f, rng);
  Tensor a = model.forward(x, false);
  Tensor b = copy.forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i], b[i]);
  }
}

// --- finite-difference gradient checks -----------------------------------

double conv_batch_loss(Sequential& model, const Tensor& x,
                       const std::vector<Label>& y) {
  SoftmaxCrossEntropy loss_fn;
  // Use TRAIN mode so batch-norm statistics match the analytic backward,
  // which differentiates through the batch statistics.
  Tensor logits = model.forward(x, true);
  return loss_fn.forward(logits, y).mean_loss;
}

void expect_gradients_match(Sequential& model, const Tensor& x,
                            const std::vector<Label>& y,
                            std::size_t sample_stride) {
  SoftmaxCrossEntropy loss_fn;
  model.zero_grads();
  Tensor logits = model.forward(x, true);
  auto loss = loss_fn.forward(logits, y);
  model.backward(loss_fn.backward(loss, y));

  const float eps = 1e-2f;
  std::size_t checked = 0, outliers = 0;
  for (auto& p : model.params()) {
    for (std::size_t i = 0; i < p.value->size(); i += sample_stride) {
      const float original = (*p.value)[i];
      (*p.value)[i] = original + eps;
      const double up = conv_batch_loss(model, x, y);
      (*p.value)[i] = original - eps;
      const double down = conv_batch_loss(model, x, y);
      (*p.value)[i] = original;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = (*p.grad)[i];
      const double denom =
          std::max({std::abs(numeric), std::abs(analytic), 1e-3});
      if (std::abs(numeric - analytic) / denom > 0.12) ++outliers;
      ++checked;
    }
  }
  ASSERT_GT(checked, 10u);
  // ReLU kinks allow a small outlier fraction.
  EXPECT_LE(outliers, std::max<std::size_t>(1, checked / 25))
      << "outliers " << outliers << "/" << checked;
}

TEST(ConvGradientCheck, PlainConvStack) {
  util::Rng rng(12);
  Sequential model;
  model.add(std::make_unique<Conv2d>(ImageDims{2, 5, 5}, 3, 3, 1, 1, rng));
  model.add(std::make_unique<Relu>());
  model.add(std::make_unique<Dense>(3 * 25, 3, rng));
  Tensor x = tensor::Tensor::randn({4, 50}, 1.0f, rng);
  std::vector<Label> y{0, 1, 2, 0};
  expect_gradients_match(model, x, y, 11);
}

TEST(ConvGradientCheck, BatchNormStack) {
  util::Rng rng(13);
  Sequential model;
  model.add(std::make_unique<Conv2d>(ImageDims{1, 4, 4}, 4, 3, 1, 1, rng));
  model.add(std::make_unique<BatchNorm2d>(ImageDims{4, 4, 4}));
  model.add(std::make_unique<Relu>());
  model.add(std::make_unique<Dense>(64, 2, rng));
  Tensor x = tensor::Tensor::randn({6, 16}, 1.0f, rng);
  std::vector<Label> y{0, 1, 0, 1, 0, 1};
  expect_gradients_match(model, x, y, 7);
}

TEST(ConvGradientCheck, PoolingStack) {
  util::Rng rng(14);
  Sequential model;
  model.add(std::make_unique<Conv2d>(ImageDims{1, 4, 4}, 2, 3, 1, 1, rng));
  model.add(std::make_unique<AvgPool2d>(ImageDims{2, 4, 4}));
  model.add(std::make_unique<Dense>(8, 2, rng));
  Tensor x = tensor::Tensor::randn({5, 16}, 1.0f, rng);
  std::vector<Label> y{0, 1, 0, 1, 0};
  expect_gradients_match(model, x, y, 3);
}

TEST(ConvGradientCheck, ResidualBlock) {
  util::Rng rng(15);
  Sequential model;
  model.add(std::make_unique<ResidualBlock>(ImageDims{2, 4, 4}, 4, 2, rng));
  model.add(std::make_unique<Dense>(4 * 4, 2, rng));
  Tensor x = tensor::Tensor::randn({6, 32}, 1.0f, rng);
  std::vector<Label> y{0, 1, 0, 1, 0, 1};
  expect_gradients_match(model, x, y, 13);
}

}  // namespace
}  // namespace nessa::nn
