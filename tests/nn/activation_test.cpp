#include "nessa/nn/activation.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace nessa::nn {
namespace {

TEST(Relu, ForwardClamps) {
  Relu relu;
  Tensor x = Tensor::from({1, 4}, {-2, -0.5f, 0.5f, 2});
  Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 0.5f);
  EXPECT_EQ(y[3], 2.0f);
}

TEST(Relu, BackwardUsesCachedInput) {
  Relu relu;
  Tensor x = Tensor::from({1, 3}, {-1, 0, 1});
  relu.forward(x, true);
  Tensor g = Tensor::from({1, 3}, {5, 5, 5});
  Tensor dx;
  relu.backward(g, &dx);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 0.0f);
  EXPECT_EQ(dx[2], 5.0f);
}

TEST(Relu, CloneIsIndependent) {
  Relu relu;
  auto copy = relu.clone();
  EXPECT_EQ(copy->name(), "relu");
}

TEST(Tanh, ForwardMatchesStdTanh) {
  Tanh tanh_layer;
  Tensor x = Tensor::from({1, 3}, {-1.0f, 0.0f, 2.0f});
  Tensor y = tanh_layer.forward(x, true);
  EXPECT_NEAR(y[0], std::tanh(-1.0f), 1e-6f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_NEAR(y[2], std::tanh(2.0f), 1e-6f);
}

TEST(Tanh, BackwardDerivative) {
  Tanh tanh_layer;
  Tensor x = Tensor::from({1, 1}, {0.5f});
  Tensor y = tanh_layer.forward(x, true);
  Tensor g = Tensor::from({1, 1}, {1.0f});
  Tensor dx;
  tanh_layer.backward(g, &dx);
  const float expected = 1.0f - y[0] * y[0];
  EXPECT_NEAR(dx[0], expected, 1e-6f);
}

TEST(Relu, NoParams) {
  Relu relu;
  EXPECT_TRUE(relu.params().empty());
  EXPECT_EQ(relu.flops_per_sample(), 0u);
}

}  // namespace
}  // namespace nessa::nn
