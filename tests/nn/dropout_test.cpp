#include "nessa/nn/dropout.hpp"

#include <gtest/gtest.h>

namespace nessa::nn {
namespace {

TEST(Dropout, RejectsInvalidRate) {
  util::Rng rng(1);
  EXPECT_THROW(Dropout(-0.1f, rng), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0f, rng), std::invalid_argument);
  EXPECT_NO_THROW(Dropout(0.0f, rng));
}

TEST(Dropout, InferenceIsIdentity) {
  util::Rng rng(2);
  Dropout d(0.5f, rng);
  Tensor x = Tensor::from({2, 2}, {1, 2, 3, 4});
  Tensor y = d.forward(x, /*train=*/false);
  EXPECT_TRUE(y == x);
}

TEST(Dropout, TrainZeroesApproxRateFraction) {
  util::Rng rng(3);
  Dropout d(0.4f, rng);
  Tensor x({1, 10000});
  x.fill(1.0f);
  Tensor y = d.forward(x, true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.4, 0.03);
}

TEST(Dropout, SurvivorsAreScaled) {
  util::Rng rng(4);
  Dropout d(0.5f, rng);
  Tensor x({1, 100});
  x.fill(1.0f);
  Tensor y = d.forward(x, true);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(y[i] == 0.0f || y[i] == 2.0f);
  }
}

TEST(Dropout, ExpectedValuePreserved) {
  util::Rng rng(5);
  Dropout d(0.3f, rng);
  Tensor x({1, 20000});
  x.fill(1.0f);
  Tensor y = d.forward(x, true);
  EXPECT_NEAR(y.sum() / 20000.0f, 1.0f, 0.05f);
}

TEST(Dropout, BackwardUsesSameMask) {
  util::Rng rng(6);
  Dropout d(0.5f, rng);
  Tensor x({1, 50});
  x.fill(1.0f);
  Tensor y = d.forward(x, true);
  Tensor g({1, 50});
  g.fill(1.0f);
  Tensor dx;
  d.backward(g, &dx);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(dx[i], y[i]);  // same mask, same scale
  }
}

TEST(Dropout, BackwardAfterInferenceIsIdentity) {
  util::Rng rng(7);
  Dropout d(0.5f, rng);
  Tensor x({1, 4});
  x.fill(2.0f);
  d.forward(x, false);
  Tensor g = Tensor::from({1, 4}, {1, 2, 3, 4});
  Tensor dx;
  d.backward(g, &dx);
  EXPECT_TRUE(dx == g);
}

TEST(Dropout, ZeroRateIsIdentityInTraining) {
  util::Rng rng(8);
  Dropout d(0.0f, rng);
  Tensor x = Tensor::from({1, 3}, {1, 2, 3});
  EXPECT_TRUE(d.forward(x, true) == x);
}

}  // namespace
}  // namespace nessa::nn
