#include "nessa/quant/quantize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nessa/tensor/ops.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::quant {
namespace {

TEST(Quantize, RoundTripErrorBoundedByHalfScale) {
  util::Rng rng(1);
  Tensor t = Tensor::randn({64, 32}, 1.5f, rng);
  auto q = quantize_symmetric(t);
  EXPECT_LE(quantization_error(t, q), q.scale / 2.0f + 1e-7f);
}

TEST(Quantize, ScaleIsMaxAbsOver127) {
  Tensor t = Tensor::from({3}, {-2.54f, 1.0f, 0.5f});
  auto q = quantize_symmetric(t);
  EXPECT_NEAR(q.scale, 2.54f / 127.0f, 1e-6f);
}

TEST(Quantize, ZeroMapsToZeroExactly) {
  Tensor t = Tensor::from({4}, {0.0f, 1.0f, -1.0f, 0.0f});
  auto q = quantize_symmetric(t);
  EXPECT_EQ(q.data[0], 0);
  EXPECT_EQ(q.data[3], 0);
}

TEST(Quantize, ExtremesHit127) {
  Tensor t = Tensor::from({2}, {-4.0f, 4.0f});
  auto q = quantize_symmetric(t);
  EXPECT_EQ(q.data[0], -127);
  EXPECT_EQ(q.data[1], 127);
}

TEST(Quantize, ExactTiesRoundAwayFromZero) {
  // max|x| = 127 makes the scale exactly 1, so x * inv is x itself.
  Tensor t = Tensor::from(
      {7}, {0.5f, 2.5f, -2.5f, 126.5f, -126.5f, -0.5f, 127.0f});
  auto q = quantize_symmetric(t);
  ASSERT_EQ(q.scale, 1.0f);
  EXPECT_EQ(q.data[0], 1);
  EXPECT_EQ(q.data[1], 3);
  EXPECT_EQ(q.data[2], -3);
  EXPECT_EQ(q.data[3], 127);
  EXPECT_EQ(q.data[4], -127);
  EXPECT_EQ(q.data[5], -1);
  EXPECT_EQ(q.data[6], 127);
}

TEST(Quantize, AllZeroTensorSafe) {
  Tensor t({8});
  auto q = quantize_symmetric(t);
  EXPECT_EQ(q.scale, 1.0f);
  for (auto v : q.data) EXPECT_EQ(v, 0);
  Tensor back = dequantize(q);
  EXPECT_EQ(back.max_abs(), 0.0f);
}

TEST(Quantize, DequantizePreservesShape) {
  util::Rng rng(2);
  Tensor t = Tensor::randn({3, 5}, 1.0f, rng);
  Tensor back = dequantize(quantize_symmetric(t));
  EXPECT_EQ(back.shape(), t.shape());
}

TEST(Quantize, ByteSizeIsQuarterOfFloat) {
  Tensor t({100});
  auto q = quantize_symmetric(t);
  EXPECT_EQ(q.byte_size(), 100u + sizeof(float));
  EXPECT_LT(q.byte_size() * 3, t.size() * sizeof(float));
}

TEST(Quantize, ErrorShapeMismatchThrows) {
  Tensor t({4});
  auto q = quantize_symmetric(Tensor({5}));
  EXPECT_THROW(quantization_error(t, q), std::invalid_argument);
}

TEST(QuantizedMatmul, ApproximatesFloatMatmul) {
  util::Rng rng(3);
  Tensor a = Tensor::randn({16, 24}, 1.0f, rng);
  Tensor b = Tensor::randn({24, 8}, 1.0f, rng);
  Tensor exact = tensor::matmul(a, b);
  Tensor approx = quantized_matmul(quantize_symmetric(a),
                                   quantize_symmetric(b));
  ASSERT_EQ(approx.shape(), exact.shape());
  // Relative error of int8 GEMM should be small for well-scaled inputs.
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    num += std::pow(static_cast<double>(exact[i]) - approx[i], 2);
    den += std::pow(static_cast<double>(exact[i]), 2);
  }
  EXPECT_LT(std::sqrt(num / den), 0.05);
}

TEST(QuantizedMatmul, ExactForSmallIntegers) {
  // Integer matrices within int8 range quantize losslessly when max|x|
  // pairs with a power-friendly scale; use values that are exact multiples
  // of the scale.
  Tensor a = Tensor::from({2, 2}, {127, 0, 0, 127});
  Tensor b = Tensor::from({2, 2}, {127, 127, 127, -127});
  Tensor out = quantized_matmul(quantize_symmetric(a), quantize_symmetric(b));
  Tensor exact = tensor::matmul(a, b);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(out[i], exact[i], 1e-3f);
  }
}

TEST(QuantizedMatmul, DimMismatchThrows) {
  auto qa = quantize_symmetric(Tensor({2, 3}));
  auto qb = quantize_symmetric(Tensor({4, 2}));
  EXPECT_THROW(quantized_matmul(qa, qb), std::invalid_argument);
}

TEST(QuantizedMatmul, Rank1Rejected) {
  auto qa = quantize_symmetric(Tensor({3}));
  auto qb = quantize_symmetric(Tensor({3, 2}));
  EXPECT_THROW(quantized_matmul(qa, qb), std::invalid_argument);
}

}  // namespace
}  // namespace nessa::quant
