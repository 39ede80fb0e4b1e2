#include "nessa/quant/qmodel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nessa/nn/activation.hpp"
#include "nessa/nn/dense.hpp"
#include "nessa/nn/dropout.hpp"
#include "nessa/tensor/ops.hpp"

namespace nessa::quant {
namespace {

TEST(QuantizedMlp, ForwardApproximatesFloatModel) {
  util::Rng rng(1);
  auto model = nn::Sequential::mlp({8, 16, 4}, rng);
  auto qmodel = QuantizedMlp::from_model(model);

  Tensor x = Tensor::randn({10, 8}, 1.0f, rng);
  Tensor exact = model.forward(x, false);
  Tensor approx = qmodel.forward(x);
  ASSERT_EQ(approx.shape(), exact.shape());
  // Argmax agreement is the property the selection model needs.
  auto ea = tensor::argmax_rows(exact);
  auto qa = tensor::argmax_rows(approx);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i] == qa[i]) ++agree;
  }
  EXPECT_GE(agree, 9u);  // allow one borderline flip
}

TEST(QuantizedMlp, DropoutLayersSkipped) {
  util::Rng rng(2);
  auto model = nn::Sequential::mlp({6, 12, 3}, rng, /*dropout=*/0.5f);
  auto qmodel = QuantizedMlp::from_model(model);
  EXPECT_EQ(qmodel.layer_count(), 2u);
  Tensor x = Tensor::randn({4, 6}, 1.0f, rng);
  EXPECT_NO_THROW(qmodel.forward(x));
}

TEST(QuantizedMlp, RejectsUnsupportedLayer) {
  util::Rng rng(3);
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(4, 4, rng));
  model.add(std::make_unique<nn::Tanh>());
  EXPECT_THROW(QuantizedMlp::from_model(model), std::invalid_argument);
}

TEST(QuantizedMlp, RejectsEmptyModel) {
  nn::Sequential model;
  EXPECT_THROW(QuantizedMlp::from_model(model), std::invalid_argument);
}

TEST(QuantizedMlp, RefreshTracksUpdatedWeights) {
  util::Rng rng(4);
  auto model = nn::Sequential::mlp({5, 10, 2}, rng);
  auto qmodel = QuantizedMlp::from_model(model);
  Tensor x = Tensor::randn({6, 5}, 1.0f, rng);
  Tensor before = qmodel.forward(x);

  // Perturb the float model substantially, then refresh.
  for (auto& p : model.params()) {
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      (*p.value)[i] += 0.5f;
    }
  }
  qmodel.refresh_from(model);
  Tensor after = qmodel.forward(x);
  // Outputs must have moved toward the new float model.
  Tensor target = model.forward(x, false);
  double drift_before = 0.0, drift_after = 0.0;
  for (std::size_t i = 0; i < target.size(); ++i) {
    drift_before += std::abs(before[i] - target[i]);
    drift_after += std::abs(after[i] - target[i]);
  }
  EXPECT_LT(drift_after, drift_before);
}

TEST(QuantizedMlp, RefreshArchitectureMismatchThrows) {
  util::Rng rng(5);
  auto model = nn::Sequential::mlp({5, 10, 2}, rng);
  auto other = nn::Sequential::mlp({5, 2}, rng);
  auto qmodel = QuantizedMlp::from_model(model);
  EXPECT_THROW(qmodel.refresh_from(other), std::invalid_argument);
}

TEST(QuantizedMlp, PayloadQuartersFloatSize) {
  util::Rng rng(6);
  auto model = nn::Sequential::mlp({64, 128, 10}, rng);
  auto qmodel = QuantizedMlp::from_model(model);
  // int8 weights + float biases + scales vs float32 everything.
  EXPECT_LT(qmodel.payload_bytes() * 3, qmodel.float_payload_bytes());
}

TEST(QuantizedMlp, DimsAndMacs) {
  util::Rng rng(7);
  auto model = nn::Sequential::mlp({8, 16, 4}, rng);
  auto qmodel = QuantizedMlp::from_model(model);
  EXPECT_EQ(qmodel.input_dim(), 8u);
  EXPECT_EQ(qmodel.output_dim(), 4u);
  EXPECT_EQ(qmodel.macs_per_sample(), 8u * 16 + 16u * 4);
}

TEST(QuantizedMlp, PenultimateMatchesHiddenWidth) {
  util::Rng rng(8);
  auto model = nn::Sequential::mlp({8, 16, 4}, rng);
  auto qmodel = QuantizedMlp::from_model(model);
  Tensor x = Tensor::randn({3, 8}, 1.0f, rng);
  auto fwd = qmodel.forward_with_penultimate(x);
  EXPECT_EQ(fwd.penultimate.cols(), 16u);
  EXPECT_EQ(fwd.logits.cols(), 4u);
  // Penultimate activations are post-ReLU: non-negative.
  for (std::size_t i = 0; i < fwd.penultimate.size(); ++i) {
    EXPECT_GE(fwd.penultimate[i], 0.0f);
  }
}

std::vector<std::pair<nn::Dense*, bool>> dense_layers(nn::Sequential& model) {
  std::vector<std::pair<nn::Dense*, bool>> out;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    nn::Layer& layer = model.layer(i);
    if (layer.name() == "dense") {
      out.emplace_back(static_cast<nn::Dense*>(&layer), false);
    } else if (layer.name() == "relu") {
      out.back().second = true;
    }
  }
  return out;
}

/// The scalar composition the int8 forward pass must reproduce bit for bit:
/// per layer, quantize the activation, int8 GEMM, add the bias, then ReLU.
QuantizedMlp::ForwardResult reference_forward(nn::Sequential& model,
                                              const Tensor& inputs) {
  const auto layers = dense_layers(model);
  QuantizedMlp::ForwardResult out;
  Tensor x = inputs;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (i + 1 == layers.size()) out.penultimate = x;
    const auto& [dense, relu_after] = layers[i];
    Tensor y = quantized_matmul(quantize_symmetric(x),
                                quantize_symmetric(dense->weight()));
    tensor::add_row_vector(y, dense->bias());
    if (relu_after) y = tensor::relu(y);
    x = std::move(y);
  }
  out.logits = std::move(x);
  return out;
}

::testing::AssertionResult same_bytes(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure()
           << a.shape_string() << " vs " << b.shape_string();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.flat()[i], &b.flat()[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

void expect_matches_reference(nn::Sequential& model, const Tensor& x,
                              const char* what) {
  SCOPED_TRACE(what);
  const auto qmodel = QuantizedMlp::from_model(model);
  const auto got = qmodel.forward_with_penultimate(x);
  const auto want = reference_forward(model, x);
  EXPECT_TRUE(same_bytes(got.penultimate, want.penultimate));
  EXPECT_TRUE(same_bytes(got.logits, want.logits));
}

TEST(QuantizedMlp, ForwardMatchesReferenceBitForBit) {
  util::Rng rng(10);
  // The substrate's CIFAR-10 shape, and one whose odd widths leave a
  // padded input pair and a partial output block in every layer.
  for (const std::vector<std::size_t>& dims :
       {std::vector<std::size_t>{29, 128, 64, 10},
        std::vector<std::size_t>{29, 37, 24, 10}}) {
    auto model = nn::Sequential::mlp(dims, rng);
    for (auto& [dense, relu_after] : dense_layers(model)) {
      dense->bias() = Tensor::randn(dense->bias().shape(), 0.3f, rng);
    }
    const std::size_t in = dims.front();
    expect_matches_reference(model, Tensor::randn({9, in}, 1.0f, rng),
                             "gaussian");
    expect_matches_reference(model, Tensor::randn({1, in}, 2.0f, rng),
                             "one row");
    expect_matches_reference(model, Tensor({3, in}), "all zero (scale 1)");

    // max|x| = 127 gives layer 0 a scale of exactly 1, so each k + 0.5
    // value is an exact tie; the -0.0 entries quantize to 0.
    Tensor ties({4, in});
    for (std::size_t i = 0; i < ties.size(); ++i) {
      ties[i] = static_cast<float>((i * 37) % 254) - 127.0f + 0.5f;
      if (i % 5 == 3) ties[i] = -0.0f;
    }
    ties[0] = 127.0f;
    ties[1] = -126.5f;
    expect_matches_reference(model, ties, "exact ties");

    Tensor negative = Tensor::randn({5, in}, 1.0f, rng);
    for (float& v : negative.flat()) v = -std::abs(v) - 0.01f;
    expect_matches_reference(model, negative, "all negative");

    // max|x| below 127 / FLT_MAX makes 1 / scale infinite: every value
    // lands on the +-127 clamp. The products are then ~1e-37: a bias would
    // absorb them, and a later layer would quantize zeros with an infinite
    // 1 / scale (NaN, undefined in the reference), so this runs one layer
    // with its zero bias.
    Tensor tiny = Tensor::randn({6, in}, 1.0f, rng);
    for (float& v : tiny.flat()) {
      v = std::copysign(2e-38f, v) * (1.0f + std::min(std::abs(v), 4.0f));
    }
    auto one_layer = nn::Sequential::mlp({in, dims.back()}, rng);
    expect_matches_reference(one_layer, tiny, "clamped at +-127");
  }

  // Denormal weights make the rescale underflow to 0, so every
  // pre-activation is a signed zero: -0.0 where the int32 accumulator is
  // negative and the bias is -0.0. ReLU must turn each into +0.0; without
  // ReLU (the one-layer model) the -0.0 reaches the logits.
  for (const std::vector<std::size_t>& dims :
       {std::vector<std::size_t>{29, 12, 10},
        std::vector<std::size_t>{29, 10}}) {
    auto model = nn::Sequential::mlp(dims, rng);
    for (auto& [dense, relu_after] : dense_layers(model)) {
      for (float& w : dense->weight().flat()) w = std::copysign(1e-42f, w);
      dense->bias().fill(-0.0f);
    }
    expect_matches_reference(model, Tensor::randn({7, 29}, 1.0f, rng),
                             "signed zeros through ReLU");
  }
}

TEST(QuantizedMlp, Rank1InputRejected) {
  util::Rng rng(9);
  auto model = nn::Sequential::mlp({4, 2}, rng);
  auto qmodel = QuantizedMlp::from_model(model);
  EXPECT_THROW(qmodel.forward(Tensor({4})), std::invalid_argument);
}

}  // namespace
}  // namespace nessa::quant
