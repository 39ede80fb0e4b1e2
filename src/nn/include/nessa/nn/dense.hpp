// Fully-connected layer: y = x W + b, with cached input for backward.
#pragma once

#include "nessa/nn/layer.hpp"

namespace nessa::nn {

class Dense final : public Layer {
 public:
  /// He-uniform weight init, zero bias.
  Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  void backward(const Tensor& grad_output, Tensor* grad_input) override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "dense"; }
  [[nodiscard]] std::size_t flops_per_sample() const override {
    return 2 * in_features_ * out_features_;
  }

  [[nodiscard]] std::size_t in_features() const noexcept { return in_features_; }
  [[nodiscard]] std::size_t out_features() const noexcept {
    return out_features_;
  }

  [[nodiscard]] const Tensor& weight() const noexcept { return weight_; }
  [[nodiscard]] Tensor& weight() noexcept { return weight_; }
  [[nodiscard]] const Tensor& bias() const noexcept { return bias_; }
  [[nodiscard]] Tensor& bias() noexcept { return bias_; }

 private:
  Dense() = default;

  std::size_t in_features_ = 0;
  std::size_t out_features_ = 0;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out]
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;  // [batch, in]
};

}  // namespace nessa::nn
