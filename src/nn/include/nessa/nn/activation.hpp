// Stateless activation layers (ReLU, Tanh) with cached pre-activations.
#pragma once

#include "nessa/nn/layer.hpp"

namespace nessa::nn {

class Relu final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  void backward(const Tensor& grad_output, Tensor* grad_input) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "relu"; }

 private:
  Tensor cached_input_;
};

class Tanh final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  void backward(const Tensor& grad_output, Tensor* grad_input) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "tanh"; }

 private:
  Tensor cached_output_;
};

}  // namespace nessa::nn
