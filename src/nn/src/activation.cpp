#include "nessa/nn/activation.hpp"

#include <cmath>

#include "nessa/tensor/ops.hpp"

namespace nessa::nn {

Tensor Relu::forward(const Tensor& input, bool /*train*/) {
  cached_input_ = input;
  return tensor::relu(input);
}

void Relu::backward(const Tensor& grad_output, Tensor* grad_input) {
  if (!grad_input) return;
  *grad_input = grad_output;
  tensor::relu_backward(*grad_input, cached_input_);
}

std::unique_ptr<Layer> Relu::clone() const { return std::make_unique<Relu>(); }

Tensor Tanh::forward(const Tensor& input, bool /*train*/) {
  Tensor out = input;
  for (float& x : out.flat()) x = std::tanh(x);
  cached_output_ = out;
  return out;
}

void Tanh::backward(const Tensor& grad_output, Tensor* grad_input) {
  if (!grad_input) return;
  Tensor& grad = *grad_input;
  grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const float y = cached_output_[i];
    grad[i] *= 1.0f - y * y;
  }
}

std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(); }

}  // namespace nessa::nn
