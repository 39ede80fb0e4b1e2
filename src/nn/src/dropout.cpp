#include "nessa/nn/dropout.hpp"

#include <stdexcept>

namespace nessa::nn {

Dropout::Dropout(float rate, util::Rng& rng) : rate_(rate), rng_(rng.fork()) {
  if (rate < 0.0f || rate >= 1.0f) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& input, bool train) {
  last_was_train_ = train;
  if (!train || rate_ == 0.0f) return input;
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  mask_ = Tensor(input.shape());
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool kept = rng_.uniform() < keep;
    mask_[i] = kept ? scale : 0.0f;
    out[i] *= mask_[i];
  }
  return out;
}

void Dropout::backward(const Tensor& grad_output, Tensor* grad_input) {
  if (!grad_input) return;
  *grad_input = grad_output;
  if (last_was_train_ && rate_ != 0.0f) grad_input->hadamard(mask_);
}

std::unique_ptr<Layer> Dropout::clone() const {
  util::Rng fresh(rng_);
  auto copy = std::make_unique<Dropout>(rate_, fresh);
  return copy;
}

}  // namespace nessa::nn
