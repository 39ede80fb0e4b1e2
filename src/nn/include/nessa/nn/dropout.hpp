// Inverted dropout: active only in training mode; identity at inference.
#pragma once

#include "nessa/nn/layer.hpp"

namespace nessa::nn {

class Dropout final : public Layer {
 public:
  /// rate in [0, 1): probability of zeroing an activation.
  Dropout(float rate, util::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  void backward(const Tensor& grad_output, Tensor* grad_input) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "dropout"; }

  [[nodiscard]] float rate() const noexcept { return rate_; }

  /// The layer's private mask stream, exposed for checkpoint/restore (the
  /// stream advances every training forward, so bit-identical resume must
  /// save and restore it alongside the trainer's own rng).
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }

 private:
  float rate_;
  util::Rng rng_;
  Tensor mask_;
  bool last_was_train_ = false;
};

}  // namespace nessa::nn
