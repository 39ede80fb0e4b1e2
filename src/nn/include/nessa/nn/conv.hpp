// Convolutional layers for image-shaped inputs, enabling ResNet-style
// substrate targets (the paper's networks) instead of MLP stand-ins.
//
// Inputs stay rank-2 [batch, C*H*W] at the Sequential interface (row-major
// CHW per sample); each layer carries its spatial geometry. Convolution is
// im2col + GEMM, the standard lowering, so it reuses the blocked matmul.
#pragma once

#include "nessa/nn/layer.hpp"
#include "nessa/nn/model.hpp"

namespace nessa::nn {

/// Spatial geometry of an activation tensor.
struct ImageDims {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;

  [[nodiscard]] std::size_t flat() const noexcept {
    return channels * height * width;
  }
  friend bool operator==(const ImageDims&, const ImageDims&) = default;
};

/// 2D convolution, stride `stride`, symmetric zero padding `pad`,
/// kernel k x k. He-uniform weight init, zero bias.
class Conv2d final : public Layer {
 public:
  Conv2d(ImageDims in, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, util::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  void backward(const Tensor& grad_output, Tensor* grad_input) override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "conv2d"; }
  [[nodiscard]] std::size_t flops_per_sample() const override;

  [[nodiscard]] ImageDims input_dims() const noexcept { return in_; }
  [[nodiscard]] ImageDims output_dims() const noexcept { return out_; }
  [[nodiscard]] const Tensor& weight() const noexcept { return weight_; }
  [[nodiscard]] Tensor& weight() noexcept { return weight_; }

 private:
  Conv2d() = default;

  /// im2col: [B, C*H*W] -> [B*OH*OW, C*k*k] patches.
  Tensor im2col(const Tensor& input) const;

  ImageDims in_{};
  ImageDims out_{};
  std::size_t kernel_ = 0;
  std::size_t stride_ = 0;
  std::size_t pad_ = 0;
  Tensor weight_;       // [C*k*k, out_channels]
  Tensor bias_;         // [out_channels]
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_cols_;  // [B*OH*OW, C*k*k]
  std::size_t cached_batch_ = 0;
};

/// 2x2 average pooling (stride 2). Keeps backward trivial and is what the
/// mini-ResNet uses for downsampling before the classifier head.
class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(ImageDims in);

  Tensor forward(const Tensor& input, bool train) override;
  void backward(const Tensor& grad_output, Tensor* grad_input) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "avgpool2d"; }

  [[nodiscard]] ImageDims output_dims() const noexcept { return out_; }

 private:
  ImageDims in_{};
  ImageDims out_{};
  std::size_t cached_batch_ = 0;
};

/// Per-channel batch normalization over [B, C, H, W] activations with
/// learnable scale/shift and running statistics for inference.
class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(ImageDims in, float momentum = 0.1f,
                       float epsilon = 1e-5f);

  Tensor forward(const Tensor& input, bool train) override;
  void backward(const Tensor& grad_output, Tensor* grad_input) override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "batchnorm2d"; }

 private:
  ImageDims in_{};
  float momentum_;
  float epsilon_;
  Tensor gamma_;  // [C]
  Tensor beta_;   // [C]
  Tensor grad_gamma_;
  Tensor grad_beta_;
  Tensor running_mean_;  // [C]
  Tensor running_var_;   // [C]
  // Cached train-mode statistics for backward.
  Tensor cached_xhat_;   // [B, C*H*W]
  Tensor batch_mean_;    // [C]
  Tensor batch_inv_std_; // [C]
  std::size_t cached_batch_ = 0;
};

/// Pre-activation-free basic residual block:
///   y = ReLU( BN(Conv(BN(Conv(x)) after ReLU)) + shortcut(x) )
/// with an optional 1x1 strided projection shortcut when geometry changes.
class ResidualBlock final : public Layer {
 public:
  /// stride 1 keeps geometry; stride 2 halves H/W (projection shortcut).
  ResidualBlock(ImageDims in, std::size_t out_channels, std::size_t stride,
                util::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  void backward(const Tensor& grad_output, Tensor* grad_input) override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "residual"; }
  [[nodiscard]] std::size_t flops_per_sample() const override;

  [[nodiscard]] ImageDims output_dims() const noexcept { return out_; }

 private:
  ResidualBlock() = default;

  ImageDims in_{};
  ImageDims out_{};
  std::unique_ptr<Conv2d> conv1_;
  std::unique_ptr<BatchNorm2d> bn1_;
  std::unique_ptr<Conv2d> conv2_;
  std::unique_ptr<BatchNorm2d> bn2_;
  std::unique_ptr<Conv2d> shortcut_;  // null when identity
  Tensor cached_pre1_;                // conv1+bn1 pre-activation
  Tensor cached_sum_;                 // residual sum pre-activation
  Tensor cached_input_;
};

/// A small ResNet for image-shaped substrate data:
///   Conv(3x3, base) -> BN -> ReLU
///   -> ResidualBlock(base) -> ResidualBlock(2*base, stride 2)
///   -> AvgPool(2x2) -> Dense(classes)
Sequential build_mini_resnet(ImageDims input, std::size_t base_channels,
                             std::size_t num_classes, util::Rng& rng);

}  // namespace nessa::nn
