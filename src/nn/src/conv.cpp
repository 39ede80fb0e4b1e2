#include "nessa/nn/conv.hpp"

#include <cmath>
#include <stdexcept>

#include "nessa/nn/dense.hpp"
#include "nessa/nn/activation.hpp"
#include "nessa/tensor/ops.hpp"

namespace nessa::nn {

namespace {

std::size_t conv_out_extent(std::size_t in, std::size_t kernel,
                            std::size_t stride, std::size_t pad) {
  if (in + 2 * pad < kernel) {
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  }
  return (in + 2 * pad - kernel) / stride + 1;
}

void check_input(const Tensor& input, const ImageDims& dims,
                 const char* who) {
  if (input.rank() != 2 || input.cols() != dims.flat()) {
    throw std::invalid_argument(std::string(who) +
                                ": input does not match image dims");
  }
}

}  // namespace

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(ImageDims in, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad, util::Rng& rng)
    : in_(in), kernel_(kernel), stride_(stride), pad_(pad) {
  if (in.flat() == 0 || out_channels == 0 || kernel == 0 || stride == 0) {
    throw std::invalid_argument("Conv2d: bad geometry");
  }
  out_ = {out_channels, conv_out_extent(in.height, kernel, stride, pad),
          conv_out_extent(in.width, kernel, stride, pad)};
  const std::size_t fan_in = in.channels * kernel * kernel;
  weight_ = Tensor::he_uniform({fan_in, out_channels}, fan_in, rng);
  bias_ = Tensor({out_channels});
  grad_weight_ = Tensor({fan_in, out_channels});
  grad_bias_ = Tensor({out_channels});
}

Tensor Conv2d::im2col(const Tensor& input) const {
  const std::size_t batch = input.rows();
  const std::size_t patch = in_.channels * kernel_ * kernel_;
  Tensor cols({batch * out_.height * out_.width, patch});
  for (std::size_t b = 0; b < batch; ++b) {
    const float* sample = input.data() + b * in_.flat();
    for (std::size_t oh = 0; oh < out_.height; ++oh) {
      for (std::size_t ow = 0; ow < out_.width; ++ow) {
        float* row = cols.data() +
                     ((b * out_.height + oh) * out_.width + ow) * patch;
        std::size_t idx = 0;
        for (std::size_t c = 0; c < in_.channels; ++c) {
          for (std::size_t kh = 0; kh < kernel_; ++kh) {
            const std::ptrdiff_t ih =
                static_cast<std::ptrdiff_t>(oh * stride_ + kh) -
                static_cast<std::ptrdiff_t>(pad_);
            for (std::size_t kw = 0; kw < kernel_; ++kw, ++idx) {
              const std::ptrdiff_t iw =
                  static_cast<std::ptrdiff_t>(ow * stride_ + kw) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ih >= 0 && iw >= 0 &&
                  ih < static_cast<std::ptrdiff_t>(in_.height) &&
                  iw < static_cast<std::ptrdiff_t>(in_.width)) {
                row[idx] = sample[(c * in_.height +
                                   static_cast<std::size_t>(ih)) *
                                      in_.width +
                                  static_cast<std::size_t>(iw)];
              } else {
                row[idx] = 0.0f;
              }
            }
          }
        }
      }
    }
  }
  return cols;
}

Tensor Conv2d::forward(const Tensor& input, bool /*train*/) {
  check_input(input, in_, "Conv2d");
  cached_batch_ = input.rows();
  cached_cols_ = im2col(input);
  Tensor out_mat = tensor::matmul(cached_cols_, weight_);
  tensor::add_row_vector(out_mat, bias_);

  // Reorder [B*OH*OW, OC] -> [B, OC*OH*OW] (CHW per sample).
  const std::size_t hw = out_.height * out_.width;
  Tensor out({cached_batch_, out_.flat()});
  for (std::size_t b = 0; b < cached_batch_; ++b) {
    for (std::size_t p = 0; p < hw; ++p) {
      const float* src = out_mat.data() + (b * hw + p) * out_.channels;
      for (std::size_t oc = 0; oc < out_.channels; ++oc) {
        out(b, oc * hw + p) = src[oc];
      }
    }
  }
  return out;
}

void Conv2d::backward(const Tensor& grad_output, Tensor* grad_input) {
  if (grad_output.rank() != 2 || grad_output.cols() != out_.flat() ||
      grad_output.rows() != cached_batch_) {
    throw std::invalid_argument("Conv2d::backward: bad gradient shape");
  }
  const std::size_t hw = out_.height * out_.width;
  // Reorder to matmul layout [B*OH*OW, OC].
  Tensor gmat({cached_batch_ * hw, out_.channels});
  for (std::size_t b = 0; b < cached_batch_; ++b) {
    for (std::size_t p = 0; p < hw; ++p) {
      float* dst = gmat.data() + (b * hw + p) * out_.channels;
      for (std::size_t oc = 0; oc < out_.channels; ++oc) {
        dst[oc] = grad_output(b, oc * hw + p);
      }
    }
  }

  grad_weight_ += tensor::matmul_at_b(cached_cols_, gmat);
  grad_bias_ += tensor::column_sums(gmat);
  if (!grad_input) return;

  Tensor gcols = tensor::matmul_a_bt(gmat, weight_);

  // col2im: scatter-add patch gradients back to input positions.
  Tensor dx({cached_batch_, in_.flat()});
  const std::size_t patch = in_.channels * kernel_ * kernel_;
  for (std::size_t b = 0; b < cached_batch_; ++b) {
    float* sample = dx.data() + b * in_.flat();
    for (std::size_t oh = 0; oh < out_.height; ++oh) {
      for (std::size_t ow = 0; ow < out_.width; ++ow) {
        const float* row = gcols.data() +
                           ((b * out_.height + oh) * out_.width + ow) * patch;
        std::size_t idx = 0;
        for (std::size_t c = 0; c < in_.channels; ++c) {
          for (std::size_t kh = 0; kh < kernel_; ++kh) {
            const std::ptrdiff_t ih =
                static_cast<std::ptrdiff_t>(oh * stride_ + kh) -
                static_cast<std::ptrdiff_t>(pad_);
            for (std::size_t kw = 0; kw < kernel_; ++kw, ++idx) {
              const std::ptrdiff_t iw =
                  static_cast<std::ptrdiff_t>(ow * stride_ + kw) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ih >= 0 && iw >= 0 &&
                  ih < static_cast<std::ptrdiff_t>(in_.height) &&
                  iw < static_cast<std::ptrdiff_t>(in_.width)) {
                sample[(c * in_.height + static_cast<std::size_t>(ih)) *
                           in_.width +
                       static_cast<std::size_t>(iw)] += row[idx];
              }
            }
          }
        }
      }
    }
  }
  *grad_input = std::move(dx);
}

std::vector<ParamRef> Conv2d::params() {
  return {{"weight", &weight_, &grad_weight_},
          {"bias", &bias_, &grad_bias_}};
}

std::unique_ptr<Layer> Conv2d::clone() const {
  auto copy = std::unique_ptr<Conv2d>(new Conv2d());
  copy->in_ = in_;
  copy->out_ = out_;
  copy->kernel_ = kernel_;
  copy->stride_ = stride_;
  copy->pad_ = pad_;
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  copy->grad_weight_ = Tensor(weight_.shape());
  copy->grad_bias_ = Tensor(bias_.shape());
  return copy;
}

std::size_t Conv2d::flops_per_sample() const {
  return 2 * in_.channels * kernel_ * kernel_ * out_.flat();
}

// ------------------------------------------------------------- AvgPool2d

AvgPool2d::AvgPool2d(ImageDims in) : in_(in) {
  if (in.height % 2 != 0 || in.width % 2 != 0 || in.flat() == 0) {
    throw std::invalid_argument("AvgPool2d: needs even, non-empty extents");
  }
  out_ = {in.channels, in.height / 2, in.width / 2};
}

Tensor AvgPool2d::forward(const Tensor& input, bool /*train*/) {
  check_input(input, in_, "AvgPool2d");
  cached_batch_ = input.rows();
  Tensor out({cached_batch_, out_.flat()});
  for (std::size_t b = 0; b < cached_batch_; ++b) {
    const float* sample = input.data() + b * in_.flat();
    float* dst = out.data() + b * out_.flat();
    for (std::size_t c = 0; c < in_.channels; ++c) {
      for (std::size_t oh = 0; oh < out_.height; ++oh) {
        for (std::size_t ow = 0; ow < out_.width; ++ow) {
          const std::size_t base =
              (c * in_.height + 2 * oh) * in_.width + 2 * ow;
          const float sum = sample[base] + sample[base + 1] +
                            sample[base + in_.width] +
                            sample[base + in_.width + 1];
          dst[(c * out_.height + oh) * out_.width + ow] = sum * 0.25f;
        }
      }
    }
  }
  return out;
}

void AvgPool2d::backward(const Tensor& grad_output, Tensor* grad_input) {
  if (grad_output.cols() != out_.flat() ||
      grad_output.rows() != cached_batch_) {
    throw std::invalid_argument("AvgPool2d::backward: bad gradient shape");
  }
  if (!grad_input) return;
  Tensor dx({cached_batch_, in_.flat()});
  for (std::size_t b = 0; b < cached_batch_; ++b) {
    const float* g = grad_output.data() + b * out_.flat();
    float* dst = dx.data() + b * in_.flat();
    for (std::size_t c = 0; c < in_.channels; ++c) {
      for (std::size_t oh = 0; oh < out_.height; ++oh) {
        for (std::size_t ow = 0; ow < out_.width; ++ow) {
          const float grad =
              g[(c * out_.height + oh) * out_.width + ow] * 0.25f;
          const std::size_t base =
              (c * in_.height + 2 * oh) * in_.width + 2 * ow;
          dst[base] += grad;
          dst[base + 1] += grad;
          dst[base + in_.width] += grad;
          dst[base + in_.width + 1] += grad;
        }
      }
    }
  }
  *grad_input = std::move(dx);
}

std::unique_ptr<Layer> AvgPool2d::clone() const {
  return std::make_unique<AvgPool2d>(in_);
}

// ----------------------------------------------------------- BatchNorm2d

BatchNorm2d::BatchNorm2d(ImageDims in, float momentum, float epsilon)
    : in_(in),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_(Tensor::full({in.channels}, 1.0f)),
      beta_({in.channels}),
      grad_gamma_({in.channels}),
      grad_beta_({in.channels}),
      running_mean_({in.channels}),
      running_var_(Tensor::full({in.channels}, 1.0f)) {
  if (in.flat() == 0) {
    throw std::invalid_argument("BatchNorm2d: empty dims");
  }
}

Tensor BatchNorm2d::forward(const Tensor& input, bool train) {
  check_input(input, in_, "BatchNorm2d");
  const std::size_t batch = input.rows();
  const std::size_t hw = in_.height * in_.width;
  Tensor out({batch, in_.flat()});

  if (train) {
    cached_batch_ = batch;
    batch_mean_ = Tensor({in_.channels});
    batch_inv_std_ = Tensor({in_.channels});
    cached_xhat_ = Tensor({batch, in_.flat()});
    const double count = static_cast<double>(batch * hw);
    for (std::size_t c = 0; c < in_.channels; ++c) {
      double sum = 0.0, sq = 0.0;
      for (std::size_t b = 0; b < batch; ++b) {
        const float* x = input.data() + b * in_.flat() + c * hw;
        for (std::size_t p = 0; p < hw; ++p) {
          sum += x[p];
          sq += static_cast<double>(x[p]) * x[p];
        }
      }
      const double mean = sum / count;
      const double var = std::max(0.0, sq / count - mean * mean);
      batch_mean_[c] = static_cast<float>(mean);
      const float inv_std =
          1.0f / std::sqrt(static_cast<float>(var) + epsilon_);
      batch_inv_std_[c] = inv_std;
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean);
      running_var_[c] = (1.0f - momentum_) * running_var_[c] +
                        momentum_ * static_cast<float>(var);
      for (std::size_t b = 0; b < batch; ++b) {
        const float* x = input.data() + b * in_.flat() + c * hw;
        float* xh = cached_xhat_.data() + b * in_.flat() + c * hw;
        float* y = out.data() + b * in_.flat() + c * hw;
        for (std::size_t p = 0; p < hw; ++p) {
          xh[p] = (x[p] - static_cast<float>(mean)) * inv_std;
          y[p] = gamma_[c] * xh[p] + beta_[c];
        }
      }
    }
  } else {
    for (std::size_t c = 0; c < in_.channels; ++c) {
      const float inv_std = 1.0f / std::sqrt(running_var_[c] + epsilon_);
      for (std::size_t b = 0; b < batch; ++b) {
        const float* x = input.data() + b * in_.flat() + c * hw;
        float* y = out.data() + b * in_.flat() + c * hw;
        for (std::size_t p = 0; p < hw; ++p) {
          y[p] = gamma_[c] * (x[p] - running_mean_[c]) * inv_std + beta_[c];
        }
      }
    }
  }
  return out;
}

void BatchNorm2d::backward(const Tensor& grad_output, Tensor* grad_input) {
  if (grad_output.rows() != cached_batch_ ||
      grad_output.cols() != in_.flat()) {
    throw std::invalid_argument("BatchNorm2d::backward: bad gradient shape");
  }
  const std::size_t batch = cached_batch_;
  const std::size_t hw = in_.height * in_.width;
  const double count = static_cast<double>(batch * hw);
  Tensor dx({batch, in_.flat()});

  for (std::size_t c = 0; c < in_.channels; ++c) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t b = 0; b < batch; ++b) {
      const float* dy = grad_output.data() + b * in_.flat() + c * hw;
      const float* xh = cached_xhat_.data() + b * in_.flat() + c * hw;
      for (std::size_t p = 0; p < hw; ++p) {
        sum_dy += dy[p];
        sum_dy_xhat += static_cast<double>(dy[p]) * xh[p];
      }
    }
    grad_gamma_[c] += static_cast<float>(sum_dy_xhat);
    grad_beta_[c] += static_cast<float>(sum_dy);

    const float scale = gamma_[c] * batch_inv_std_[c] /
                        static_cast<float>(count);
    for (std::size_t b = 0; b < batch; ++b) {
      const float* dy = grad_output.data() + b * in_.flat() + c * hw;
      const float* xh = cached_xhat_.data() + b * in_.flat() + c * hw;
      float* d = dx.data() + b * in_.flat() + c * hw;
      for (std::size_t p = 0; p < hw; ++p) {
        d[p] = scale * (static_cast<float>(count) * dy[p] -
                        static_cast<float>(sum_dy) -
                        xh[p] * static_cast<float>(sum_dy_xhat));
      }
    }
  }
  if (grad_input) *grad_input = std::move(dx);
}

std::vector<ParamRef> BatchNorm2d::params() {
  return {{"gamma", &gamma_, &grad_gamma_}, {"beta", &beta_, &grad_beta_}};
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
  auto copy = std::make_unique<BatchNorm2d>(in_, momentum_, epsilon_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  copy->running_mean_ = running_mean_;
  copy->running_var_ = running_var_;
  return copy;
}

// --------------------------------------------------------- ResidualBlock

ResidualBlock::ResidualBlock(ImageDims in, std::size_t out_channels,
                             std::size_t stride, util::Rng& rng)
    : in_(in) {
  conv1_ = std::make_unique<Conv2d>(in, out_channels, 3, stride, 1, rng);
  const ImageDims mid = conv1_->output_dims();
  bn1_ = std::make_unique<BatchNorm2d>(mid);
  conv2_ = std::make_unique<Conv2d>(mid, out_channels, 3, 1, 1, rng);
  out_ = conv2_->output_dims();
  bn2_ = std::make_unique<BatchNorm2d>(out_);
  if (stride != 1 || out_channels != in.channels) {
    shortcut_ = std::make_unique<Conv2d>(in, out_channels, 1, stride, 0,
                                         rng);
    if (!(shortcut_->output_dims() == out_)) {
      throw std::logic_error("ResidualBlock: shortcut geometry mismatch");
    }
  }
}

Tensor ResidualBlock::forward(const Tensor& input, bool train) {
  check_input(input, in_, "ResidualBlock");
  cached_input_ = input;
  Tensor h = conv1_->forward(input, train);
  h = bn1_->forward(h, train);
  cached_pre1_ = h;
  h = tensor::relu(h);
  h = conv2_->forward(h, train);
  h = bn2_->forward(h, train);
  Tensor sc = shortcut_ ? shortcut_->forward(input, train) : input;
  h += sc;
  cached_sum_ = h;
  return tensor::relu(h);
}

void ResidualBlock::backward(const Tensor& grad_output, Tensor* grad_input) {
  Tensor g = grad_output;
  tensor::relu_backward(g, cached_sum_);

  // Residual path.
  Tensor gr, gb;
  bn2_->backward(g, &gb);
  conv2_->backward(gb, &gr);
  tensor::relu_backward(gr, cached_pre1_);
  bn1_->backward(gr, &gb);
  conv1_->backward(gb, grad_input ? &gr : nullptr);

  // Shortcut path.
  Tensor gs;
  if (shortcut_) shortcut_->backward(g, grad_input ? &gs : nullptr);
  if (!grad_input) return;
  gr += shortcut_ ? gs : g;
  *grad_input = std::move(gr);
}

std::vector<ParamRef> ResidualBlock::params() {
  std::vector<ParamRef> out;
  for (Layer* layer :
       {static_cast<Layer*>(conv1_.get()), static_cast<Layer*>(bn1_.get()),
        static_cast<Layer*>(conv2_.get()), static_cast<Layer*>(bn2_.get()),
        static_cast<Layer*>(shortcut_.get())}) {
    if (!layer) continue;
    for (auto& p : layer->params()) out.push_back(p);
  }
  return out;
}

std::unique_ptr<Layer> ResidualBlock::clone() const {
  auto copy = std::unique_ptr<ResidualBlock>(new ResidualBlock());
  copy->in_ = in_;
  copy->out_ = out_;
  auto clone_conv = [](const std::unique_ptr<Conv2d>& src) {
    return src ? std::unique_ptr<Conv2d>(
                     static_cast<Conv2d*>(src->clone().release()))
               : nullptr;
  };
  auto clone_bn = [](const std::unique_ptr<BatchNorm2d>& src) {
    return std::unique_ptr<BatchNorm2d>(
        static_cast<BatchNorm2d*>(src->clone().release()));
  };
  copy->conv1_ = clone_conv(conv1_);
  copy->bn1_ = clone_bn(bn1_);
  copy->conv2_ = clone_conv(conv2_);
  copy->bn2_ = clone_bn(bn2_);
  copy->shortcut_ = clone_conv(shortcut_);
  return copy;
}

std::size_t ResidualBlock::flops_per_sample() const {
  std::size_t flops =
      conv1_->flops_per_sample() + conv2_->flops_per_sample();
  if (shortcut_) flops += shortcut_->flops_per_sample();
  return flops;
}

// --------------------------------------------------------- mini ResNet

Sequential build_mini_resnet(ImageDims input, std::size_t base_channels,
                             std::size_t num_classes, util::Rng& rng) {
  Sequential m;
  auto stem = std::make_unique<Conv2d>(input, base_channels, 3, 1, 1, rng);
  const ImageDims stem_out = stem->output_dims();
  m.add(std::move(stem));
  m.add(std::make_unique<BatchNorm2d>(stem_out));
  m.add(std::make_unique<Relu>());

  auto block1 =
      std::make_unique<ResidualBlock>(stem_out, base_channels, 1, rng);
  const ImageDims b1_out = block1->output_dims();
  m.add(std::move(block1));
  auto block2 =
      std::make_unique<ResidualBlock>(b1_out, 2 * base_channels, 2, rng);
  const ImageDims b2_out = block2->output_dims();
  m.add(std::move(block2));

  auto pool = std::make_unique<AvgPool2d>(b2_out);
  const ImageDims pooled = pool->output_dims();
  m.add(std::move(pool));
  m.add(std::make_unique<Dense>(pooled.flat(), num_classes, rng));
  return m;
}

}  // namespace nessa::nn
