#include "nessa/quant/qmodel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nessa/nn/dense.hpp"
#include "nessa/tensor/ops.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace nessa::quant {

namespace {

/// Walk a Sequential and produce (Dense*, relu_after) pairs, rejecting
/// unsupported layers. Dropout is skipped (inference-only copy).
std::vector<std::pair<const nn::Dense*, bool>> extract_structure(
    const nn::Sequential& model) {
  std::vector<std::pair<const nn::Dense*, bool>> out;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const nn::Layer& layer = model.layer(i);
    const std::string kind = layer.name();
    if (kind == "dense") {
      out.emplace_back(static_cast<const nn::Dense*>(&layer), false);
    } else if (kind == "relu") {
      if (out.empty()) {
        throw std::invalid_argument("QuantizedMlp: ReLU before first Dense");
      }
      out.back().second = true;
    } else if (kind == "dropout") {
      // inference-only: identity
    } else {
      throw std::invalid_argument("QuantizedMlp: unsupported layer " + kind);
    }
  }
  if (out.empty()) {
    throw std::invalid_argument("QuantizedMlp: model has no Dense layers");
  }
  return out;
}

constexpr std::size_t round_up4(std::size_t n) noexcept {
  return (n + 3) & ~std::size_t{3};
}

#if defined(__SSE2__)

/// Make `t` a [rows, cols] tensor, reallocating only when the shape changes.
void ensure_shape(Tensor& t, std::size_t rows, std::size_t cols) {
  const tensor::Shape& s = t.shape();
  if (s.size() != 2 || s[0] != rows || s[1] != cols) t = Tensor({rows, cols});
}

/// max|x| over n floats. Like Tensor::max_abs it ignores NaN; max is
/// associative and commutative, so the lane split is exact.
float max_abs(const float* x, std::size_t n) noexcept {
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 m4 = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m4 = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(x + i), abs_mask), m4);
  }
  alignas(16) float lane[4];
  _mm_store_ps(lane, m4);
  float m = std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

/// quantize_symmetric's clamp(round(x * inv), -127, 127) on four lanes.
/// The clamp comes first: 127 is an integer, so rounding and clamping
/// commute, and the clamped value keeps the truncation in range (an
/// infinite x * inv would otherwise truncate to INT_MIN). std::round is
/// then the truncation stepped one away from zero when the dropped part is
/// at least one half, which sends exact ties away from zero.
inline __m128i quantize4(__m128 x, __m128 inv) noexcept {
  const __m128 y = _mm_min_ps(
      _mm_max_ps(_mm_mul_ps(x, inv), _mm_set1_ps(-127.0f)),
      _mm_set1_ps(127.0f));
  const __m128i t = _mm_cvttps_epi32(y);
  const __m128 rest = _mm_sub_ps(y, _mm_cvtepi32_ps(t));
  const __m128i up = _mm_castps_si128(_mm_cmpge_ps(rest, _mm_set1_ps(0.5f)));
  const __m128i down =
      _mm_castps_si128(_mm_cmple_ps(rest, _mm_set1_ps(-0.5f)));
  return _mm_add_epi32(_mm_sub_epi32(t, up), down);  // masks are 0 or -1
}

/// Quantize one row of n floats into q[0, round_up4(n)). A partial last
/// group reads zero padding; its extra lanes meet zero weight rows only.
void quantize_row(const float* x, std::size_t n, float inv,
                  std::int16_t* q) noexcept {
  const __m128 vinv = _mm_set1_ps(inv);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v = quantize4(_mm_loadu_ps(x + i), vinv);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i), _mm_packs_epi32(v, v));
  }
  if (i < n) {
    alignas(16) float tail[4] = {};
    std::copy(x + i, x + n, tail);
    const __m128i v = quantize4(_mm_load_ps(tail), vinv);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i), _mm_packs_epi32(v, v));
  }
}

/// Pins `v` as computed, so that a target with FMA (NESSA_NATIVE_ARCH)
/// cannot fuse the multiply that produced it into the following add: the
/// scalar path rounds the product before it adds the bias.
inline __m128 rounded(__m128 v) noexcept {
#if defined(__GNUC__)
  asm("" : "+x"(v));
#endif
  return v;
}

constexpr std::size_t kMaxRegs = 8;  // 32 outputs per column block

/// int32 dot products of the quantized row `q` with kRegs * 4 weight
/// columns: per input pair p, pmaddwd multiplies (q[2p], q[2p+1]) with each
/// column's (w[2p][j], w[2p+1][j]) and adds the two products. Integer
/// accumulation is exact, so the order does not matter.
template <std::size_t kRegs>
void dot_block(const std::int16_t* q, std::size_t pairs,
               const std::int16_t* w, std::size_t pair_stride,
               __m128i* acc) noexcept {
  __m128i a[kRegs];
  for (std::size_t r = 0; r < kRegs; ++r) a[r] = _mm_setzero_si128();
  for (std::size_t p = 0; p < pairs; ++p, w += pair_stride) {
    std::int32_t pair;
    std::memcpy(&pair, q + 2 * p, sizeof pair);
    const __m128i x = _mm_set1_epi32(pair);
    const auto* wv = reinterpret_cast<const __m128i*>(w);
    for (std::size_t r = 0; r < kRegs; ++r) {
      a[r] = _mm_add_epi32(a[r], _mm_madd_epi16(x, _mm_loadu_si128(wv + r)));
    }
  }
  for (std::size_t r = 0; r < kRegs; ++r) acc[r] = a[r];
}

using DotBlock = void (*)(const std::int16_t*, std::size_t,
                          const std::int16_t*, std::size_t, __m128i*);
constexpr DotBlock kDotBlocks[kMaxRegs + 1] = {
    nullptr,      dot_block<1>, dot_block<2>, dot_block<3>, dot_block<4>,
    dot_block<5>, dot_block<6>, dot_block<7>, dot_block<8>};

/// One layer over `rows` rows of x ([rows, in], quantized with scale
/// x_scale) into y ([rows, out]): per row, quantize, multiply by the packed
/// weights, then y = float(acc) * rescale, + bias, ReLU. Returns max|y|,
/// the next layer's max_abs.
float fused_layer(const float* x, std::size_t rows, std::size_t in,
                  float x_scale, const std::int16_t* packed, float w_scale,
                  const float* bias, bool relu, std::size_t out,
                  std::int16_t* q, float* y) noexcept {
  const std::size_t out4 = round_up4(out);
  const std::size_t pairs = (in + 1) / 2;
  const float inv = 1.0f / x_scale;
  const __m128 rescale = _mm_set1_ps(x_scale * w_scale);
  const __m128 zero = _mm_setzero_ps();
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 vmax = zero;
  for (std::size_t r = 0; r < rows; ++r, x += in, y += out) {
    quantize_row(x, in, inv, q);
    for (std::size_t j0 = 0; j0 < out4; j0 += 4 * kMaxRegs) {
      const std::size_t regs = std::min(kMaxRegs, (out4 - j0) / 4);
      __m128i acc[kMaxRegs];
      kDotBlocks[regs](q, pairs, packed + 2 * j0, 2 * out4, acc);
      for (std::size_t b = 0; b < regs; ++b) {
        const std::size_t j = j0 + 4 * b;
        __m128 v = _mm_add_ps(
            rounded(_mm_mul_ps(_mm_cvtepi32_ps(acc[b]), rescale)),
            _mm_loadu_ps(bias + j));
        if (relu) v = _mm_max_ps(v, zero);  // -0.0 and NaN become +0.0
        // Padding lanes hold 0 (or NaN, which max ignores): max unchanged.
        vmax = _mm_max_ps(_mm_and_ps(v, abs_mask), vmax);
        if (j + 4 <= out) {
          _mm_storeu_ps(y + j, v);
        } else {
          alignas(16) float lane[4];
          _mm_store_ps(lane, v);
          std::copy_n(lane, out - j, y + j);
        }
      }
    }
  }
  alignas(16) float lane[4];
  _mm_store_ps(lane, vmax);
  return std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
}

#endif  // __SSE2__

}  // namespace

void QuantizedMlp::pack(QLayer& l) {
  const std::size_t in = l.weight.shape[0], out = l.weight.shape[1];
  const std::size_t out4 = round_up4(out);
  l.packed.assign((in + 1) / 2 * out4 * 2, 0);
  for (std::size_t k = 0; k < in; ++k) {
    for (std::size_t j = 0; j < out; ++j) {
      l.packed[(k / 2 * out4 + j) * 2 + k % 2] = l.weight.data[k * out + j];
    }
  }
  l.padded_bias.assign(out4, 0.0f);
  std::copy_n(l.bias.data(), out, l.padded_bias.begin());
}

QuantizedMlp QuantizedMlp::from_model(const nn::Sequential& model) {
  QuantizedMlp q;
  for (const auto& [dense, relu_after] : extract_structure(model)) {
    QLayer ql;
    ql.weight = quantize_symmetric(dense->weight());
    ql.bias = dense->bias();
    ql.relu_after = relu_after;
    pack(ql);
    q.layers_.push_back(std::move(ql));
  }
  return q;
}

void QuantizedMlp::refresh_from(const nn::Sequential& model) {
  auto structure = extract_structure(model);
  if (structure.size() != layers_.size()) {
    throw std::invalid_argument("QuantizedMlp::refresh_from: layer mismatch");
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (structure[i].first->weight().shape() != layers_[i].weight.shape) {
      throw std::invalid_argument("QuantizedMlp::refresh_from: shape mismatch");
    }
    layers_[i].weight = quantize_symmetric(structure[i].first->weight());
    layers_[i].bias = structure[i].first->bias();
    layers_[i].relu_after = structure[i].second;
    pack(layers_[i]);
  }
}

Tensor QuantizedMlp::forward(const Tensor& inputs) const {
  return forward_with_penultimate(inputs).logits;
}

QuantizedMlp::ForwardResult QuantizedMlp::forward_with_penultimate(
    const Tensor& inputs) const {
  Workspace ws;
  forward_with_penultimate(inputs, ws);
  return std::move(ws.result);
}

const QuantizedMlp::ForwardResult& QuantizedMlp::forward_with_penultimate(
    const Tensor& inputs, Workspace& ws) const {
  if (inputs.rank() != 2) {
    throw std::invalid_argument("QuantizedMlp::forward: inputs must be rank 2");
  }
  if (inputs.cols() != input_dim()) {
    throw std::invalid_argument("QuantizedMlp::forward: input width mismatch");
  }
  ForwardResult& out = ws.result;
  const std::size_t n = layers_.size();
#if defined(__SSE2__)
  const std::size_t rows = inputs.rows();
  ensure_shape(out.logits, rows, output_dim());
  ensure_shape(out.penultimate, rows, layers_.back().weight.shape[0]);
  if (n == 1) std::copy_n(inputs.data(), inputs.size(), out.penultimate.data());
  ws.hidden.resize(n < 2 ? 0 : n - 2);
  std::size_t widest = 0;
  for (const auto& l : layers_) widest = std::max(widest, l.weight.shape[0]);
  ws.row.resize(round_up4(widest));

  const float* x = inputs.data();
  float x_max = max_abs(x, inputs.size());
  for (std::size_t i = 0; i < n; ++i) {
    const QLayer& l = layers_[i];
    const std::size_t width = l.weight.shape[1];
    float* y = out.logits.data();
    if (i + 2 == n) {
      y = out.penultimate.data();
    } else if (i + 2 < n) {
      if (ws.hidden[i].size() < rows * width) ws.hidden[i].resize(rows * width);
      y = ws.hidden[i].data();
    }
    // The activation's scale, exactly as quantize_symmetric sets it.
    const float x_scale = x_max > 0.0f ? x_max / 127.0f : 1.0f;
    x_max = fused_layer(x, rows, l.weight.shape[0], x_scale, l.packed.data(),
                        l.weight.scale, l.padded_bias.data(), l.relu_after,
                        width, ws.row.data(), y);
    x = y;
  }
#else
  Tensor x = inputs;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 == n) out.penultimate = x;
    const QLayer& l = layers_[i];
    Tensor y = quantized_matmul(quantize_symmetric(x), l.weight);
    tensor::add_row_vector(y, l.bias);
    if (l.relu_after) y = tensor::relu(y);
    x = std::move(y);
  }
  out.logits = std::move(x);
#endif
  return out;
}

std::size_t QuantizedMlp::payload_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& l : layers_) {
    bytes += l.weight.byte_size();
    bytes += l.bias.size() * sizeof(float);
  }
  return bytes;
}

std::size_t QuantizedMlp::float_payload_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& l : layers_) {
    bytes += l.weight.data.size() * sizeof(float);
    bytes += l.bias.size() * sizeof(float);
  }
  return bytes;
}

std::size_t QuantizedMlp::input_dim() const {
  return layers_.front().weight.shape[0];
}

std::size_t QuantizedMlp::output_dim() const {
  return layers_.back().weight.shape[1];
}

std::size_t QuantizedMlp::macs_per_sample() const noexcept {
  std::size_t macs = 0;
  for (const auto& l : layers_) {
    macs += l.weight.shape[0] * l.weight.shape[1];
  }
  return macs;
}

}  // namespace nessa::quant
