#include "nessa/quant/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nessa::quant {

QuantizedTensor quantize_symmetric(const Tensor& t) {
  QuantizedTensor q;
  q.shape = t.shape();
  q.data.resize(t.size());
  const float max_abs = t.max_abs();
  q.scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  const float inv = 1.0f / q.scale;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const float scaled = std::round(t[i] * inv);
    q.data[i] = static_cast<std::int8_t>(
        std::clamp(scaled, -127.0f, 127.0f));
  }
  return q;
}

Tensor dequantize(const QuantizedTensor& q) {
  Tensor t(q.shape);
  for (std::size_t i = 0; i < q.data.size(); ++i) {
    t[i] = static_cast<float>(q.data[i]) * q.scale;
  }
  return t;
}

float quantization_error(const Tensor& t, const QuantizedTensor& q) {
  if (t.shape() != q.shape) {
    throw std::invalid_argument("quantization_error: shape mismatch");
  }
  float worst = 0.0f;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const float back = static_cast<float>(q.data[i]) * q.scale;
    worst = std::max(worst, std::abs(t[i] - back));
  }
  return worst;
}

Tensor quantized_matmul(const QuantizedTensor& qa, const QuantizedTensor& qb) {
  if (qa.shape.size() != 2 || qb.shape.size() != 2) {
    throw std::invalid_argument("quantized_matmul: operands must be rank 2");
  }
  const std::size_t m = qa.shape[0], k = qa.shape[1];
  const std::size_t k2 = qb.shape[0], n = qb.shape[1];
  if (k != k2) throw std::invalid_argument("quantized_matmul: dim mismatch");
  Tensor out({m, n});
  const float rescale = qa.scale * qb.scale;
  std::vector<std::int32_t> acc(n);
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* arow = qa.data.data() + i * k;
    std::fill(acc.begin(), acc.end(), 0);
    for (std::size_t p = 0; p < k; ++p) {
      const std::int32_t av = arow[p];
      if (av == 0) continue;
      const std::int8_t* brow = qb.data.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        acc[j] += av * static_cast<std::int32_t>(brow[j]);
      }
    }
    float* crow = out.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      crow[j] = static_cast<float>(acc[j]) * rescale;
    }
  }
  return out;
}

}  // namespace nessa::quant
