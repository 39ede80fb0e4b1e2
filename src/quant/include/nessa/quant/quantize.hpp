// Int8 tensor quantization (NeSSA contribution #2: "Quantize the selection
// model for high selection speed").
//
// The FPGA-side selection model runs the target network's forward pass with
// int8 weights: after each GPU training round, weights are quantized and
// shipped back over the P2P link (§3.2.1), cutting both FPGA compute cost
// and feedback-transfer bytes by 4x vs float32.
//
// Symmetric per-tensor quantization: q = clamp(round(x / scale), -127, 127),
// scale = max|x| / 127. Zero maps exactly to 0, which the sparse-friendly
// GEMM path relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "nessa/tensor/tensor.hpp"

namespace nessa::quant {

using tensor::Shape;
using tensor::Tensor;

struct QuantizedTensor {
  Shape shape;
  std::vector<std::int8_t> data;
  float scale = 1.0f;  ///< dequant: x ~= scale * q

  [[nodiscard]] std::size_t size() const noexcept { return data.size(); }
  /// Payload bytes when shipped over a link (int8 data + scale).
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return data.size() * sizeof(std::int8_t) + sizeof(float);
  }
};

/// Symmetric per-tensor int8 quantization.
QuantizedTensor quantize_symmetric(const Tensor& t);

/// Dequantize back to float32.
Tensor dequantize(const QuantizedTensor& q);

/// Max elementwise |x - dequant(quant(x))|; bounded by scale/2.
float quantization_error(const Tensor& t, const QuantizedTensor& q);

/// Int8 x int8 -> int32 GEMM with float rescale:
/// out(mxn) = dequant( qa(mxk) * qb(kxn) ), out_scale = qa.scale * qb.scale.
Tensor quantized_matmul(const QuantizedTensor& qa, const QuantizedTensor& qb);

}  // namespace nessa::quant
