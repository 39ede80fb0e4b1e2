// The quantized copy of the target model that lives on the SmartSSD FPGA.
//
// Extracted from a float Sequential (Dense/ReLU MLP structure), this holds
// int8 weights + float biases and runs the forward pass with int8 GEMMs and
// dynamically quantized activations — the compute the selection kernel
// performs near storage. refresh_from() implements the §3.2.1 feedback step:
// after each GPU round the updated weights are re-quantized in place.
//
// The forward pass is one fused pass per layer (SSE2): each activation row
// is quantized in one vector pass, multiplied against weights packed once
// per refresh as int16 pairs (pmaddwd), and a single epilogue rescales,
// adds the bias, applies ReLU and tracks the max|x| that sets the next
// layer's scale. It reproduces the scalar composition quantize_symmetric ->
// quantized_matmul -> add_row_vector -> relu bit for bit, which is also
// what a build without SSE2 runs. See docs/performance.md.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nessa/nn/loss.hpp"
#include "nessa/nn/model.hpp"
#include "nessa/quant/quantize.hpp"

namespace nessa::quant {

using nn::Label;

class QuantizedMlp {
 public:
  /// Snapshot the Dense layers of a float model (non-Dense layers must be
  /// ReLU/Dropout; Dropout is dropped — inference only). Throws if the model
  /// contains an unsupported layer kind.
  static QuantizedMlp from_model(const nn::Sequential& model);

  /// Re-quantize from updated float weights (architecture must match the
  /// one captured at construction).
  void refresh_from(const nn::Sequential& model);

  /// Quantized forward pass: inputs [B, in] -> logits [B, out].
  [[nodiscard]] Tensor forward(const Tensor& inputs) const;

  /// Forward pass that also returns the activation entering the final layer
  /// (for scaled gradient embeddings).
  struct ForwardResult {
    Tensor logits;
    Tensor penultimate;
  };
  [[nodiscard]] ForwardResult forward_with_penultimate(
      const Tensor& inputs) const;

  /// Buffers one forward pass needs, kept across calls so that scoring a
  /// pool batch by batch allocates only when the batch size changes.
  struct Workspace {
    ForwardResult result;
    // Outputs of every layer but the last two (those land in `result`),
    // and one quantized input row.
    std::vector<std::vector<float>> hidden;
    std::vector<std::int16_t> row;
  };
  /// forward_with_penultimate into `ws`; the result stays valid until the
  /// next call with the same workspace.
  const ForwardResult& forward_with_penultimate(const Tensor& inputs,
                                                Workspace& ws) const;

  /// Bytes shipped over the link for one weight refresh (int8 payload +
  /// scales + float biases). This is what the feedback loop charges.
  [[nodiscard]] std::size_t payload_bytes() const noexcept;

  /// Equivalent float32 payload (what a non-quantized feedback would cost).
  [[nodiscard]] std::size_t float_payload_bytes() const noexcept;

  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] std::size_t input_dim() const;
  [[nodiscard]] std::size_t output_dim() const;

  /// Multiply-accumulate ops per sample for one forward pass; feeds the FPGA
  /// compute-time model.
  [[nodiscard]] std::size_t macs_per_sample() const noexcept;

 private:
  struct QLayer {
    QuantizedTensor weight;  // [in, out], int8 — the refresh payload
    Tensor bias;             // [out], float
    bool relu_after = false;
    // Kernel copies, rebuilt with `weight`: the weights as int16 pairs
    // [ceil(in/2)][out4][2] and the bias, out padded to a multiple of 4.
    std::vector<std::int16_t> packed;
    std::vector<float> padded_bias;
  };
  static void pack(QLayer& layer);

  std::vector<QLayer> layers_;
};

}  // namespace nessa::quant
