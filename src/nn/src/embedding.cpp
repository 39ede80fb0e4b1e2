#include "nessa/nn/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nessa/tensor/ops.hpp"

namespace nessa::nn {

PenultimateForward forward_with_penultimate(Sequential& model,
                                            const Tensor& inputs) {
  // Find the index of the last layer that has parameters (the classifier
  // head); capture its input during a manual forward walk.
  std::size_t head = model.layer_count();
  for (std::size_t i = model.layer_count(); i-- > 0;) {
    if (!model.layer(i).params().empty()) {
      head = i;
      break;
    }
  }
  if (head == model.layer_count()) {
    throw std::logic_error("forward_with_penultimate: model has no parameters");
  }
  PenultimateForward out;
  Tensor x = inputs;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    if (i == head) out.penultimate = x;
    x = model.layer(i).forward(x, /*train=*/false);
  }
  out.logits = std::move(x);
  return out;
}

void embed_batch(const Tensor& logits, const Tensor* penultimate,
                 std::span<const Label> labels, std::size_t offset,
                 std::size_t total, EmbeddingResult& out) {
  const std::size_t classes = logits.cols();
  if (out.embeddings.rank() == 0) {
    out.embeddings = Tensor({total, classes});
    out.losses.resize(total);
    out.preds.resize(total);
  }
  const auto loss = SoftmaxCrossEntropy{}.forward(logits, labels);
  const auto preds = tensor::argmax_rows(loss.probs);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out.losses[offset + i] = loss.example_losses[i];
    out.preds[offset + i] = preds[i];
    float scale = 1.0f;
    if (penultimate != nullptr) {
      scale = std::max(tensor::l2_norm(penultimate->row(i)), 1e-6f);
    }
    const float* probs = loss.probs.data() + i * classes;
    float* dst = out.embeddings.data() + (offset + i) * classes;
    for (std::size_t c = 0; c < classes; ++c) {
      const float onehot = (static_cast<Label>(c) == labels[i]) ? 1.0f : 0.0f;
      dst[c] = (probs[c] - onehot) * scale;
    }
  }
}

EmbeddingResult compute_embeddings(Sequential& model, const Tensor& inputs,
                                   std::span<const Label> labels,
                                   EmbeddingKind kind, std::size_t batch_size) {
  if (inputs.rank() != 2) {
    throw std::invalid_argument("compute_embeddings: inputs must be rank 2");
  }
  const std::size_t n = inputs.rows();
  const std::size_t dim = inputs.cols();
  if (labels.size() != n) {
    throw std::invalid_argument("compute_embeddings: label count mismatch");
  }
  if (batch_size == 0) batch_size = n;

  EmbeddingResult result;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t count = std::min(batch_size, n - start);
    Tensor batch({count, dim});
    std::copy_n(inputs.data() + start * dim, count * dim, batch.data());
    const auto batch_labels = labels.subspan(start, count);
    if (kind == EmbeddingKind::kScaledLogitGrad) {
      const auto fwd = forward_with_penultimate(model, batch);
      embed_batch(fwd.logits, &fwd.penultimate, batch_labels, start, n,
                  result);
    } else {
      embed_batch(model.forward(batch, /*train=*/false), nullptr,
                  batch_labels, start, n, result);
    }
  }
  return result;
}

}  // namespace nessa::nn
