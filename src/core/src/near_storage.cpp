#include "nessa/core/near_storage.hpp"

#include <algorithm>
#include <stdexcept>

#include "nessa/nn/embedding.hpp"

namespace nessa::core {

namespace {

/// Score `pool` batch by batch: gather each batch's rows of `split`, run
/// `forward` (batch -> logits + penultimate activation) and apply the
/// shared per-batch embedding math. The gather and label buffers are
/// reused; only the short last batch reallocates the gather buffer.
template <typename Forward>
QEmbeddings score_batches(const data::Split& split,
                          std::span<const std::size_t> pool, bool scaled,
                          std::size_t batch_size, Forward&& forward) {
  const std::size_t n = pool.size();
  const std::size_t dim = split.dim();
  if (batch_size == 0) batch_size = std::max<std::size_t>(1, n);
  QEmbeddings out;
  out.correct.resize(n);
  nn::EmbeddingResult emb;
  tensor::Tensor batch;
  std::vector<nn::Label> labels;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t count = std::min(batch_size, n - start);
    if (batch.rank() != 2 || batch.shape()[0] != count) {
      batch = tensor::Tensor({count, dim});
    }
    labels.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t row = pool[start + i];
      std::copy_n(split.features.data() + row * dim, dim,
                  batch.data() + i * dim);
      labels[i] = split.labels[row];
    }
    const auto& fwd = forward(batch);
    nn::embed_batch(fwd.logits, scaled ? &fwd.penultimate : nullptr, labels,
                    start, n, emb);
    for (std::size_t i = 0; i < count; ++i) {
      out.correct[start + i] =
          static_cast<nn::Label>(emb.preds[start + i]) == labels[i];
    }
  }
  out.embeddings = std::move(emb.embeddings);
  out.losses = std::move(emb.losses);
  return out;
}

class QuantizedSelectionModel final : public SelectionModel {
 public:
  explicit QuantizedSelectionModel(const nn::Sequential& target)
      : qmodel_(quant::QuantizedMlp::from_model(target)) {}

  QEmbeddings score(const data::Split& split,
                    std::span<const std::size_t> pool, bool scaled,
                    std::size_t batch_size) override {
    return compute_q_embeddings(qmodel_, split, pool, scaled, batch_size);
  }

  void refresh(const nn::Sequential& target) override {
    qmodel_.refresh_from(target);
  }

  std::size_t payload_bytes() const override {
    return qmodel_.payload_bytes();
  }

  double mac_cost_factor() const override { return 1.0; }

 private:
  quant::QuantizedMlp qmodel_;
};

class FloatSelectionModel final : public SelectionModel {
 public:
  explicit FloatSelectionModel(const nn::Sequential& target)
      : model_(target.clone()) {}

  QEmbeddings score(const data::Split& split,
                    std::span<const std::size_t> pool, bool scaled,
                    std::size_t batch_size) override {
    return score_batches(split, pool, scaled, batch_size,
                         [&](const tensor::Tensor& batch) {
                           return nn::forward_with_penultimate(model_, batch);
                         });
  }

  void refresh(const nn::Sequential& target) override {
    model_.load_params_from(target);
  }

  std::size_t payload_bytes() const override {
    return model_.parameter_count() * sizeof(float);
  }

  double mac_cost_factor() const override { return 2.0; }

 private:
  nn::Sequential model_;
};

}  // namespace

QEmbeddings compute_q_embeddings(const quant::QuantizedMlp& qmodel,
                                 const data::Split& split,
                                 std::span<const std::size_t> pool,
                                 bool scaled, std::size_t batch_size) {
  quant::QuantizedMlp::Workspace workspace;
  return score_batches(
      split, pool, scaled, batch_size,
      [&](const tensor::Tensor& batch)
          -> const quant::QuantizedMlp::ForwardResult& {
        return qmodel.forward_with_penultimate(batch, workspace);
      });
}

std::unique_ptr<SelectionModel> make_quantized_selection_model(
    const nn::Sequential& target) {
  return std::make_unique<QuantizedSelectionModel>(target);
}

std::unique_ptr<SelectionModel> make_float_selection_model(
    const nn::Sequential& target) {
  return std::make_unique<FloatSelectionModel>(target);
}

std::unique_ptr<SelectionModel> make_selection_model(
    const nn::Sequential& target) {
  try {
    return make_quantized_selection_model(target);
  } catch (const std::invalid_argument&) {
    return make_float_selection_model(target);
  }
}

}  // namespace nessa::core
