#include "pipeline_common.hpp"

#include <algorithm>
#include <cmath>

#include "nessa/data/chunked.hpp"

namespace nessa::core::detail {

ChunkedScore score_pool(SelectionModel& kernel, const data::Split& split,
                        std::span<const std::size_t> pool, bool scaled,
                        std::size_t batch_size, std::size_t chunk_samples,
                        std::size_t stored_bytes_per_sample,
                        const data::ChunkIntegrity* integrity) {
  ChunkedScore out;
  if (chunk_samples == 0 || pool.empty()) {
    out.emb = kernel.score(split, pool, scaled, batch_size);
    return out;
  }

  data::SplitStore store(split, stored_bytes_per_sample);
  data::ChunkedDataset chunks(store, chunk_samples);
  if (integrity != nullptr) {
    chunks.enable_integrity(integrity->policy);
    chunks.set_corruptor(integrity->corruptor);
  }

  out.emb.losses.resize(pool.size());
  out.emb.correct.resize(pool.size());
  std::size_t classes = 0;

  // Walk the pool in EXACTLY the monolithic batch order, fetching chunks as
  // the walk crosses chunk boundaries. Batch composition must be preserved
  // — the int8 kernel quantizes activations per batch, so regrouping rows
  // by chunk would change the math. With an ascending pool (the drivers'
  // invariant) every chunk still holding pool members is fetched exactly
  // once, and fully biased-out chunks are never fetched. Rows landing in a
  // quarantined chunk are excluded (marked in out.excluded, zeros in the
  // outputs); batches form over the surviving rows, so with nothing
  // quarantined the grouping — and the math — is unchanged.
  const std::size_t dim = split.dim();
  constexpr auto kNone = static_cast<std::size_t>(-1);
  std::size_t current = kNone;  // chunk held in the one-deep window
  data::ChunkView view;
  data::Split staging;
  std::vector<float> staged;
  std::vector<std::int32_t> staged_labels;
  std::vector<std::size_t> staged_pos;  // output position per staged row
  staged.reserve(batch_size * dim);
  std::vector<std::size_t> local;

  const auto flush = [&] {
    const std::size_t n = staged_pos.size();
    if (n == 0) return;
    staging.features = tensor::Tensor({n, dim});
    std::copy_n(staged.data(), n * dim, staging.features.data());
    staging.labels.assign(staged_labels.begin(), staged_labels.end());
    local.resize(n);
    for (std::size_t i = 0; i < n; ++i) local[i] = i;
    QEmbeddings part = kernel.score(staging, local, scaled, batch_size);
    if (classes == 0 && part.embeddings.rank() == 2) {
      classes = part.embeddings.cols();
      out.emb.embeddings = tensor::Tensor({pool.size(), classes});
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pos = staged_pos[i];
      out.emb.losses[pos] = part.losses[i];
      out.emb.correct[pos] = part.correct[i];
      std::copy_n(part.embeddings.data() + i * classes, classes,
                  out.emb.embeddings.data() + pos * classes);
    }
    staged.clear();
    staged_labels.clear();
    staged_pos.clear();
  };

  for (std::size_t pos = 0; pos < pool.size(); ++pos) {
    const std::size_t row = pool[pos];
    const std::size_t chunk = chunks.chunk_of(row);
    if (chunk != current) {  // refetches of a revisited chunk are charged
      view = chunks.fetch(chunk);
      current = chunk;
    }
    if (view.quarantined) {
      if (out.excluded.empty()) out.excluded.assign(pool.size(), 0);
      out.excluded[pos] = 1;
      continue;
    }
    const std::size_t offset = row - view.begin;
    staged.insert(staged.end(), view.samples->features.data() + offset * dim,
                  view.samples->features.data() + (offset + 1) * dim);
    staged_labels.push_back(view.samples->labels[offset]);
    staged_pos.push_back(pos);
    if (staged_pos.size() == batch_size) flush();
  }
  flush();
  out.chunk_fetches = chunks.fetches();
  out.integrity = chunks.integrity_stats();
  return out;
}

std::size_t subset_budget(const PipelineInputs& inputs, double fraction) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(
             fraction * static_cast<double>(inputs.dataset->train_size()))));
}

double scale_ratio(const PipelineInputs& inputs) {
  return static_cast<double>(inputs.info.paper_train_size) /
         static_cast<double>(inputs.dataset->train_size());
}

std::size_t paper_count(const PipelineInputs& inputs, double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  return static_cast<std::size_t>(
      std::round(fraction *
                 static_cast<double>(inputs.info.paper_train_size)));
}

}  // namespace nessa::core::detail
