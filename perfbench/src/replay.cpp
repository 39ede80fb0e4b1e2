#include "replay.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "nessa/core/near_storage.hpp"
#include "nessa/core/train_utils.hpp"
#include "nessa/data/loader.hpp"
#include "nessa/nn/embedding.hpp"
#include "nessa/nn/loss.hpp"
#include "nessa/nn/metrics.hpp"
#include "nessa/nn/optimizer.hpp"
#include "nessa/selection/drivers.hpp"
#include "nessa/util/stats.hpp"

namespace perfbench {

namespace nc = nessa::core;
namespace nn = nessa::nn;
namespace data = nessa::data;
namespace selection = nessa::selection;
using nessa::util::Rng;

namespace {

/// core::train_one_epoch with a span around each step of each batch.
double train_epoch(nn::Sequential& model, nn::Sgd& sgd,
                   const data::Split& split,
                   std::span<const std::size_t> indices,
                   std::span<const double> weights, std::size_t batch_size,
                   Rng& rng, SpanRecorder& spans) {
  if (indices.empty()) return 0.0;
  auto train_span = spans.scope("nn.train");
  data::ShuffledSampler sampler(indices.size(), rng);
  data::LoaderOptions options;
  options.batch_size = batch_size;
  data::Loader loader(split, indices, sampler, options);
  loader.begin_epoch(0);

  nn::SoftmaxCrossEntropy loss_fn;
  double loss_sum = 0.0;
  std::size_t batches = 0;
  while (auto item = loader.next()) {
    const auto& positions = item->positions;
    const std::size_t count = positions.size();
    auto& batch = item->batch;

    model.zero_grads();
    nn::Tensor logits;
    {
      auto s = spans.scope("nn.forward");
      logits = model.forward(batch.features, /*train=*/true);
    }
    nn::LossResult loss;
    nn::Tensor grad;
    {
      auto s = spans.scope("nn.loss");
      loss = loss_fn.forward(logits, batch.labels);
      grad = loss_fn.backward(loss, batch.labels);
    }
    if (!weights.empty()) {
      double wsum = 0.0;
      for (std::size_t i = 0; i < count; ++i) wsum += weights[positions[i]];
      if (wsum > 0.0) {
        const double scale_base = static_cast<double>(count) / wsum;
        for (std::size_t i = 0; i < count; ++i) {
          const auto s =
              static_cast<float>(weights[positions[i]] * scale_base);
          float* row = grad.data() + i * grad.cols();
          for (std::size_t c = 0; c < grad.cols(); ++c) row[c] *= s;
        }
      }
    }
    {
      auto s = spans.scope("nn.backward");
      model.backward(grad);
    }
    {
      auto s = spans.scope("nn.optimizer");
      sgd.step(model.params());
    }
    loss_sum += loss.mean_loss;
    ++batches;
  }
  return batches ? loss_sum / static_cast<double>(batches) : 0.0;
}

double eval_epoch(nn::Sequential& model, const data::Dataset& ds,
                  SpanRecorder& spans) {
  auto s = spans.scope("nn.eval");
  return nn::evaluate(model, ds.test().features, ds.test().labels).accuracy;
}

void add_counts(ReplayOutcome& out, const selection::CoresetResult& coreset) {
  out.selected += coreset.indices.size();
  out.gain_evaluations += coreset.gain_evaluations;
  out.similarity_ops += coreset.similarity_ops;
  out.greedy_ops += coreset.greedy_ops;
}

struct Common {
  Rng rng;
  nn::Sequential model;
  nn::Sgd sgd;
  nn::StepLrSchedule schedule;
};

Common make_common(const nc::PipelineInputs& inputs) {
  Rng rng(inputs.train.seed);
  auto model = nn::build_model(inputs.model, inputs.dataset->feature_dim(),
                               inputs.dataset->num_classes(), rng);
  return Common{std::move(rng), std::move(model), nn::Sgd(inputs.train.sgd),
                inputs.train.scale_lr_schedule
                    ? nn::StepLrSchedule::paper_scaled(inputs.train.epochs)
                    : nn::StepLrSchedule::paper_default()};
}

std::size_t budget(double fraction, std::size_t n) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(fraction * static_cast<double>(n))));
}

/// Mirrors core::detail::run_nessa on the monolithic, fault-free path.
ReplayOutcome replay_nessa(const nc::PipelineInputs& inputs,
                           const nc::NessaConfig& config,
                           nessa::util::Parallelism parallelism,
                           SpanRecorder& spans) {
  const data::Dataset& ds = *inputs.dataset;
  const std::size_t n = ds.train_size();
  Common st = make_common(inputs);
  std::unique_ptr<nc::SelectionModel> kernel;
  {
    auto s = spans.scope("quant.build");
    kernel = nc::make_selection_model(st.model);
  }

  std::vector<std::size_t> pool = nc::iota_indices(n);
  nc::LossHistory history(n, config.loss_window_epochs);
  std::vector<bool> last_correct(n, false);
  double fraction = config.subset_fraction;
  double prev_loss = -1.0;

  selection::DriverConfig selector;
  selector.greedy = config.greedy;
  selector.stochastic_epsilon = config.stochastic_epsilon;
  selector.per_class = true;
  selector.partition_quota = config.partition_quota;
  selector.parallelism = parallelism;

  ReplayOutcome out;
  for (std::size_t epoch = 0; epoch < inputs.train.epochs; ++epoch) {
    auto epoch_span = spans.scope("epoch");
    st.sgd.set_learning_rate(st.schedule.lr_at(epoch));
    selector.seed = inputs.train.seed * 7919 + epoch;
    const std::size_t k = budget(fraction, n);

    nc::QEmbeddings emb;
    {
      auto s = spans.scope("quant.score");
      emb = kernel->score(ds.train(), pool, config.scaled_embeddings,
                          inputs.train.batch_size);
    }
    out.rows_scored += pool.size();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      history.record(pool[i], emb.losses[i]);
      last_correct[pool[i]] = emb.correct[i];
    }
    std::vector<std::int32_t> pool_labels(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pool_labels[i] = ds.train().labels[pool[i]];
    }
    selection::CoresetResult coreset;
    {
      auto s = spans.scope("selection.select");
      coreset = selection::select_coreset(emb.embeddings, pool_labels, pool,
                                          std::min(k, pool.size()), selector);
    }
    add_counts(out, coreset);

    const std::vector<double> weights(coreset.weights.begin(),
                                      coreset.weights.end());
    ReplayEpoch report;
    report.subset_size = coreset.indices.size();
    report.pool_size = pool.size();
    report.train_loss =
        train_epoch(st.model, st.sgd, ds.train(), coreset.indices, weights,
                    inputs.train.batch_size, st.rng, spans);
    report.test_accuracy = eval_epoch(st.model, ds, spans);
    if (config.weight_feedback) {
      auto s = spans.scope("quant.refresh");
      kernel->refresh(st.model);
    }

    if (config.subset_biasing && epoch + 1 < inputs.train.epochs &&
        (epoch + 1) % config.drop_interval_epochs == 0) {
      std::vector<double> means(pool.size());
      for (std::size_t i = 0; i < pool.size(); ++i) {
        means[i] = history.windowed_mean(pool[i]);
      }
      const double threshold =
          nessa::util::percentile_of(means, config.drop_quantile * 100.0);
      const std::size_t min_pool = std::max<std::size_t>(
          k, static_cast<std::size_t>(config.min_pool_factor *
                                      static_cast<double>(k)));
      const std::size_t max_drop =
          pool.size() > min_pool ? pool.size() - min_pool : 0;
      std::vector<std::size_t> kept;
      kept.reserve(pool.size());
      std::size_t dropped = 0;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const bool learned = means[i] <= threshold && last_correct[pool[i]];
        if (learned && dropped < max_drop) {
          ++dropped;
        } else {
          kept.push_back(pool[i]);
        }
      }
      pool = std::move(kept);
    }
    if (config.dynamic_sizing) {
      if (prev_loss > 0.0 && report.train_loss > 0.0) {
        const double drop = (prev_loss - report.train_loss) / prev_loss;
        if (drop > config.shrink_rate) {
          fraction = std::max(config.min_subset_fraction,
                              fraction * (1.0 - config.shrink_step));
        } else if (drop < 0.0) {
          fraction = std::min(config.subset_fraction,
                              fraction / (1.0 - config.shrink_step));
        }
      }
      prev_loss = report.train_loss;
    }
    out.epochs.push_back(report);
  }
  return out;
}

/// Mirrors core::detail::run_full.
ReplayOutcome replay_full(const nc::PipelineInputs& inputs,
                          SpanRecorder& spans) {
  const data::Dataset& ds = *inputs.dataset;
  Common st = make_common(inputs);
  const auto indices = nc::iota_indices(ds.train_size());
  ReplayOutcome out;
  for (std::size_t epoch = 0; epoch < inputs.train.epochs; ++epoch) {
    auto epoch_span = spans.scope("epoch");
    st.sgd.set_learning_rate(st.schedule.lr_at(epoch));
    ReplayEpoch report;
    report.subset_size = indices.size();
    report.pool_size = indices.size();
    report.train_loss = train_epoch(st.model, st.sgd, ds.train(), indices, {},
                                    inputs.train.batch_size, st.rng, spans);
    report.test_accuracy = eval_epoch(st.model, ds, spans);
    out.epochs.push_back(report);
  }
  return out;
}

/// Mirrors core::run_craig.
ReplayOutcome replay_craig(const nc::PipelineInputs& inputs,
                           double subset_fraction, SpanRecorder& spans) {
  const data::Dataset& ds = *inputs.dataset;
  const std::size_t n = ds.train_size();
  Common st = make_common(inputs);
  const std::size_t k = budget(subset_fraction, n);

  selection::DriverConfig selector;
  selector.greedy = selection::GreedyKind::kLazy;
  selector.per_class = true;
  selector.partition_quota = 0;
  const auto all = nc::iota_indices(n);

  ReplayOutcome out;
  for (std::size_t epoch = 0; epoch < inputs.train.epochs; ++epoch) {
    auto epoch_span = spans.scope("epoch");
    st.sgd.set_learning_rate(st.schedule.lr_at(epoch));
    selector.seed = inputs.train.seed * 104729 + epoch;

    nn::EmbeddingResult emb;
    {
      auto s = spans.scope("nn.embed");
      emb = nn::compute_embeddings(st.model, ds.train().features,
                                   ds.train().labels,
                                   nn::EmbeddingKind::kLogitGrad);
    }
    const std::vector<std::int32_t> labels(ds.train().labels.begin(),
                                           ds.train().labels.end());
    selection::CoresetResult coreset;
    {
      auto s = spans.scope("selection.select");
      coreset = selection::select_coreset(emb.embeddings, labels, all, k,
                                          selector);
    }
    add_counts(out, coreset);

    const std::vector<double> weights(coreset.weights.begin(),
                                      coreset.weights.end());
    ReplayEpoch report;
    report.subset_size = coreset.indices.size();
    report.pool_size = n;
    report.train_loss =
        train_epoch(st.model, st.sgd, ds.train(), coreset.indices, weights,
                    inputs.train.batch_size, st.rng, spans);
    report.test_accuracy = eval_epoch(st.model, ds, spans);
    out.epochs.push_back(report);
  }
  return out;
}

}  // namespace

ReplayOutcome replay_training(const nc::PipelineInputs& inputs,
                              const nc::RunConfig& config,
                              SpanRecorder& spans) {
  if (inputs.dataset == nullptr || inputs.stream != nullptr ||
      inputs.model_factory || config.devices != 1 ||
      config.fault_plan.enabled() ||
      config.fault_plan.selection_deadline_factor > 0.0 ||
      !config.checkpoint.dir.empty() || config.train.chunk_samples != 0 ||
      config.nessa.selection_interval != 1) {
    throw std::invalid_argument(
        "replay: config uses a feature the replay does not mirror");
  }
  nc::PipelineInputs staged = inputs;
  staged.train = config.train;
  auto job = spans.scope("job");
  switch (config.pipeline) {
    case nc::PipelineKind::kNessa:
      return replay_nessa(staged, config.nessa, config.parallelism, spans);
    case nc::PipelineKind::kFull:
      return replay_full(staged, spans);
    case nc::PipelineKind::kCraig:
      return replay_craig(staged, config.nessa.subset_fraction, spans);
    default:
      throw std::invalid_argument("replay: pipeline not mirrored");
  }
}

std::vector<std::string> diff_replay(const ReplayOutcome& replay,
                                     const nc::RunResult& result) {
  std::vector<std::string> out;
  if (replay.epochs.size() != result.epochs.size()) {
    out.push_back("replay ran " + std::to_string(replay.epochs.size()) +
                  " epochs, core::run " +
                  std::to_string(result.epochs.size()));
    return out;
  }
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (std::size_t e = 0; e < replay.epochs.size(); ++e) {
    const ReplayEpoch& r = replay.epochs[e];
    const nc::EpochReport& d = result.epochs[e];
    if (!same(r.train_loss, d.train_loss) ||
        !same(r.test_accuracy, d.test_accuracy) ||
        r.subset_size != d.subset_size || r.pool_size != d.pool_size) {
      out.push_back("replay departs from core::run at epoch " +
                    std::to_string(e));
      break;
    }
  }
  return out;
}

}  // namespace perfbench
