// The traced replay of a training job.
//
// replay_training() runs the same job core::run runs for the nessa, full
// and craig pipelines, but epoch by epoch through each layer's public
// functions, with a span around every call:
//
//   job                      one replayed job
//     quant.build            core::make_selection_model (nessa)
//     epoch                  one epoch; its self time is the glue
//       quant.score          SelectionModel::score (nessa)
//       nn.embed             nn::compute_embeddings (craig)
//       selection.select     selection::select_coreset (nessa, craig)
//       nn.train             one epoch of SGD over a data::Loader
//         nn.forward         Sequential::forward
//         nn.loss            SoftmaxCrossEntropy forward + backward
//         nn.backward        Sequential::backward
//         nn.optimizer       Sgd::step
//       nn.eval              nn::evaluate
//       quant.refresh        SelectionModel::refresh (nessa)
//
// The replay mirrors the trainers' epoch logic (subset biasing, dynamic
// sizing, weighted SGD), so it reproduces core::run's per-epoch losses,
// accuracies and subset sizes bit for bit; diff_replay() checks that. If a
// trainer changes and the replay no longer matches it, the traced run says
// so instead of attributing time to work core::run no longer does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nessa/core/run.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayEpoch {
  double train_loss = 0.0;
  double test_accuracy = 0.0;
  std::size_t subset_size = 0;
  std::size_t pool_size = 0;
};

struct ReplayOutcome {
  std::vector<ReplayEpoch> epochs;
  std::uint64_t rows_scored = 0;       ///< candidate rows the kernel scored
  std::uint64_t selected = 0;          ///< examples the selector returned
  std::uint64_t gain_evaluations = 0;  ///< summed over epochs
  std::uint64_t similarity_ops = 0;
  std::uint64_t greedy_ops = 0;
};

/// Replay `config`'s job on `inputs` with spans recorded into `spans`.
/// Throws std::invalid_argument for a config outside what the replay
/// mirrors (other pipelines, several devices, a fault plan, checkpoints,
/// chunked scans, scenario streams, custom models or a selection interval
/// above 1).
[[nodiscard]] ReplayOutcome replay_training(
    const nessa::core::PipelineInputs& inputs,
    const nessa::core::RunConfig& config, SpanRecorder& spans);

/// Where the replay departs from core::run's result; empty when every
/// epoch's loss, accuracy, subset size and pool size match exactly.
[[nodiscard]] std::vector<std::string> diff_replay(
    const ReplayOutcome& replay, const nessa::core::RunResult& result);

}  // namespace perfbench
