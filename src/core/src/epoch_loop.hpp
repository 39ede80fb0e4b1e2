// The one epoch loop every training pipeline runs (paper Fig. 3: select,
// train on the subset, feed the weights back, repeat).
//
// The loop owns what all pipelines share: the input checks, the RNG, the
// substrate model, SGD and its LR schedule, the performance model, the
// checkpoint session and its kill points, the EpochReport, training,
// evaluation, simulated-time accounting and finalize(). A pipeline is a
// Selector: it chooses each epoch's subset, prices the epoch at paper scale
// and carries whatever extra state it needs across a checkpoint.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nessa/core/pipeline.hpp"
#include "nessa/nn/optimizer.hpp"
#include "trainer_ckpt.hpp"

namespace nessa::core::detail {

/// The state of one run, shared by the loop and its Selector.
struct Trainer {
  /// Validates `inputs` (std::invalid_argument) and builds the model from
  /// the seeded RNG.
  Trainer(const PipelineInputs& inputs, smartssd::SmartSsdSystem& system);

  const PipelineInputs& inputs;
  smartssd::SmartSsdSystem& system;
  util::Rng rng;
  nn::Sequential model;
  nn::Sgd sgd;
  nn::StepLrSchedule schedule;
  std::unique_ptr<PerformanceModel> perf;
  RunResult result;
  /// The last freshly chosen subset: the selection-overlap baseline.
  std::vector<std::size_t> prev_subset;
};

/// One epoch's training set. The spans point into the Selector's storage
/// and stay valid until its next select().
struct Subset {
  std::span<const std::size_t> indices;
  std::span<const double> weights;  ///< empty = unweighted SGD
  std::size_t pool_size = 0;
  /// Chosen this epoch. A carried-forward subset, or the whole dataset,
  /// reports an overlap of 1.0 and leaves the overlap baseline as it was.
  bool fresh = true;
  std::uint64_t chunk_fetches = 0;
};

/// A pipeline: how it chooses each epoch's subset and what an epoch costs.
class Selector {
 public:
  /// `tag`, `knob` and `extra` bind the pipeline's snapshots to its runs
  /// (see run_fingerprint).
  explicit Selector(std::string tag, double knob = 0.0,
                    std::uint64_t extra = 0)
      : tag(std::move(tag)), knob(knob), extra(extra) {}

  /// Choose the training set of `epoch` from `data`, the data visible in
  /// that epoch.
  virtual Subset select(Trainer& t, std::size_t epoch,
                        const data::Dataset& data) = 0;
  /// After training and evaluation: feed the weights back, price the epoch
  /// at paper scale, account its bytes and update cross-epoch state.
  virtual EpochCost end_epoch(Trainer& t, const EpochReport& report) = 0;
  /// State beyond the loop's own. restore() runs after the loop restored
  /// the common section.
  virtual void save(const Trainer&, TrainerSnapshot&) const {}
  virtual void restore(Trainer&, TrainerSnapshot&) {}

  const std::string tag;
  const double knob;
  const std::uint64_t extra;
};

/// Run (or resume, per inputs.checkpoint) the pipeline to its last epoch.
RunResult run_epochs(Trainer& t, Selector& selector);

/// Build a Trainer and a `S(trainer, args...)` selector, then run them.
template <typename S, typename... Args>
RunResult run_pipeline(const PipelineInputs& inputs,
                       smartssd::SmartSsdSystem& system, Args&&... args) {
  Trainer trainer(inputs, system);
  S selector(trainer, std::forward<Args>(args)...);
  return run_epochs(trainer, selector);
}

}  // namespace nessa::core::detail
