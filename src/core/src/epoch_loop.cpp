#include "epoch_loop.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "nessa/ckpt/errors.hpp"
#include "nessa/core/train_utils.hpp"
#include "nessa/fault/crash.hpp"
#include "nessa/nn/dropout.hpp"
#include "nessa/nn/metrics.hpp"
#include "nessa/nn/serialize.hpp"
#include "nessa/telemetry/telemetry.hpp"

namespace nessa::core {

void RunResult::finalize() {
  if (epochs.empty()) return;
  final_accuracy = epochs.back().test_accuracy;
  best_accuracy = 0.0;
  double frac_sum = 0.0;
  total_time = 0;
  for (const auto& e : epochs) {
    best_accuracy = std::max(best_accuracy, e.test_accuracy);
    frac_sum += e.subset_fraction;
    total_time += e.cost.total();
  }
  mean_subset_fraction = frac_sum / static_cast<double>(epochs.size());
  // Round to the nearest picosecond instead of truncating toward zero —
  // at a few epochs the truncation error is a visible fraction of a tick.
  const auto n = static_cast<SimTime>(epochs.size());
  mean_epoch_time = (total_time + n / 2) / n;
}

namespace detail {
namespace {

const PipelineInputs& checked(const PipelineInputs& inputs) {
  if (inputs.dataset == nullptr) {
    throw std::invalid_argument("pipeline: dataset is required");
  }
  if (inputs.train.epochs == 0 || inputs.train.batch_size == 0) {
    throw std::invalid_argument("pipeline: epochs and batch_size must be > 0");
  }
  if (inputs.info.paper_train_size == 0 ||
      inputs.info.stored_bytes_per_sample == 0) {
    throw std::invalid_argument("pipeline: paper-scale metadata is required");
  }
  if (inputs.stream != nullptr && inputs.dataset != &inputs.stream->base()) {
    throw std::invalid_argument(
        "pipeline: with a scenario stream, dataset must be &stream->base()");
  }
  return inputs;
}

/// The substrate target model: the custom factory when provided, else the
/// spec's MLP.
nn::Sequential build_target_model(const PipelineInputs& inputs,
                                  util::Rng& rng) {
  if (inputs.model_factory) return inputs.model_factory(rng);
  return nn::build_model(inputs.model, inputs.dataset->feature_dim(),
                         inputs.dataset->num_classes(), rng);
}

/// |current ∩ previous| / |current| (1.0 when current is empty).
double selection_overlap(std::span<const std::size_t> current,
                         std::span<const std::size_t> previous) {
  if (current.empty()) return 1.0;
  std::unordered_set<std::size_t> prev(previous.begin(), previous.end());
  std::size_t shared = 0;
  for (const std::size_t idx : current) shared += prev.count(idx);
  return static_cast<double>(shared) / static_cast<double>(current.size());
}

/// The state every pipeline carries across epochs.
CommonCkpt capture_common(Trainer& t) {
  CommonCkpt common;
  common.rng = t.rng.state();
  std::ostringstream blob(std::ios::binary);
  nn::save_weights(t.model, blob);
  const std::string bytes = blob.str();
  common.model_blob.assign(bytes.begin(), bytes.end());
  common.velocities = t.sgd.export_velocities(t.model.params());
  for (std::size_t i = 0; i < t.model.layer_count(); ++i) {
    if (auto* dropout = dynamic_cast<nn::Dropout*>(&t.model.layer(i))) {
      common.dropout_rngs.push_back(dropout->rng().state());
    }
  }
  common.partial = t.result;
  common.prev_subset = t.prev_subset;
  return common;
}

/// Overwrite the model weights, SGD velocities, RNG streams (trainer and
/// dropout layers), partial result and overlap baseline. The model already
/// has the snapshot's architecture: it is rebuilt from the seed.
void restore_common(CommonCkpt& common, Trainer& t) {
  nn::Sequential& model = t.model;
  t.rng.set_state(common.rng);
  std::istringstream blob(
      std::string(common.model_blob.begin(), common.model_blob.end()),
      std::ios::binary);
  try {
    nn::load_weights(model, blob);
  } catch (const std::runtime_error& err) {
    throw ckpt::SnapshotError(
        ckpt::SnapshotFault::kBadPayload,
        std::string("snapshot model weights do not load: ") + err.what());
  }
  try {
    t.sgd.import_velocities(model.params(), common.velocities);
  } catch (const std::exception& err) {
    throw ckpt::SnapshotError(
        ckpt::SnapshotFault::kBadPayload,
        std::string("snapshot velocities do not import: ") + err.what());
  }
  std::size_t next_dropout = 0;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    if (auto* dropout = dynamic_cast<nn::Dropout*>(&model.layer(i))) {
      if (next_dropout >= common.dropout_rngs.size()) {
        throw ckpt::SnapshotError(
            ckpt::SnapshotFault::kBadPayload,
            "snapshot holds fewer dropout rng states than the model");
      }
      dropout->rng().set_state(common.dropout_rngs[next_dropout++]);
    }
  }
  if (next_dropout != common.dropout_rngs.size()) {
    throw ckpt::SnapshotError(
        ckpt::SnapshotFault::kBadPayload,
        "snapshot holds more dropout rng states than the model");
  }
  t.result = std::move(common.partial);
  t.prev_subset = std::move(common.prev_subset);
}

}  // namespace

Trainer::Trainer(const PipelineInputs& in, smartssd::SmartSsdSystem& sys)
    : inputs(checked(in)),
      system(sys),
      rng(in.train.seed),
      model(build_target_model(in, rng)),
      sgd(in.train.sgd),
      schedule(in.train.scale_lr_schedule
                   ? nn::StepLrSchedule::paper_scaled(in.train.epochs)
                   : nn::StepLrSchedule::paper_default()),
      perf(make_performance_model(in.perf_model)) {}

RunResult run_epochs(Trainer& t, Selector& selector) {
  const PipelineInputs& inputs = t.inputs;
  const auto n = static_cast<double>(inputs.dataset->train_size());
  CheckpointSession session(
      inputs.checkpoint, selector.tag,
      run_fingerprint(selector.tag, inputs, selector.knob, selector.extra));
  std::size_t start_epoch = 0;
  util::SimTime sim_elapsed = 0;
  if (auto snap = session.restore()) {
    restore_common(snap->common, t);
    selector.restore(t, *snap);
    start_epoch = static_cast<std::size_t>(snap->next_epoch);
    for (const EpochReport& report : t.result.epochs) {
      sim_elapsed += report.cost.total();
    }
  }

  for (std::size_t epoch = start_epoch; epoch < inputs.train.epochs;
       ++epoch) {
    fault::maybe_crash(inputs.fault_plan, epoch, sim_elapsed);
    // The data visible this epoch: the static split, or the scenario
    // stream's view when one is attached (non-stationary workloads).
    const data::Dataset& data =
        inputs.stream != nullptr ? inputs.stream->at(epoch) : *inputs.dataset;
    t.sgd.set_learning_rate(t.schedule.lr_at(epoch));
    const Subset subset = selector.select(t, epoch, data);

    EpochReport report;
    report.epoch = epoch;
    report.subset_size = subset.indices.size();
    report.pool_size = subset.pool_size;
    report.subset_fraction = static_cast<double>(subset.indices.size()) / n;
    report.chunk_fetches = subset.chunk_fetches;
    if (subset.fresh) {
      if (!t.prev_subset.empty()) {
        report.selection_overlap =
            selection_overlap(subset.indices, t.prev_subset);
      }
      t.prev_subset.assign(subset.indices.begin(), subset.indices.end());
    }
    if (inputs.stream != nullptr) {
      const auto histogram = inputs.stream->class_histogram(epoch);
      report.class_mix.assign(histogram.begin(), histogram.end());
    }
    report.train_loss =
        train_one_epoch(t.model, t.sgd, data.train(), subset.indices,
                        subset.weights, inputs.train.batch_size, t.rng);
    report.test_accuracy =
        nn::evaluate(t.model, data.test().features, data.test().labels)
            .accuracy;
    report.cost = selector.end_epoch(t, report);

    sim_elapsed += report.cost.total();
    t.result.epochs.push_back(std::move(report));
    telemetry::count("core.epochs");

    if (session.due(epoch + 1)) {
      TrainerSnapshot snap;
      snap.next_epoch = epoch + 1;
      snap.common = capture_common(t);
      selector.save(t, snap);
      session.save(std::move(snap));
    }
  }
  t.result.finalize();
  return std::move(t.result);
}

}  // namespace detail
}  // namespace nessa::core
