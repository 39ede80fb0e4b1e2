// Common inputs for the training pipelines and the pipeline entry points.
//
// Every pipeline couples two scales (see config.hpp): real substrate
// training for accuracy, analytic paper-scale costing for time and bytes.
// All of them run one epoch loop; they differ only in how each epoch's
// subset is chosen and what choosing it costs.
#pragma once

#include <functional>

#include "nessa/core/config.hpp"
#include "nessa/core/cost.hpp"
#include "nessa/core/perf_model.hpp"
#include "nessa/core/run_config.hpp"
#include "nessa/data/dataset.hpp"
#include "nessa/data/registry.hpp"
#include "nessa/data/scenario.hpp"
#include "nessa/nn/model.hpp"
#include "nessa/smartssd/device.hpp"
#include "nessa/smartssd/host_cache.hpp"

namespace nessa::core {

struct PipelineInputs {
  const data::Dataset* dataset = nullptr;  ///< substrate data (required)
  data::DatasetInfo info;                  ///< paper-scale metadata
  nn::ModelSpec model;                     ///< target network spec
  TrainConfig train;
  /// Optional non-stationary workload: when set, every run driver trains
  /// and selects against `stream->at(epoch)` instead of the static
  /// `dataset` (which must be `&stream->base()` so sizes/metadata agree).
  /// The stream's fingerprint is mixed into checkpoint fingerprints, and
  /// per-epoch class histograms land in EpochReport::class_mix.
  const data::scenario::EpochStream* stream = nullptr;
  /// Optional custom target architecture (e.g. a conv mini-ResNet). When
  /// set, it replaces the spec's MLP; the paper-scale FLOP/parameter
  /// numbers still come from `model`. NeSSA's selection kernel falls back
  /// to the float variant automatically when the architecture cannot be
  /// expressed by the int8 MLP kernel.
  std::function<nn::Sequential(util::Rng&)> model_factory;
  /// Which performance model prices the paper-scale epoch costs: the
  /// closed-form analytic fast path (default) or the event-driven
  /// DeviceGraph probe (see perf_model.hpp).
  PerfModelKind perf_model = PerfModelKind::kAnalytic;
  /// Fault schedule for the run (disabled by default). The NeSSA trainer
  /// replays it at epoch granularity (fault::EpochSchedule): P2P outages
  /// re-price the scan over the host path, degraded NAND slows it, FPGA
  /// stalls that blow the selection deadline carry the previous subset
  /// forward as a stale epoch.
  fault::FaultPlan fault_plan{};
  /// Checkpoint/restore (disabled by default): every run driver snapshots
  /// its state into `checkpoint.dir` at epoch boundaries and, with
  /// `checkpoint.resume`, restores the newest valid snapshot and continues
  /// the run bit-identically (same RunResult as an uninterrupted run).
  ckpt::CheckpointConfig checkpoint{};
};

// The unified API is core::run (run.hpp): one validated RunConfig drives
// the run and dispatches on config.pipeline. The two drivers below are its
// internal targets.

namespace detail {

/// Conventional full-dataset training (paper "All Data" / Table 3 "Goal").
/// Internal driver — call core::run with PipelineKind::kFull.
RunResult run_full(const PipelineInputs& inputs,
                   smartssd::SmartSsdSystem& system);

/// NeSSA (§3): near-storage quantized selection + GPU subset training.
/// Internal driver — call core::run with PipelineKind::kNessa.
RunResult run_nessa(const PipelineInputs& inputs, const NessaConfig& config,
                    smartssd::SmartSsdSystem& system);

}  // namespace detail

/// CRAIG [20]: float-model gradient embeddings + per-class facility
/// location, selection on the host CPU each epoch, weighted subset SGD.
RunResult run_craig(const PipelineInputs& inputs, double subset_fraction,
                    smartssd::SmartSsdSystem& system);

/// K-centers [17]: greedy k-center over penultimate features, selection on
/// the host CPU each epoch, unweighted subset SGD.
RunResult run_kcenter(const PipelineInputs& inputs, double subset_fraction,
                      smartssd::SmartSsdSystem& system);

/// Uniform random subset each epoch.
RunResult run_random(const PipelineInputs& inputs, double subset_fraction,
                     smartssd::SmartSsdSystem& system);

/// Full-data training behind a SHADE/iCache-style host cache [22, 23]:
/// same gradient work as run_full, but cache hits skip the storage read +
/// decode path. The comparison the paper's intro makes: caching trims I/O
/// time, NeSSA removes both the I/O *and* most of the gradient work.
RunResult run_full_cached(const PipelineInputs& inputs,
                          const smartssd::HostCache& cache,
                          smartssd::SmartSsdSystem& system);

/// "Biggest losers" baseline [19]: trains on the top-k highest-loss
/// examples each epoch (host-side loss scan, no submodular structure).
RunResult run_loss_topk(const PipelineInputs& inputs, double subset_fraction,
                        smartssd::SmartSsdSystem& system);

/// Multi-SmartSSD scaling (the paper's §5 future work): the dataset is
/// sharded across `devices` identical SmartSSDs; each runs the quantized
/// scan and a local GreeDi round over its shard in parallel, a merge device
/// re-selects over the union, and the GPU trains on the final subset.
struct MultiDeviceConfig {
  std::size_t devices = 2;
};

/// `system` models ONE device (they are identical); per-device phases run
/// in parallel so the simulated scan/forward time divides by the device
/// count, while merge communication and feedback broadcast grow with it.
RunResult run_nessa_multi(const PipelineInputs& inputs,
                          const NessaConfig& config,
                          const MultiDeviceConfig& multi,
                          smartssd::SmartSsdSystem& system);

}  // namespace nessa::core
