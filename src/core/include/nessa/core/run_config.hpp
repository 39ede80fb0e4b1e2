// Unified run configuration — JobSpec + host-side execution options.
//
// The *what to run* half (dataset, pipeline, devices, modeled hardware,
// workload, training and §3.2 knobs, fault plan, checkpoint policy) lives
// in the core::JobSpec base (see job_spec.hpp) — the same validated value
// a fleet job queues. RunConfig adds the *how to execute here* half:
//
//   - execution parallelism           (util::Parallelism),
//   - telemetry export                (TelemetryConfig).
//
// New code builds a RunConfig — typically with the fluent with_*() chain —
// calls validate() once, and hands the same object to core::run() /
// core::simulate() (see run.hpp):
//
//   auto rc = core::RunConfig{}
//                 .with_parallelism(true)
//                 .with_pipeline_epochs(12);
//   rc.nessa.subset_fraction = 0.25;
//   if (auto errors = rc.validate(); !errors.empty()) { ... }
//   auto trace = core::simulate(rc);
//   auto run = core::run(rc);
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "nessa/core/job_spec.hpp"
#include "nessa/util/parallelism.hpp"

namespace nessa::core {

/// Where a run's telemetry goes. `enabled` gates recording entirely (the
/// disabled path is a single relaxed atomic load per instrumented phase);
/// the paths name the artifacts a tool should export afterwards — empty
/// means "record but don't write".
struct TelemetryConfig {
  bool enabled = false;
  std::string trace_path;    ///< Chrome trace-event JSON (chrome://tracing)
  std::string metrics_path;  ///< flat counters/gauges/histograms JSON
};

struct RunConfig : JobSpec {
  util::Parallelism parallelism{};
  TelemetryConfig telemetry{};

  // --- fluent builder -------------------------------------------------
  RunConfig& with_dataset(std::string name, double scale = 0.03) {
    dataset = std::move(name);
    dataset_scale = scale;
    return *this;
  }
  RunConfig& with_pipeline(PipelineKind value) {
    pipeline = value;
    return *this;
  }
  RunConfig& with_devices(std::size_t value) {
    devices = value;
    return *this;
  }
  RunConfig& with_system(smartssd::SystemConfig value) {
    system = std::move(value);
    return *this;
  }
  RunConfig& with_workload(smartssd::EpochWorkload value) {
    workload = value;
    return *this;
  }
  RunConfig& with_train(TrainConfig value) {
    train = value;
    return *this;
  }
  RunConfig& with_nessa(NessaConfig value) {
    nessa = value;
    return *this;
  }
  RunConfig& with_parallelism(util::Parallelism value) {
    parallelism = value;
    return *this;
  }
  RunConfig& with_telemetry(TelemetryConfig value) {
    telemetry = std::move(value);
    return *this;
  }
  RunConfig& with_pipeline_epochs(std::size_t value) {
    pipeline_epochs = value;
    return *this;
  }
  RunConfig& with_perf_model(PerfModelKind value) {
    perf_model = value;
    return *this;
  }
  RunConfig& with_pipeline_options(smartssd::PipelineOptions value) {
    pipeline_options = value;
    return *this;
  }
  RunConfig& with_fault_plan(fault::FaultPlan value) {
    fault_plan = std::move(value);
    return *this;
  }
  RunConfig& with_checkpoint(ckpt::CheckpointConfig value) {
    checkpoint = std::move(value);
    return *this;
  }
  /// Enable checkpointing into `dir` every `every_epochs` epochs.
  RunConfig& with_checkpoint(std::string dir, std::size_t every_epochs = 1) {
    checkpoint.dir = std::move(dir);
    checkpoint.every_epochs = every_epochs;
    return *this;
  }
  /// Resume from the newest valid snapshot in `dir` (and keep
  /// checkpointing there as the resumed run progresses).
  RunConfig& with_resume(std::string dir) {
    checkpoint.dir = std::move(dir);
    checkpoint.resume = true;
    return *this;
  }

  /// Check every field — the JobSpec half plus the host-side options —
  /// and return ALL problems found, one human-readable message each
  /// ("field: why"). Empty means the config is valid. Unlike a throwing
  /// check, this lets a CLI report the complete list at once.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Throws std::invalid_argument listing every validation error (joined
  /// with "; ") if validate() is non-empty.
  void validate_or_throw() const;
};

/// Batch-granular pipeline simulation driven by a RunConfig (validates
/// first); with a checkpoint dir configured it snapshots at every epoch
/// barrier and resumes bit-identically. See run.hpp for the paired
/// core::run() entry point.
smartssd::PipelineTrace simulate(const RunConfig& config);

}  // namespace nessa::core
