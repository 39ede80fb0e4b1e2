#include "nessa/core/job_spec.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nessa/data/registry.hpp"
#include "nessa/smartssd/gpu_model.hpp"

namespace nessa::core {

const char* to_string(PipelineKind kind) noexcept {
  switch (kind) {
    case PipelineKind::kNessa: return "nessa";
    case PipelineKind::kFull: return "full";
    case PipelineKind::kFullCached: return "full-cached";
    case PipelineKind::kCraig: return "craig";
    case PipelineKind::kKCenter: return "kcenter";
    case PipelineKind::kRandom: return "random";
    case PipelineKind::kLossTopk: return "loss-topk";
  }
  return "?";
}

PipelineKind pipeline_kind_from_string(std::string_view name) {
  if (name == "nessa") return PipelineKind::kNessa;
  if (name == "full") return PipelineKind::kFull;
  if (name == "full-cached") return PipelineKind::kFullCached;
  if (name == "craig") return PipelineKind::kCraig;
  if (name == "kcenter") return PipelineKind::kKCenter;
  if (name == "random") return PipelineKind::kRandom;
  if (name == "loss-topk") return PipelineKind::kLossTopk;
  throw std::invalid_argument(
      "unknown pipeline: " + std::string(name) +
      " (expected nessa|full|full-cached|craig|kcenter|random|loss-topk)");
}

namespace {

void check_system(const smartssd::SystemConfig& sys,
                  std::vector<std::string>& errors) {
  if (sys.p2p_bw_bps <= 0.0) {
    errors.push_back("system.p2p_bw_bps: must be positive");
  }
  if (sys.host_link_bw_bps <= 0.0) {
    errors.push_back("system.host_link_bw_bps: must be positive");
  }
  if (sys.gpu_link_bw_bps <= 0.0) {
    errors.push_back("system.gpu_link_bw_bps: must be positive");
  }
  if (sys.staging_chunk_bytes == 0) {
    errors.push_back("system.staging_chunk_bytes: must be > 0");
  }
  if (sys.gpu.empty()) {
    errors.push_back("system.gpu: GPU name must not be empty");
  } else {
    try {
      (void)smartssd::gpu_spec(sys.gpu);
    } catch (const std::exception& e) {
      errors.push_back("system.gpu: " + std::string(e.what()));
    }
  }
}

void check_workload(const smartssd::EpochWorkload& w,
                    std::vector<std::string>& errors) {
  if (w.batch_size == 0) {
    errors.push_back("workload.batch_size: must be > 0");
  }
  if (w.pool_records == 0) {
    errors.push_back("workload.pool_records: must be > 0");
  }
  if (w.subset_records == 0) {
    errors.push_back("workload.subset_records: must be > 0");
  }
  if (w.subset_records > w.pool_records) {
    errors.push_back(
        "workload.subset_records: must not exceed workload.pool_records");
  }
  if (w.record_bytes == 0) {
    errors.push_back("workload.record_bytes: must be > 0");
  }
}

void check_train(const TrainConfig& t, std::vector<std::string>& errors) {
  if (t.epochs == 0) {
    errors.push_back("train.epochs: must be > 0");
  }
  if (t.batch_size == 0) {
    errors.push_back("train.batch_size: must be > 0");
  }
}

void check_nessa(const NessaConfig& n, std::vector<std::string>& errors) {
  if (n.subset_fraction <= 0.0 || n.subset_fraction > 1.0) {
    errors.push_back("nessa.subset_fraction: must be in (0, 1]");
  }
  if (n.min_subset_fraction <= 0.0 ||
      n.min_subset_fraction > n.subset_fraction) {
    errors.push_back(
        "nessa.min_subset_fraction: must be in (0, subset_fraction]");
  }
  if (n.greedy == selection::GreedyKind::kStochastic &&
      (n.stochastic_epsilon <= 0.0 || n.stochastic_epsilon >= 1.0)) {
    errors.push_back("nessa.stochastic_epsilon: must be in (0, 1)");
  }
  if (n.subset_biasing && n.drop_interval_epochs == 0) {
    errors.push_back(
        "nessa.drop_interval_epochs: must be > 0 when subset_biasing is on");
  }
  if (n.subset_biasing &&
      (n.drop_quantile < 0.0 || n.drop_quantile > 1.0)) {
    errors.push_back("nessa.drop_quantile: must be in [0, 1]");
  }
  if (n.subset_biasing && n.min_pool_factor < 1.0) {
    errors.push_back("nessa.min_pool_factor: must be >= 1");
  }
  if (n.selection_interval == 0) {
    errors.push_back("nessa.selection_interval: must be > 0");
  }
  if (n.dynamic_sizing &&
      (n.shrink_step <= 0.0 || n.shrink_step >= 1.0)) {
    errors.push_back("nessa.shrink_step: must be in (0, 1)");
  }
  if (n.selection_proxy_factor <= 0.0) {
    errors.push_back("nessa.selection_proxy_factor: must be positive");
  }
}

}  // namespace

std::vector<std::string> JobSpec::validate() const {
  std::vector<std::string> errors;
  if (dataset.empty()) {
    errors.push_back("dataset: name must not be empty");
  } else {
    try {
      (void)data::dataset_info(dataset);
    } catch (const std::exception& e) {
      errors.push_back("dataset: " + std::string(e.what()));
    }
  }
  if (!(dataset_scale > 0.0) || dataset_scale > 1.0 ||
      !std::isfinite(dataset_scale)) {
    errors.push_back("dataset_scale: must be in (0, 1]");
  }
  if (devices == 0) {
    errors.push_back("devices: must be >= 1");
  }
  if (devices > 1 && pipeline != PipelineKind::kNessa) {
    errors.push_back("devices: only the nessa pipeline shards across "
                     "multiple SmartSSDs");
  }
  if (devices > 1) {
    // The multi-device pipeline scans the whole pool in one pass and
    // replays no faults: reject what it would otherwise ignore. Crash kill
    // points stay valid; the epoch loop checks them for every pipeline.
    if (train.chunk_samples > 0) {
      errors.push_back("train.chunk_samples: chunked scans need devices == 1");
    }
    if (fault_plan.enabled()) {
      errors.push_back("fault_plan: request faults need devices == 1");
    }
    if (fault_plan.selection_deadline_factor > 0.0) {
      errors.push_back(
          "fault_plan.selection_deadline_factor: needs devices == 1");
    }
    if (fault_plan.has_corruption()) {
      errors.push_back("fault_plan: corrupt directives need devices == 1");
    }
  }
  check_system(system, errors);
  check_workload(workload, errors);
  check_train(train, errors);
  check_nessa(nessa, errors);
  if (pipeline_epochs < 2) {
    errors.push_back("pipeline_epochs: must be >= 2");
  }
  if (pipeline_options.max_inflight == 0) {
    errors.push_back("pipeline_options.max_inflight: must be >= 1");
  }
  if (pipeline_options.fault_plan != nullptr &&
      pipeline_options.fault_plan != &fault_plan) {
    errors.push_back(
        "pipeline_options.fault_plan: set JobSpec::fault_plan instead of "
        "the raw pointer (the entry points wire it up)");
  }
  for (const auto& err : fault_plan.validate()) {
    errors.push_back("fault_plan." + err);
  }
  if (checkpoint.enabled() && checkpoint.every_epochs == 0) {
    errors.push_back(
        "checkpoint.every_epochs: must be > 0 when a checkpoint dir is set");
  }
  if (checkpoint.resume && !checkpoint.enabled()) {
    errors.push_back("checkpoint.resume: requires a checkpoint dir");
  }
  return errors;
}

void JobSpec::validate_or_throw() const {
  const auto errors = validate();
  if (errors.empty()) return;
  std::ostringstream out;
  out << "JobSpec: " << errors.size() << " error(s): ";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out << "; ";
    out << errors[i];
  }
  throw std::invalid_argument(out.str());
}

}  // namespace nessa::core
