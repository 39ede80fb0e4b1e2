#include "workloads.hpp"

#include <algorithm>

#include "nessa/data/registry.hpp"
#include "nessa/nn/model.hpp"

namespace perfbench {

using nessa::core::PipelineKind;

const std::vector<Workload>& workloads() {
  // Epoch and job counts size one job at roughly 0.2-2 s of host time, so a
  // run of 25 s holds ten or more jobs to take the best of. nessa runs 4
  // epochs so that subset biasing (every 3rd epoch) and dynamic sizing act.
  static const std::vector<Workload> all = {
      {"nessa-cifar10", Kind::kTraining, PipelineKind::kNessa, 1.0, 4, 0, 3},
      {"full-cifar10", Kind::kTraining, PipelineKind::kFull, 1.0, 2, 0, 3},
      {"craig-cifar10", Kind::kTraining, PipelineKind::kCraig, 0.3, 3, 0, 3},
      {"fleet-preempt", Kind::kFleet, PipelineKind::kNessa, 0.0, 4, 50000,
       10},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

nessa::core::RunConfig training_config(const Workload& w, std::uint64_t seed) {
  nessa::core::RunConfig rc;
  rc.dataset = "CIFAR-10";
  rc.dataset_scale = w.scale;
  rc.pipeline = w.pipeline;
  rc.train.epochs = w.epochs;
  rc.train.batch_size = 128;
  rc.train.seed = seed;
  rc.nessa.subset_fraction = 0.3;
  rc.nessa.partition_quota = 8;
  rc.nessa.drop_interval_epochs = std::max<std::size_t>(3, w.epochs / 4);
  rc.nessa.loss_window_epochs = std::max<std::size_t>(2, w.epochs / 40);
  return rc;
}

nessa::data::Dataset synthesize(const nessa::core::RunConfig& config) {
  return nessa::data::make_substrate_dataset(
      nessa::data::dataset_info(config.dataset), config.dataset_scale, 0,
      config.train.seed);
}

nessa::core::PipelineInputs pipeline_inputs(
    const nessa::core::RunConfig& config, const nessa::data::Dataset& dataset) {
  nessa::core::PipelineInputs inputs;
  inputs.dataset = &dataset;
  inputs.info = nessa::data::dataset_info(config.dataset);
  inputs.model = nessa::nn::model_spec(inputs.info.paper_network);
  inputs.train = config.train;
  return inputs;
}

nessa::fleet::FleetConfig fleet_config(const Workload& w) {
  nessa::fleet::FleetConfig config;
  config.devices = 4;
  config.gpus = 2;
  config.jobs_per_device = 4;
  config.queue_capacity = 64;
  config.policy = nessa::fleet::AdmissionPolicy::kDefer;
  config.preempt_quantum_epochs = 1;
  config.job.pipeline = w.pipeline;
  config.job.pipeline_epochs = w.epochs;
  return config;
}

nessa::fleet::PoissonConfig arrival_config(const Workload& w,
                                           std::uint64_t seed) {
  nessa::fleet::PoissonConfig poisson;
  poisson.rate_per_s = 0.16;
  poisson.jobs = w.jobs;
  poisson.tenants = 8;
  poisson.seed = seed;
  return poisson;
}

}  // namespace perfbench
