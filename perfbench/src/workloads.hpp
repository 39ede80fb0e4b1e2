// The benchmark's workloads and the inputs each one builds from a seed.
//
// Three training workloads drive core::run and one drives
// fleet::run_fleet. Each stresses a different layer (see README.md):
//   nessa-cifar10  the paper's system; int8 scoring dominates host time
//   full-cifar10   all-data training; nn/tensor dominates, no selection
//   craig-cifar10  CRAIG; whole-class facility location dominates
//   fleet-preempt  the event engine, fair queues and checkpoint codec
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "nessa/core/run.hpp"
#include "nessa/fleet/fleet_sim.hpp"

namespace perfbench {

enum class Kind { kTraining, kFleet };

struct Workload {
  const char* name = "";
  Kind kind = Kind::kTraining;
  nessa::core::PipelineKind pipeline = nessa::core::PipelineKind::kNessa;
  /// Training: substrate scale (1.0 = the 50,000-sample CIFAR-10 train set).
  double scale = 1.0;
  /// Training: epochs per job. Fleet: simulated epochs per arrival.
  std::size_t epochs = 1;
  /// Fleet: arrivals per run.
  std::size_t jobs = 0;
  /// Set-up repeats before the warm-up job; one more runs before every
  /// timed job.
  std::size_t setup_repeats = 3;
};

[[nodiscard]] const std::vector<Workload>& workloads();

/// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The training job a workload runs: the knobs tools/nessa derives for the
/// same epoch budget (30% subset, partition quota 8, biasing, dynamic
/// sizing, weight feedback, analytic pricing), seeded by `seed`.
[[nodiscard]] nessa::core::RunConfig training_config(const Workload& w,
                                                     std::uint64_t seed);

/// Substrate dataset synthesis, exactly as the self-contained core::run
/// overload does it.
[[nodiscard]] nessa::data::Dataset synthesize(
    const nessa::core::RunConfig& config);

/// Pipeline inputs over a caller-owned dataset (which must outlive them).
[[nodiscard]] nessa::core::PipelineInputs pipeline_inputs(
    const nessa::core::RunConfig& config, const nessa::data::Dataset& dataset);

/// The default 4-SSD / 2-GPU rack with quantum-1 checkpoint preemption, no
/// fault plan and a deferring admission queue.
[[nodiscard]] nessa::fleet::FleetConfig fleet_config(const Workload& w);

/// Eight weighted tenants with seeded Poisson arrivals at 0.16 jobs per
/// simulated second: about 80% of what the rack sustains.
[[nodiscard]] nessa::fleet::PoissonConfig arrival_config(const Workload& w,
                                                         std::uint64_t seed);

}  // namespace perfbench
