// Output checks. Each returns a list of problems; empty means the output
// passed. The benchmark counts a failed check as a failed operation and
// reports `correct: false`; it never aborts the run over one.
#pragma once

#include <string>
#include <vector>

#include "metrics.hpp"
#include "nessa/core/cost.hpp"
#include "nessa/fleet/fleet_sim.hpp"

namespace perfbench {

/// Bit-level comparison of two training results: every per-epoch field
/// (loss, accuracy, subset and pool size, overlap, simulated cost) and
/// every run-level aggregate. A repeat of a deterministic job must match
/// its first run exactly.
[[nodiscard]] std::vector<std::string> diff_run_results(
    const nessa::core::RunResult& expected,
    const nessa::core::RunResult& actual);

/// Range checks on one training result: `epochs` epochs reported, accuracy
/// finite and in [0, 1], simulated epoch time finite and positive.
[[nodiscard]] std::vector<std::string> check_run_result(
    const nessa::core::RunResult& result, std::size_t epochs);

/// Bit-level comparison of two fleet results: the run-level counters and
/// every job record.
[[nodiscard]] std::vector<std::string> diff_fleet_results(
    const nessa::fleet::FleetResult& expected,
    const nessa::fleet::FleetResult& actual);

/// Fleet accounting invariants for a run below capacity:
///   admitted + rejected == arrivals, completed + failed_permanently ==
///   admitted, p99 >= p50 (from the job records), 0 < Jain <= 1, and
///   nothing deferred.
[[nodiscard]] std::vector<std::string> check_fleet_result(
    const nessa::fleet::FleetResult& result, const LatencySummary& latency);

}  // namespace perfbench
