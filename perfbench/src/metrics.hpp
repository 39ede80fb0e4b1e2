// Metric aggregation and the result line the benchmark prints.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nessa/fleet/fleet_sim.hpp"

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// Smallest and largest sample; 0 for an empty sample. On a shared host,
/// interference only ever slows a repeat down, so the fastest of a run's
/// repeats is the steadiest estimate of the work itself: the end-to-end
/// timings report it (lowest set-up time, highest throughput).
[[nodiscard]] double lowest(const std::vector<double>& values);
[[nodiscard]] double highest(const std::vector<double>& values);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// sample at or below it. p in (0, 100]; 0 for an empty sample.
[[nodiscard]] double nearest_rank(std::vector<double> values, double p);

/// Simulated latency of the completed jobs of a fleet run, computed from
/// the per-job records rather than FleetResult's own percentile fields.
struct LatencySummary {
  std::size_t samples = 0;     ///< completed jobs
  double p50_s = 0.0;
  double p99_s = 0.0;
  std::size_t beyond_p99 = 0;  ///< samples strictly above p99
};
[[nodiscard]] LatencySummary job_latency(
    std::span<const nessa::fleet::JobRecord> jobs);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The one-line JSON result object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {name:
///    {"value": .., "unit": ..}, ...}}
/// Values print with all 17 significant digits; a non-finite value prints
/// as 0 (the caller reports it as a failed check).
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

/// Peak resident set size of this process, in MB (1e6 bytes).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
