// Unit tests for the benchmark's own code: metric aggregation, the job
// latency percentiles, the output checks and the replay's fidelity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "checks.hpp"
#include "metrics.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace nc = nessa::core;
namespace fleet = nessa::fleet;

std::size_t count_spans(const SpanRecorder& spans, std::string_view name) {
  return static_cast<std::size_t>(
      std::count_if(spans.spans().begin(), spans.spans().end(),
                    [&](const Span& s) { return name == s.name; }));
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BestOf, LowestAndHighestSample) {
  EXPECT_DOUBLE_EQ(lowest({0.3, 0.1, 0.2}), 0.1);
  EXPECT_DOUBLE_EQ(highest({0.3, 0.1, 0.2}), 0.3);
  EXPECT_DOUBLE_EQ(lowest({}), 0.0);
  EXPECT_DOUBLE_EQ(highest({}), 0.0);
}

TEST(NearestRank, PicksTheSampleAtTheRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_DOUBLE_EQ(nearest_rank(v, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(nearest_rank({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(nearest_rank({}, 50.0), 0.0);
}

std::vector<fleet::JobRecord> records(std::size_t completed,
                                      std::size_t unfinished) {
  std::vector<fleet::JobRecord> jobs;
  for (std::size_t i = 0; i < completed; ++i) {
    fleet::JobRecord job;
    job.arrival = static_cast<nessa::util::SimTime>(i) * nessa::util::kSecond;
    // Latency i+1 seconds, so the sorted latencies are 1..completed.
    job.finish = job.arrival +
                 static_cast<nessa::util::SimTime>(i + 1) * nessa::util::kSecond;
    job.admitted = true;
    job.completed = true;
    jobs.push_back(job);
  }
  for (std::size_t i = 0; i < unfinished; ++i) {
    fleet::JobRecord job;
    job.admitted = true;
    job.failed = true;
    jobs.push_back(job);
  }
  return jobs;
}

TEST(JobLatency, PercentilesOverCompletedJobsOnly) {
  const auto jobs = records(1000, 5);
  const LatencySummary s = job_latency(jobs);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_DOUBLE_EQ(s.p50_s, 500.0);
  EXPECT_DOUBLE_EQ(s.p99_s, 990.0);
  EXPECT_EQ(s.beyond_p99, 10u);
}

TEST(JobLatency, EmptyFleetGivesZeros) {
  const LatencySummary s = job_latency({});
  EXPECT_EQ(s.samples, 0u);
  EXPECT_DOUBLE_EQ(s.p99_s, 0.0);
}

TEST(ResultJson, PrintsEveryDigitAndTheFourKeys) {
  const std::string json =
      result_json(true, 12, 1, {{"a_s", 0.1, "s"}, {"b", 2.0 / 3.0, "%"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
            "\"metrics\": {\"a_s\": {\"value\": 0.10000000000000001, "
            "\"unit\": \"s\"}, \"b\": {\"value\": 0.66666666666666663, "
            "\"unit\": \"%\"}}}");
}

TEST(ResultJson, NonFiniteValuePrintsAsZero) {
  const std::string json = result_json(
      false, 1, 1, {{"x", std::numeric_limits<double>::quiet_NaN(), "s"}});
  EXPECT_NE(json.find("\"value\": 0,"), std::string::npos);
  EXPECT_NE(json.find("\"correct\": false"), std::string::npos);
}

nc::RunResult run_result() {
  nc::RunResult r;
  for (std::size_t e = 0; e < 3; ++e) {
    nc::EpochReport report;
    report.epoch = e;
    report.train_loss = 1.0 / static_cast<double>(e + 1);
    report.test_accuracy = 0.5 + 0.1 * static_cast<double>(e);
    report.subset_size = 100;
    report.pool_size = 1000;
    report.subset_fraction = 0.1;
    report.cost.gpu_compute = 1000;
    r.epochs.push_back(report);
  }
  r.finalize();
  return r;
}

TEST(DiffRunResults, IdenticalResultsPass) {
  EXPECT_TRUE(diff_run_results(run_result(), run_result()).empty());
}

TEST(DiffRunResults, OneUlpOfAccuracyIsAMismatch) {
  nc::RunResult changed = run_result();
  changed.epochs[1].test_accuracy =
      std::nextafter(changed.epochs[1].test_accuracy, 1.0);
  const auto d = diff_run_results(run_result(), changed);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.front(), "epoch 1 test_accuracy differs");
}

TEST(DiffRunResults, SimulatedCostMismatchIsFlagged) {
  nc::RunResult changed = run_result();
  changed.epochs[2].cost.gpu_compute += 1;
  changed.finalize();
  const auto d = diff_run_results(run_result(), changed);
  ASSERT_FALSE(d.empty());
  EXPECT_EQ(d.front(), "epoch 2 cost.gpu_compute differs");
}

TEST(CheckRunResult, FlagsEpochCountAndNonFiniteAccuracy) {
  EXPECT_TRUE(check_run_result(run_result(), 3).empty());
  EXPECT_EQ(check_run_result(run_result(), 4).size(), 1u);
  nc::RunResult bad = run_result();
  bad.epochs.back().test_accuracy = std::numeric_limits<double>::quiet_NaN();
  bad.finalize();
  EXPECT_FALSE(check_run_result(bad, 3).empty());
}

fleet::FleetResult fleet_result() {
  fleet::FleetResult r;
  r.jobs = records(200, 0);
  r.arrivals = 200;
  r.admitted = 200;
  r.completed = 200;
  r.jain_fairness = 0.9;
  return r;
}

TEST(CheckFleetResult, ConsistentRunPasses) {
  const auto r = fleet_result();
  EXPECT_TRUE(check_fleet_result(r, job_latency(r.jobs)).empty());
}

TEST(CheckFleetResult, FlagsEachBrokenInvariant) {
  auto deferred = fleet_result();
  deferred.deferred = 3;
  EXPECT_EQ(check_fleet_result(deferred, job_latency(deferred.jobs)).size(),
            1u);

  auto lost = fleet_result();
  lost.arrivals = 201;  // one arrival neither admitted nor rejected
  EXPECT_EQ(check_fleet_result(lost, job_latency(lost.jobs)).size(), 1u);

  auto unfinished = fleet_result();
  unfinished.completed = 199;
  EXPECT_EQ(
      check_fleet_result(unfinished, job_latency(unfinished.jobs)).size(), 1u);

  auto unfair = fleet_result();
  unfair.jain_fairness = 0.0;
  EXPECT_EQ(check_fleet_result(unfair, job_latency(unfair.jobs)).size(), 1u);

  auto r = fleet_result();
  LatencySummary inverted = job_latency(r.jobs);
  std::swap(inverted.p50_s, inverted.p99_s);
  EXPECT_EQ(check_fleet_result(r, inverted).size(), 1u);
}

TEST(DiffFleetResults, OneJobFinishingLaterIsAMismatch) {
  auto changed = fleet_result();
  changed.jobs[17].finish += 1;
  const auto d = diff_fleet_results(fleet_result(), changed);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.front(), "job 17 finish differs");
  EXPECT_TRUE(diff_fleet_results(fleet_result(), fleet_result()).empty());
}

TEST(SpanRecorder, SelfTimeSubtractsDirectChildren) {
  SpanRecorder spans;
  {
    auto outer = spans.scope("outer");
    for (int i = 0; i < 3; ++i) {
      auto inner = spans.scope("inner");
      volatile double x = 0.0;
      for (int j = 0; j < 100000; ++j) x = x + 1.0;
    }
  }
  ASSERT_EQ(spans.spans().size(), 4u);
  EXPECT_EQ(spans.spans()[0].parent, -1);
  EXPECT_EQ(spans.spans()[1].parent, 0);
  EXPECT_EQ(count_spans(spans, "inner"), 3u);
  auto total = spans.total_seconds();
  auto self = spans.self_seconds();
  EXPECT_DOUBLE_EQ(self["inner"], total["inner"]);
  EXPECT_NEAR(self["outer"] + total["inner"], total["outer"], 1e-12);
  EXPECT_GE(self["outer"], 0.0);
}

// The replay must reproduce core::run bit for bit; a small substrate keeps
// this fast.
class ReplayMatchesCoreRun : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplayMatchesCoreRun, EveryEpoch) {
  const Workload* w = find_workload(GetParam());
  ASSERT_NE(w, nullptr);
  nc::RunConfig config = training_config(*w, 5);
  config.dataset_scale = 0.02;
  config.train.epochs = 4;  // reaches a subset-biasing drop for nessa
  const nessa::data::Dataset dataset = synthesize(config);
  const nc::PipelineInputs inputs = pipeline_inputs(config, dataset);
  nessa::smartssd::SmartSsdSystem system(config.system);
  const nc::RunResult expected = nc::run(inputs, config, system);

  SpanRecorder spans;
  const ReplayOutcome replay = replay_training(inputs, config, spans);
  EXPECT_TRUE(diff_replay(replay, expected).empty());
  EXPECT_EQ(count_spans(spans, "job"), 1u);
  EXPECT_EQ(count_spans(spans, "epoch"), 4u);
  EXPECT_GT(count_spans(spans, "nn.forward"), 0u);

  ReplayOutcome changed = replay;
  changed.epochs[2].subset_size += 1;
  const auto d = diff_replay(changed, expected);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.front(), "replay departs from core::run at epoch 2");
}

INSTANTIATE_TEST_SUITE_P(TrainingWorkloads, ReplayMatchesCoreRun,
                         ::testing::Values("nessa-cifar10", "full-cifar10",
                                           "craig-cifar10"));

TEST(Replay, RejectsConfigsItDoesNotMirror) {
  const Workload* w = find_workload("nessa-cifar10");
  nc::RunConfig config = training_config(*w, 5);
  config.dataset_scale = 0.02;
  config.nessa.selection_interval = 2;
  const nessa::data::Dataset dataset = synthesize(config);
  SpanRecorder spans;
  EXPECT_THROW((void)replay_training(pipeline_inputs(config, dataset), config,
                                     spans),
               std::invalid_argument);
}

TEST(Workloads, NamesAreUniqueAndFindable) {
  for (const Workload& w : workloads()) {
    EXPECT_EQ(find_workload(w.name), &w);
  }
  EXPECT_EQ(find_workload("no-such-workload"), nullptr);
}

}  // namespace
}  // namespace perfbench
