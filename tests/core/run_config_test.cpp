// RunConfig: fluent construction, exhaustive validation, and equivalence
// of the unified core::run()/simulate() entry points with direct calls
// into the per-pipeline drivers.
#include "nessa/core/run_config.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "nessa/core/run.hpp"
#include "nessa/data/synthetic.hpp"

namespace nessa::core {
namespace {

bool any_error_mentions(const std::vector<std::string>& errors,
                        const std::string& needle) {
  return std::any_of(errors.begin(), errors.end(), [&](const auto& e) {
    return e.find(needle) != std::string::npos;
  });
}

TEST(RunConfig, DefaultIsValid) {
  EXPECT_TRUE(RunConfig{}.validate().empty());
}

TEST(RunConfig, ValidateReturnsEveryError) {
  RunConfig rc;
  rc.system.host_link_bw_bps = 0.0;
  rc.workload.batch_size = 0;
  rc.workload.subset_records = rc.workload.pool_records + 1;
  rc.train.epochs = 0;
  rc.nessa.subset_fraction = 1.5;
  rc.nessa.selection_interval = 0;
  rc.pipeline_epochs = 1;

  const auto errors = rc.validate();
  EXPECT_GE(errors.size(), 7u);
  EXPECT_TRUE(any_error_mentions(errors, "system.host_link_bw_bps"));
  EXPECT_TRUE(any_error_mentions(errors, "workload.batch_size"));
  EXPECT_TRUE(any_error_mentions(errors, "workload.subset_records"));
  EXPECT_TRUE(any_error_mentions(errors, "train.epochs"));
  EXPECT_TRUE(any_error_mentions(errors, "nessa.subset_fraction"));
  EXPECT_TRUE(any_error_mentions(errors, "nessa.selection_interval"));
  EXPECT_TRUE(any_error_mentions(errors, "pipeline_epochs"));
}

TEST(JobSpec, MultiDeviceRejectsWhatItIgnores) {
  JobSpec spec;
  spec.devices = 2;
  spec.fault_plan.crash_epoch = 2;  // kill points work on every pipeline
  EXPECT_TRUE(spec.validate().empty());

  spec.train.chunk_samples = 50;
  spec.fault_plan.faults = fault::FaultPlan::preset("flaky-p2p").faults;
  spec.fault_plan.selection_deadline_factor = 1.25;
  spec.fault_plan.corruptions.push_back(fault::CorruptionSpec{});
  const auto errors = spec.validate();
  EXPECT_EQ(errors.size(), 4u);
  EXPECT_TRUE(any_error_mentions(errors, "train.chunk_samples"));
  EXPECT_TRUE(any_error_mentions(errors, "request faults"));
  EXPECT_TRUE(any_error_mentions(errors, "selection_deadline_factor"));
  EXPECT_TRUE(any_error_mentions(errors, "corrupt directives"));

  spec.devices = 1;
  EXPECT_TRUE(spec.validate().empty());
}

TEST(RunConfig, ValidateOrThrowListsAllErrors) {
  RunConfig rc;
  rc.train.epochs = 0;
  rc.pipeline_epochs = 0;
  try {
    rc.validate_or_throw();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("train.epochs"), std::string::npos);
    EXPECT_NE(what.find("pipeline_epochs"), std::string::npos);
  }
}

TEST(RunConfig, ValidateReportsEveryFaultPlanError) {
  RunConfig rc;
  fault::FaultSpec unknown;
  unknown.component = "warp_drive";  // not a DeviceGraph component
  unknown.rate = -0.5;               // negative rate
  rc.fault_plan.faults.push_back(unknown);
  rc.fault_plan.retry.max_attempts = 0;  // zero-capacity retry budget

  const auto errors = rc.validate();
  EXPECT_GE(errors.size(), 3u);
  // Fault-plan problems are namespaced alongside the other sections.
  EXPECT_TRUE(any_error_mentions(errors, "fault_plan.faults[0].component"));
  EXPECT_TRUE(any_error_mentions(errors, "fault_plan.faults[0].rate"));
  EXPECT_TRUE(any_error_mentions(errors, "fault_plan.retry.max_attempts"));
}

TEST(RunConfig, ValidateMixesFaultPlanErrorsWithOtherSections) {
  RunConfig rc;
  rc.train.epochs = 0;
  fault::FaultSpec bad;
  bad.component = "p2p";
  bad.rate = 2.0;
  rc.fault_plan.faults.push_back(bad);
  const auto errors = rc.validate();
  EXPECT_TRUE(any_error_mentions(errors, "train.epochs"));
  EXPECT_TRUE(any_error_mentions(errors, "fault_plan.faults[0].rate"));
}

TEST(RunConfig, ValidateRejectsHandWiredFaultPlanPointer) {
  // The raw PipelineOptions pointer is wired by the entry points; setting
  // it by hand invites a dangling plan.
  RunConfig rc;
  fault::FaultPlan rogue = fault::FaultPlan::preset("flaky-p2p");
  rc.pipeline_options.fault_plan = &rogue;
  const auto errors = rc.validate();
  EXPECT_TRUE(any_error_mentions(errors, "pipeline_options.fault_plan"));

  // Pointing at the config's own plan (what the entry points do) is fine.
  rc.pipeline_options.fault_plan = &rc.fault_plan;
  EXPECT_TRUE(rc.validate().empty());
}

TEST(RunConfig, WithFaultPlanBuilderAndEntryPointWiring) {
  const auto rc =
      RunConfig{}.with_fault_plan(fault::FaultPlan::preset("flaky-p2p"));
  EXPECT_TRUE(rc.fault_plan.enabled());
  EXPECT_TRUE(rc.validate().empty());

  // simulate(RunConfig) must wire the plan into the event run: the
  // flaky-p2p preset injects failures that show up on the trace.
  auto cfg = rc;
  cfg.pipeline_epochs = 6;
  const auto trace = simulate(cfg);
  EXPECT_GT(trace.fault.injected_failures, 0u);
  EXPECT_GT(trace.fault.retries, 0u);

  // Without a plan the trace stays fault-free.
  RunConfig clean;
  clean.pipeline_epochs = 6;
  EXPECT_FALSE(simulate(clean).fault.any());
}

TEST(RunConfig, FluentBuilderChains) {
  TrainConfig train;
  train.epochs = 5;
  train.seed = 99;
  const auto rc = RunConfig{}
                      .with_train(train)
                      .with_parallelism(true)
                      .with_pipeline_epochs(12)
                      .with_telemetry({true, "t.json", "m.json"});
  EXPECT_EQ(rc.train.epochs, 5u);
  EXPECT_TRUE(rc.parallelism.enabled);
  EXPECT_EQ(rc.pipeline_epochs, 12u);
  EXPECT_TRUE(rc.telemetry.enabled);
  EXPECT_EQ(rc.telemetry.trace_path, "t.json");
}

TEST(RunConfig, SimulateMatchesDirectCall) {
  RunConfig rc;
  rc.pipeline_epochs = 5;
  const auto via_config = simulate(rc);
  const auto direct =
      smartssd::simulate_pipeline(rc.system, rc.workload, rc.pipeline_epochs,
                                  smartssd::PipelineOptions{});
  EXPECT_EQ(via_config.steady_epoch_time, direct.steady_epoch_time);
  EXPECT_EQ(via_config.epoch_done, direct.epoch_done);
}

TEST(RunConfig, SimulateRejectsInvalidConfig) {
  RunConfig rc;
  rc.pipeline_epochs = 1;
  EXPECT_THROW(simulate(rc), std::invalid_argument);
}

TEST(RunConfig, UnifiedRunMatchesLegacyPath) {
  data::SyntheticConfig ds_cfg;
  ds_cfg.num_classes = 4;
  ds_cfg.train_size = 400;
  ds_cfg.test_size = 100;
  ds_cfg.feature_dim = 12;
  ds_cfg.seed = 5;
  const auto ds = data::make_synthetic(ds_cfg);

  PipelineInputs inputs;
  inputs.dataset = &ds;
  inputs.info = data::dataset_info("CIFAR-10");
  inputs.model = nn::model_spec("ResNet-20");
  inputs.train.epochs = 3;
  inputs.train.batch_size = 32;
  inputs.train.seed = 3;

  RunConfig rc;
  rc.train = inputs.train;
  rc.nessa.subset_fraction = 0.3;
  rc.nessa.partition_quota = 32;
  rc.nessa.drop_interval_epochs = 3;
  rc.nessa.loss_window_epochs = 2;

  smartssd::SmartSsdSystem sys_new(rc.system), sys_old(rc.system);
  rc.pipeline = PipelineKind::kNessa;
  rc.parallelism = rc.nessa.parallelism;
  const auto via_config = run(inputs, rc, sys_new);
  // The unified dispatcher must match a direct call into the driver.
  const auto legacy = detail::run_nessa(inputs, rc.nessa, sys_old);
  ASSERT_EQ(via_config.epochs.size(), legacy.epochs.size());
  EXPECT_DOUBLE_EQ(via_config.final_accuracy, legacy.final_accuracy);
  EXPECT_EQ(via_config.interconnect_bytes, legacy.interconnect_bytes);
}

}  // namespace
}  // namespace nessa::core
