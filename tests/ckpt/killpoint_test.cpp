// Kill-point harness: crash a checkpointing run at every epoch boundary via
// the fault plan's kill point, resume from disk, and require the resumed
// run's RunResult to be BIT-identical to an uninterrupted golden run — same
// losses, accuracies, subset choices, costs and traffic, to the last bit of
// every double. This is the contract that makes checkpoints trustworthy:
// a restore is the run, not an approximation of it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nessa/ckpt/errors.hpp"
#include "../support/run_helpers.hpp"
#include "nessa/data/scenario.hpp"
#include "nessa/data/synthetic.hpp"
#include "nessa/fault/crash.hpp"

namespace nessa::core {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kEpochs = 5;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("nessa_kill_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

const data::Dataset& shared_dataset() {
  static const data::Dataset ds = [] {
    data::SyntheticConfig cfg;
    cfg.num_classes = 4;
    cfg.train_size = 400;
    cfg.test_size = 100;
    cfg.feature_dim = 16;
    cfg.seed = 11;
    return data::make_synthetic(cfg);
  }();
  return ds;
}

PipelineInputs make_inputs() {
  PipelineInputs in;
  in.dataset = &shared_dataset();
  in.info = data::dataset_info("CIFAR-10");
  in.model = nn::model_spec("ResNet-20");
  in.train.epochs = kEpochs;
  in.train.batch_size = 32;
  in.train.seed = 3;
  return in;
}

NessaConfig fast_nessa() {
  NessaConfig cfg;
  cfg.subset_fraction = 0.3;
  cfg.partition_quota = 32;
  cfg.drop_interval_epochs = 2;
  cfg.loss_window_epochs = 2;
  return cfg;
}

void expect_bits(double a, double b, const char* what, std::size_t epoch) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << " diverged at epoch " << epoch << ": " << a << " vs " << b;
}

// Full bit-level equality of two run results, field by field.
void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const EpochReport& x = a.epochs[i];
    const EpochReport& y = b.epochs[i];
    EXPECT_EQ(x.epoch, y.epoch);
    expect_bits(x.train_loss, y.train_loss, "train_loss", i);
    expect_bits(x.test_accuracy, y.test_accuracy, "test_accuracy", i);
    EXPECT_EQ(x.subset_size, y.subset_size) << "epoch " << i;
    EXPECT_EQ(x.pool_size, y.pool_size) << "epoch " << i;
    expect_bits(x.subset_fraction, y.subset_fraction, "subset_fraction", i);
    EXPECT_EQ(x.cost.storage_scan, y.cost.storage_scan) << "epoch " << i;
    EXPECT_EQ(x.cost.selection, y.cost.selection) << "epoch " << i;
    EXPECT_EQ(x.cost.subset_transfer, y.cost.subset_transfer)
        << "epoch " << i;
    EXPECT_EQ(x.cost.gpu_compute, y.cost.gpu_compute) << "epoch " << i;
    EXPECT_EQ(x.cost.feedback, y.cost.feedback) << "epoch " << i;
    EXPECT_EQ(x.cost.selection_overlapped, y.cost.selection_overlapped);
    EXPECT_EQ(x.cost.modeled_total, y.cost.modeled_total) << "epoch " << i;
    expect_bits(x.selection_overlap, y.selection_overlap,
                "selection_overlap", i);
    EXPECT_EQ(x.chunk_fetches, y.chunk_fetches) << "epoch " << i;
    EXPECT_EQ(x.class_mix, y.class_mix) << "epoch " << i;
  }
  expect_bits(a.final_accuracy, b.final_accuracy, "final_accuracy", 0);
  expect_bits(a.best_accuracy, b.best_accuracy, "best_accuracy", 0);
  expect_bits(a.mean_subset_fraction, b.mean_subset_fraction,
              "mean_subset_fraction", 0);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.mean_epoch_time, b.mean_epoch_time);
  EXPECT_EQ(a.interconnect_bytes, b.interconnect_bytes);
  EXPECT_EQ(a.p2p_bytes, b.p2p_bytes);
  EXPECT_EQ(a.fault_fallback_epochs, b.fault_fallback_epochs);
  EXPECT_EQ(a.fault_stale_epochs, b.fault_stale_epochs);
  EXPECT_EQ(a.chunk_corruptions, b.chunk_corruptions);
  EXPECT_EQ(a.chunk_refetches, b.chunk_refetches);
  EXPECT_EQ(a.quarantined_chunks, b.quarantined_chunks);
}

using Driver = RunResult (*)(const PipelineInputs&,
                             smartssd::SmartSsdSystem&);

RunResult drive_nessa(const PipelineInputs& in,
                      smartssd::SmartSsdSystem& sys) {
  return nessa_run(in, fast_nessa(), sys);
}

RunResult drive_full(const PipelineInputs& in,
                     smartssd::SmartSsdSystem& sys) {
  return full_run(in, sys);
}

RunResult drive_multi(const PipelineInputs& in,
                      smartssd::SmartSsdSystem& sys) {
  return run_nessa_multi(in, fast_nessa(), MultiDeviceConfig{2}, sys);
}

// Crash at epoch boundary `k`, then resume; both against a fresh system.
RunResult crash_and_resume(Driver drive, const PipelineInputs& base,
                           const fs::path& dir, std::size_t k) {
  PipelineInputs crashed = base;
  crashed.checkpoint.dir = dir.string();
  crashed.fault_plan.crash_epoch = k;
  {
    smartssd::SmartSsdSystem sys;
    EXPECT_THROW(drive(crashed, sys), fault::InjectedCrash);
  }
  PipelineInputs resumed = base;
  resumed.checkpoint.dir = dir.string();
  resumed.checkpoint.resume = true;
  smartssd::SmartSsdSystem sys;
  return drive(resumed, sys);
}

TEST(Killpoint, NessaResumesBitIdenticalFromEveryEpoch) {
  const PipelineInputs base = make_inputs();
  smartssd::SmartSsdSystem golden_sys;
  const RunResult golden = drive_nessa(base, golden_sys);
  ASSERT_EQ(golden.epochs.size(), kEpochs);
  for (std::size_t k = 1; k < kEpochs; ++k) {
    SCOPED_TRACE("crash at epoch " + std::to_string(k));
    const auto dir = fresh_dir("nessa_k" + std::to_string(k));
    expect_identical(crash_and_resume(&drive_nessa, base, dir, k), golden);
  }
}

TEST(Killpoint, StreamedChunkedRunResumesBitIdenticalFromEveryEpoch) {
  // The hard case the streaming interface adds: a non-stationary scenario
  // stream AND a chunked scan. A resume must rebuild the per-epoch pool from
  // the stream (deterministic random access), restore the carried subset for
  // the overlap telemetry, and replay the chunk-fetch accounting — all
  // bit-exactly, at every kill point.
  data::scenario::ScenarioConfig sc;
  sc.kind = data::scenario::Kind::kDrift;
  sc.seed = 9;
  sc.train_size = 300;
  sc.num_classes = 4;
  const auto stream = data::scenario::make_scenario(sc);
  PipelineInputs base = make_inputs();
  base.dataset = &stream->base();
  base.stream = stream.get();
  base.train.chunk_samples = 64;
  smartssd::SmartSsdSystem golden_sys;
  const RunResult golden = drive_nessa(base, golden_sys);
  ASSERT_EQ(golden.epochs.size(), kEpochs);
  EXPECT_GT(golden.epochs.front().chunk_fetches, 0u);
  EXPECT_FALSE(golden.epochs.front().class_mix.empty());
  for (std::size_t k = 1; k < kEpochs; ++k) {
    SCOPED_TRACE("crash at epoch " + std::to_string(k));
    const auto dir = fresh_dir("stream_k" + std::to_string(k));
    expect_identical(crash_and_resume(&drive_nessa, base, dir, k), golden);
  }
}

TEST(Killpoint, CorruptingChunkedRunResumesItsIntegrityCounters) {
  // Sticky corruption re-quarantines on every selection pass, so the
  // integrity counters grow each epoch; a resumed run must carry the
  // epochs before the kill point instead of counting only its own.
  PipelineInputs base = make_inputs();
  base.train.chunk_samples = 50;
  std::istringstream plan("corrupt rate=0.3 sticky=1\n");
  base.fault_plan = fault::FaultPlan::from_stream(plan);
  smartssd::SmartSsdSystem golden_sys;
  const RunResult golden = drive_nessa(base, golden_sys);
  ASSERT_GT(golden.quarantined_chunks, 0u);
  for (std::size_t k = 1; k < kEpochs; ++k) {
    SCOPED_TRACE("crash at epoch " + std::to_string(k));
    const auto dir = fresh_dir("corrupt_k" + std::to_string(k));
    expect_identical(crash_and_resume(&drive_nessa, base, dir, k), golden);
  }
}

TEST(Killpoint, FullResumesBitIdenticalFromEveryEpoch) {
  const PipelineInputs base = make_inputs();
  smartssd::SmartSsdSystem golden_sys;
  const RunResult golden = drive_full(base, golden_sys);
  for (std::size_t k = 1; k < kEpochs; ++k) {
    SCOPED_TRACE("crash at epoch " + std::to_string(k));
    const auto dir = fresh_dir("full_k" + std::to_string(k));
    expect_identical(crash_and_resume(&drive_full, base, dir, k), golden);
  }
}

TEST(Killpoint, MultiDeviceResumeIsBitIdentical) {
  const PipelineInputs base = make_inputs();
  smartssd::SmartSsdSystem golden_sys;
  const RunResult golden = drive_multi(base, golden_sys);
  const auto dir = fresh_dir("multi_k2");
  expect_identical(crash_and_resume(&drive_multi, base, dir, 2), golden);
}

TEST(Killpoint, BaselineTrainersResumeBitIdentically) {
  const PipelineInputs base = make_inputs();
  const auto drive = [](const PipelineInputs& in,
                        smartssd::SmartSsdSystem& sys) {
    return run_craig(in, 0.3, sys);
  };
  smartssd::SmartSsdSystem golden_sys;
  const RunResult golden = drive(base, golden_sys);
  const auto dir = fresh_dir("craig_k3");
  PipelineInputs crashed = base;
  crashed.checkpoint.dir = dir.string();
  crashed.fault_plan.crash_epoch = 3;
  {
    smartssd::SmartSsdSystem sys;
    EXPECT_THROW(drive(crashed, sys), fault::InjectedCrash);
  }
  PipelineInputs resumed = base;
  resumed.checkpoint.dir = dir.string();
  resumed.checkpoint.resume = true;
  smartssd::SmartSsdSystem sys;
  expect_identical(drive(resumed, sys), golden);
}

TEST(Killpoint, ResumeUnderAnActiveFaultPlanIsBitIdentical) {
  // Degraded-mode pricing (host fallback, stale subsets) must also resume
  // exactly: the per-epoch fault schedule is a stateless hash of the plan
  // seed, so a resumed run replays the same degraded epochs.
  PipelineInputs base = make_inputs();
  base.fault_plan = fault::FaultPlan::preset("flaky-p2p");
  smartssd::SmartSsdSystem golden_sys;
  const RunResult golden = drive_nessa(base, golden_sys);
  const auto dir = fresh_dir("faulty_k2");
  PipelineInputs crashed = base;
  crashed.checkpoint.dir = dir.string();
  crashed.fault_plan.crash_epoch = 2;
  {
    smartssd::SmartSsdSystem sys;
    EXPECT_THROW(drive_nessa(crashed, sys), fault::InjectedCrash);
  }
  PipelineInputs resumed = base;  // faults stay on, crash point does not
  resumed.checkpoint.dir = dir.string();
  resumed.checkpoint.resume = true;
  smartssd::SmartSsdSystem sys;
  expect_identical(drive_nessa(resumed, sys), golden);
}

TEST(Killpoint, CheckpointingItselfDoesNotPerturbTheRun) {
  const PipelineInputs base = make_inputs();
  smartssd::SmartSsdSystem plain_sys;
  const RunResult plain = drive_nessa(base, plain_sys);
  PipelineInputs ck = base;
  ck.checkpoint.dir = fresh_dir("noperturb").string();
  smartssd::SmartSsdSystem ck_sys;
  expect_identical(drive_nessa(ck, ck_sys), plain);
}

TEST(Killpoint, CorruptNewestSnapshotFallsBackToOlderAndStaysIdentical) {
  const PipelineInputs base = make_inputs();
  smartssd::SmartSsdSystem golden_sys;
  const RunResult golden = drive_nessa(base, golden_sys);
  const auto dir = fresh_dir("fallback");
  PipelineInputs crashed = base;
  crashed.checkpoint.dir = dir.string();
  crashed.fault_plan.crash_epoch = 3;
  {
    smartssd::SmartSsdSystem sys;
    EXPECT_THROW(drive_nessa(crashed, sys), fault::InjectedCrash);
  }
  // Tear the newest snapshot (epoch 3); resume must fall back to epoch 2
  // and still reproduce the golden run exactly.
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (newest.empty() || entry.path() > newest) newest = entry.path();
  }
  ASSERT_FALSE(newest.empty());
  std::fstream file(newest, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(-1, std::ios::end);
  file.put('\x7f');
  file.close();
  PipelineInputs resumed = base;
  resumed.checkpoint.dir = dir.string();
  resumed.checkpoint.resume = true;
  smartssd::SmartSsdSystem sys;
  expect_identical(drive_nessa(resumed, sys), golden);
}

TEST(Killpoint, ResumeWithNoSnapshotIsATypedError) {
  PipelineInputs resumed = make_inputs();
  resumed.checkpoint.dir = fresh_dir("nosnap").string();
  resumed.checkpoint.resume = true;
  smartssd::SmartSsdSystem sys;
  try {
    drive_nessa(resumed, sys);
    FAIL() << "expected SnapshotError";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_EQ(e.fault(), ckpt::SnapshotFault::kNoSnapshot);
  }
}

TEST(Killpoint, SnapshotFromDifferentConfigIsRejected) {
  const PipelineInputs base = make_inputs();
  const auto dir = fresh_dir("mismatch");
  PipelineInputs crashed = base;
  crashed.checkpoint.dir = dir.string();
  crashed.fault_plan.crash_epoch = 2;
  {
    smartssd::SmartSsdSystem sys;
    EXPECT_THROW(drive_nessa(crashed, sys), fault::InjectedCrash);
  }
  // Same directory, different run: the fingerprint must refuse to resume
  // rather than silently diverge.
  PipelineInputs other = base;
  other.checkpoint.dir = dir.string();
  other.checkpoint.resume = true;
  other.train.seed = 999;
  smartssd::SmartSsdSystem sys;
  try {
    drive_nessa(other, sys);
    FAIL() << "expected SnapshotError";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_EQ(e.fault(), ckpt::SnapshotFault::kBadPayload);
  }
  // A different trainer reading the same snapshots must be refused too.
  PipelineInputs wrong_tag = base;
  wrong_tag.checkpoint.dir = dir.string();
  wrong_tag.checkpoint.resume = true;
  smartssd::SmartSsdSystem sys2;
  EXPECT_THROW(drive_full(wrong_tag, sys2), ckpt::SnapshotError);
}

TEST(Killpoint, SparserCadenceResumesFromTheLastMultiple) {
  const PipelineInputs base = make_inputs();
  smartssd::SmartSsdSystem golden_sys;
  const RunResult golden = drive_nessa(base, golden_sys);
  const auto dir = fresh_dir("cadence");
  PipelineInputs crashed = base;
  crashed.checkpoint.dir = dir.string();
  crashed.checkpoint.every_epochs = 2;  // snapshots at epochs 2 and 4 only
  crashed.fault_plan.crash_epoch = 3;
  {
    smartssd::SmartSsdSystem sys;
    EXPECT_THROW(drive_nessa(crashed, sys), fault::InjectedCrash);
  }
  PipelineInputs resumed = base;
  resumed.checkpoint.dir = dir.string();
  resumed.checkpoint.every_epochs = 2;
  resumed.checkpoint.resume = true;
  smartssd::SmartSsdSystem sys;
  expect_identical(drive_nessa(resumed, sys), golden);  // redoes epoch 2
}

TEST(Killpoint, PipelineSimulationReplaysBarriersBitIdentically) {
  RunConfig rc;
  rc.pipeline_epochs = 6;
  const smartssd::PipelineTrace golden = simulate(rc);
  ASSERT_EQ(golden.barriers.size(), 6u);

  const auto dir = fresh_dir("pipeline");
  RunConfig crashed = rc;
  crashed.checkpoint.dir = dir.string();
  crashed.fault_plan.crash_epoch = 4;
  EXPECT_THROW(simulate(crashed), fault::InjectedCrash);

  RunConfig resumed = rc;
  resumed.checkpoint.dir = dir.string();
  resumed.checkpoint.resume = true;
  const smartssd::PipelineTrace replay = simulate(resumed);
  ASSERT_EQ(replay.barriers.size(), golden.barriers.size());
  for (std::size_t i = 0; i < golden.barriers.size(); ++i) {
    EXPECT_EQ(replay.barriers[i].epoch, golden.barriers[i].epoch);
    EXPECT_EQ(replay.barriers[i].at, golden.barriers[i].at);
    EXPECT_EQ(replay.barriers[i].dropped_batches,
              golden.barriers[i].dropped_batches);
  }
  EXPECT_EQ(replay.steady_epoch_time, golden.steady_epoch_time);
  EXPECT_EQ(replay.epoch_done, golden.epoch_done);
}

TEST(Killpoint, PipelineReplayRejectsAChangedConfiguration) {
  RunConfig rc;
  rc.pipeline_epochs = 6;
  const auto dir = fresh_dir("pipeline_mismatch");
  RunConfig crashed = rc;
  crashed.checkpoint.dir = dir.string();
  crashed.fault_plan.crash_epoch = 4;
  EXPECT_THROW(simulate(crashed), fault::InjectedCrash);

  RunConfig resumed = rc;
  resumed.checkpoint.dir = dir.string();
  resumed.checkpoint.resume = true;
  resumed.workload.batch_size *= 2;  // not the run that was checkpointed
  try {
    simulate(resumed);
    FAIL() << "expected SnapshotError";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_EQ(e.fault(), ckpt::SnapshotFault::kBadPayload);
  }
}

}  // namespace
}  // namespace nessa::core
