// Golden table: one pinned RunResult digest per training configuration.
//
// Every other pipeline test is relative (two runs of the same build must
// agree), so a change that moves both runs the same way passes them. This
// table pins absolute values: each row runs one configuration on a small
// synthetic substrate and compares a 64-bit digest of the whole RunResult —
// every EpochReport field and every run counter, bit for bit — with the
// committed value. Final accuracy and mean subset fraction ride along so a
// moved row is readable at a glance.
//
// A change that moves a row on purpose pastes the printed replacement row
// into kGolden and says in its change note which rows moved and why.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>

#include "nessa/core/run.hpp"
#include "nessa/data/scenario.hpp"
#include "nessa/data/synthetic.hpp"
#include "nessa/data/synthetic_images.hpp"
#include "nessa/fault/fault_plan.hpp"
#include "nessa/nn/conv.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::core {
namespace {

struct GoldenRow {
  const char* name;
  std::uint64_t digest;
  double final_accuracy;
  double mean_subset_fraction;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"nessa",               0x7de316399c72bea2ULL, 0.840000, 0.288000},
    {"full",                0x7d8de0ac3686450cULL, 0.860000, 1.000000},
    {"full_cached",         0x7d70ac3f377e2d49ULL, 0.860000, 1.000000},
    {"craig",               0xfe52efc0a8e471f2ULL, 0.830000, 0.300000},
    {"kcenter",             0x7f1756a229d6503dULL, 0.840000, 0.300000},
    {"random",              0x7e655eb3d3c41ee2ULL, 0.850000, 0.300000},
    {"loss_topk",           0x85b9ecd6b1b61de2ULL, 0.740000, 0.300000},
    {"multi",               0x76c4a134b02e20a4ULL, 0.800000, 0.282500},
    {"nessa_unpartitioned", 0x775ab98c4f10117eULL, 0.820000, 0.288000},
    {"nessa_chunked",       0x7de316399df81e9aULL, 0.840000, 0.288000},
    {"nessa_interval2",     0xfe74d9e8e5ae0299ULL, 0.840000, 0.285500},
    {"nessa_event_model",   0x7deb33eebf32374eULL, 0.840000, 0.288000},
    {"nessa_flaky_p2p",     0x7de65abbae6d83a4ULL, 0.840000, 0.288000},
    {"nessa_stale",         0xfde6adb031c261b1ULL, 0.840000, 0.288000},
    {"nessa_corrupt",       0xfd77e5a3a51a0b55ULL, 0.850000, 0.282500},
    {"nessa_conv",          0x7e35b8ecd92937b5ULL, 0.540000, 0.282500},
    {"nessa_scenario",      0xa1cba47cbadc9da5ULL, 0.815000, 0.294000},
    {"multi_2dev",          0x7ed0fce3e846b8fdULL, 0.860000, 0.285000},
};
// clang-format on

/// splitmix64 over the bits of every deterministic RunResult field.
class Digest {
 public:
  void add(std::uint64_t value) {
    state_ ^= value;
    util::splitmix64(state_);
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(bool value) { add(static_cast<std::uint64_t>(value)); }
  void add(util::SimTime value) { add(static_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0;
};

std::uint64_t digest(const RunResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.epochs.size()));
  for (const EpochReport& e : r.epochs) {
    d.add(static_cast<std::uint64_t>(e.epoch));
    d.add(e.train_loss);
    d.add(e.test_accuracy);
    d.add(static_cast<std::uint64_t>(e.subset_size));
    d.add(static_cast<std::uint64_t>(e.pool_size));
    d.add(e.subset_fraction);
    d.add(e.cost.storage_scan);
    d.add(e.cost.selection);
    d.add(e.cost.subset_transfer);
    d.add(e.cost.gpu_compute);
    d.add(e.cost.feedback);
    d.add(e.cost.selection_overlapped);
    d.add(e.cost.modeled_total);
    d.add(e.selection_overlap);
    d.add(e.chunk_fetches);
    d.add(static_cast<std::uint64_t>(e.class_mix.size()));
    for (const std::uint32_t count : e.class_mix) {
      d.add(static_cast<std::uint64_t>(count));
    }
  }
  d.add(r.final_accuracy);
  d.add(r.best_accuracy);
  d.add(r.mean_subset_fraction);
  d.add(r.total_time);
  d.add(r.mean_epoch_time);
  d.add(r.interconnect_bytes);
  d.add(r.p2p_bytes);
  d.add(r.fault_fallback_epochs);
  d.add(r.fault_stale_epochs);
  d.add(r.chunk_corruptions);
  d.add(r.chunk_refetches);
  d.add(r.quarantined_chunks);
  return d.value();
}

const data::Dataset& substrate() {
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

const data::Dataset& image_substrate() {
  static const data::Dataset ds = [] {
    data::SyntheticImageConfig cfg;
    cfg.num_classes = 4;
    cfg.train_size = 400;
    cfg.test_size = 100;
    cfg.dims = {2, 8, 8};
    cfg.modes_per_class = 5;
    cfg.seed = 13;
    return data::make_synthetic_images(cfg);
  }();
  return ds;
}

const data::scenario::EpochStream& stream() {
  static const auto s = [] {
    data::scenario::ScenarioConfig sc;
    sc.kind = data::scenario::Kind::kDrift;
    sc.seed = 9;
    sc.train_size = 400;
    sc.num_classes = 4;
    return data::scenario::make_scenario(sc);
  }();
  return *s;
}

fault::FaultPlan plan(const std::string& text) {
  std::istringstream in(text);
  return fault::FaultPlan::from_stream(in, "golden");
}

/// One configuration: the shared inputs and RunConfig, then the row's
/// tweak applied to both.
struct Setup {
  PipelineInputs inputs;
  RunConfig rc;
};

Setup base_setup() {
  Setup s;
  s.inputs.dataset = &substrate();
  s.inputs.info = data::dataset_info("CIFAR-10");
  s.inputs.model = nn::model_spec("ResNet-20");
  s.rc.train.epochs = 5;
  s.rc.train.batch_size = 32;
  s.rc.train.seed = 3;
  // Small enough that subset biasing and dynamic sizing both act.
  s.rc.nessa.subset_fraction = 0.3;
  s.rc.nessa.partition_quota = 32;
  s.rc.nessa.drop_interval_epochs = 2;
  s.rc.nessa.loss_window_epochs = 2;
  return s;
}

RunResult run_row(const std::string& name) {
  Setup s = base_setup();
  auto& rc = s.rc;
  if (name == "full") rc.pipeline = PipelineKind::kFull;
  if (name == "full_cached") rc.pipeline = PipelineKind::kFullCached;
  if (name == "craig") rc.pipeline = PipelineKind::kCraig;
  if (name == "kcenter") rc.pipeline = PipelineKind::kKCenter;
  if (name == "random") rc.pipeline = PipelineKind::kRandom;
  if (name == "loss_topk") rc.pipeline = PipelineKind::kLossTopk;
  if (name == "nessa_unpartitioned") rc.nessa.partition_quota = 0;
  if (name == "nessa_chunked") rc.train.chunk_samples = 50;
  if (name == "nessa_interval2") rc.nessa.selection_interval = 2;
  if (name == "nessa_event_model") rc.perf_model = PerfModelKind::kEventDriven;
  if (name == "nessa_flaky_p2p") {
    rc.fault_plan = fault::FaultPlan::preset("flaky-p2p");
  }
  if (name == "nessa_stale") {
    rc.fault_plan = plan(
        "fault fpga stall rate=0.5 stall_us=10000000\n"
        "selection_deadline_factor 1.01\n");
  }
  if (name == "nessa_corrupt") {
    rc.train.chunk_samples = 50;
    rc.fault_plan = plan("corrupt rate=0.3 sticky=1\n");
  }
  if (name == "nessa_conv") {
    s.inputs.dataset = &image_substrate();
    s.inputs.model_factory = [](util::Rng& rng) {
      return nn::build_mini_resnet({2, 8, 8}, 4, 4, rng);
    };
  }
  if (name == "nessa_scenario") {
    s.inputs.dataset = &stream().base();
    s.inputs.stream = &stream();
  }
  if (name == "multi_2dev") rc.devices = 2;

  smartssd::SmartSsdSystem system(rc.system);
  if (name == "multi") {
    PipelineInputs in = s.inputs;
    in.train = rc.train;
    return run_nessa_multi(in, rc.nessa, MultiDeviceConfig{3}, system);
  }
  return run(s.inputs, rc, system);
}

std::string format_row(const char* name, const RunResult& r) {
  char line[160];
  std::snprintf(line, sizeof line,
                "    {\"%s\",%*s0x%016" PRIx64 "ULL, %.6f, %.6f},", name,
                static_cast<int>(20 - std::string(name).size()), "",
                digest(r), r.final_accuracy, r.mean_subset_fraction);
  return line;
}

// gtest prints each row as its name; gtest_discover_tests turns that into
// the ctest ID (Rows/RunGolden.MatchesPinnedDigest/<name>).
void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row.name; }

class RunGolden : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(RunGolden, MatchesPinnedDigest) {
  const GoldenRow& row = GetParam();
  const RunResult result = run_row(row.name);
  const bool same = digest(result) == row.digest &&
                    std::abs(result.final_accuracy - row.final_accuracy) <
                        5e-7 &&
                    std::abs(result.mean_subset_fraction -
                             row.mean_subset_fraction) < 5e-7;
  EXPECT_TRUE(same) << "row '" << row.name
                    << "' moved; if on purpose, replace it with:\n"
                    << format_row(row.name, result);
}

// The fault rows pin nothing unless their fault paths actually fire.
TEST(RunGoldenRows, FaultRowsExerciseTheirPaths) {
  EXPECT_GT(run_row("nessa_flaky_p2p").fault_fallback_epochs, 0u);
  const RunResult stale = run_row("nessa_stale");
  EXPECT_GT(stale.fault_stale_epochs, 0u);
  EXPECT_LT(stale.fault_stale_epochs, stale.epochs.size() - 1);
  const RunResult corrupt = run_row("nessa_corrupt");
  EXPECT_GT(corrupt.quarantined_chunks, 0u);
  EXPECT_GT(corrupt.chunk_refetches, 0u);
  EXPECT_GT(run_row("nessa_chunked").epochs.front().chunk_fetches, 0u);
  EXPECT_FALSE(run_row("nessa_scenario").epochs.front().class_mix.empty());
}

INSTANTIATE_TEST_SUITE_P(Rows, RunGolden, ::testing::ValuesIn(kGolden));

}  // namespace
}  // namespace nessa::core
