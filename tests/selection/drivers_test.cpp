#include "nessa/selection/drivers.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <set>

#include "nessa/util/rng.hpp"

namespace nessa::selection {
namespace {

struct Instance {
  Tensor embeddings;
  std::vector<std::int32_t> labels;
};

/// Clustered embeddings: `classes` groups, `per_class` rows each.
Instance make_instance(std::size_t classes, std::size_t per_class,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  Instance inst;
  const std::size_t n = classes * per_class;
  inst.embeddings = Tensor({n, 4});
  inst.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % classes;
    inst.labels[i] = static_cast<std::int32_t>(c);
    for (std::size_t d = 0; d < 4; ++d) {
      inst.embeddings(i, d) = static_cast<float>(
          (d == c % 4 ? 3.0 : 0.0) + rng.gaussian(0.0, 0.3));
    }
  }
  return inst;
}

TEST(ProportionalBudgets, ExactSplit) {
  std::vector<std::size_t> sizes{50, 30, 20};
  auto b = proportional_budgets(sizes, 10);
  EXPECT_EQ(b, (std::vector<std::size_t>{5, 3, 2}));
}

TEST(ProportionalBudgets, LargestRemainder) {
  std::vector<std::size_t> sizes{10, 10, 10};
  auto b = proportional_budgets(sizes, 10);
  EXPECT_EQ(std::accumulate(b.begin(), b.end(), std::size_t{0}), 10u);
  for (auto v : b) EXPECT_GE(v, 3u);
}

TEST(ProportionalBudgets, NeverExceedsClassSize) {
  std::vector<std::size_t> sizes{2, 100};
  auto b = proportional_budgets(sizes, 50);
  EXPECT_LE(b[0], 2u);
  EXPECT_EQ(std::accumulate(b.begin(), b.end(), std::size_t{0}), 50u);
}

TEST(ProportionalBudgets, KClampedToTotal) {
  std::vector<std::size_t> sizes{3, 4};
  auto b = proportional_budgets(sizes, 100);
  EXPECT_EQ(b, (std::vector<std::size_t>{3, 4}));
}

TEST(ProportionalBudgets, ZeroCases) {
  std::vector<std::size_t> sizes{5, 5};
  EXPECT_EQ(proportional_budgets(sizes, 0),
            (std::vector<std::size_t>{0, 0}));
  std::vector<std::size_t> empty_sizes{0, 0};
  EXPECT_EQ(proportional_budgets(empty_sizes, 5),
            (std::vector<std::size_t>{0, 0}));
}

TEST(SelectCoreset, ReturnsRequestedBudget) {
  auto inst = make_instance(4, 25, 1);
  DriverConfig cfg;
  auto result = select_coreset(inst.embeddings, inst.labels, {}, 20, cfg);
  EXPECT_EQ(result.indices.size(), 20u);
  EXPECT_EQ(result.weights.size(), 20u);
  std::set<std::size_t> unique(result.indices.begin(), result.indices.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(SelectCoreset, PerClassKeepsClassBalance) {
  auto inst = make_instance(4, 25, 2);
  DriverConfig cfg;
  cfg.per_class = true;
  auto result = select_coreset(inst.embeddings, inst.labels, {}, 20, cfg);
  std::vector<std::size_t> per_class(4, 0);
  for (auto idx : result.indices) {
    ++per_class[static_cast<std::size_t>(inst.labels[idx])];
  }
  for (auto c : per_class) EXPECT_EQ(c, 5u);
}

TEST(SelectCoreset, WeightsCoverCandidates) {
  auto inst = make_instance(3, 30, 3);
  DriverConfig cfg;
  auto result = select_coreset(inst.embeddings, inst.labels, {}, 9, cfg);
  // Per-class facility location: weights within a class sum to the class
  // candidate count, so the grand total is n.
  EXPECT_EQ(std::accumulate(result.weights.begin(), result.weights.end(),
                            std::size_t{0}),
            90u);
}

TEST(SelectCoreset, GlobalIdsMapped) {
  auto inst = make_instance(2, 10, 4);
  std::vector<std::size_t> ids(20);
  for (std::size_t i = 0; i < 20; ++i) ids[i] = 1000 + i;
  DriverConfig cfg;
  auto result = select_coreset(inst.embeddings, inst.labels, ids, 6, cfg);
  for (auto idx : result.indices) {
    EXPECT_GE(idx, 1000u);
    EXPECT_LT(idx, 1020u);
  }
}

TEST(SelectCoreset, PartitioningBoundsKernelMemory) {
  auto inst = make_instance(2, 200, 5);
  DriverConfig mono;
  mono.partition_quota = 0;
  auto big = select_coreset(inst.embeddings, inst.labels, {}, 40, mono);

  DriverConfig part;
  part.partition_quota = 5;
  auto small = select_coreset(inst.embeddings, inst.labels, {}, 40, part);

  EXPECT_EQ(small.indices.size(), 40u);
  EXPECT_LT(small.peak_kernel_bytes, big.peak_kernel_bytes);
  // Chunked similarity work is much smaller than the monolithic n^2.
  EXPECT_LT(small.similarity_ops, big.similarity_ops / 2);
}

TEST(SelectCoreset, PartitionedStillClassBalanced) {
  auto inst = make_instance(4, 50, 6);
  DriverConfig cfg;
  cfg.partition_quota = 5;
  auto result = select_coreset(inst.embeddings, inst.labels, {}, 40, cfg);
  EXPECT_EQ(result.indices.size(), 40u);
  std::vector<std::size_t> per_class(4, 0);
  for (auto idx : result.indices) {
    ++per_class[static_cast<std::size_t>(inst.labels[idx])];
  }
  for (auto c : per_class) EXPECT_EQ(c, 10u);
}

TEST(SelectCoreset, StochasticGreedyWorks) {
  auto inst = make_instance(3, 40, 7);
  DriverConfig cfg;
  cfg.greedy = GreedyKind::kStochastic;
  auto result = select_coreset(inst.embeddings, inst.labels, {}, 12, cfg);
  EXPECT_EQ(result.indices.size(), 12u);
}

TEST(SelectCoreset, NaiveAndLazyAgree) {
  auto inst = make_instance(3, 30, 8);
  DriverConfig naive_cfg;
  naive_cfg.greedy = GreedyKind::kNaive;
  DriverConfig lazy_cfg;
  lazy_cfg.greedy = GreedyKind::kLazy;
  auto a = select_coreset(inst.embeddings, inst.labels, {}, 15, naive_cfg);
  auto b = select_coreset(inst.embeddings, inst.labels, {}, 15, lazy_cfg);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
}

TEST(SelectCoreset, EdgeCases) {
  auto inst = make_instance(2, 5, 9);
  DriverConfig cfg;
  EXPECT_TRUE(
      select_coreset(inst.embeddings, inst.labels, {}, 0, cfg).indices.empty());
  // Budget above candidate count: everything selected.
  auto all = select_coreset(inst.embeddings, inst.labels, {}, 100, cfg);
  EXPECT_EQ(all.indices.size(), 10u);
}

TEST(SelectCoreset, ValidatesInputs) {
  Tensor emb({4, 2});
  std::vector<std::int32_t> labels{0, 1};  // wrong length
  DriverConfig cfg;
  EXPECT_THROW(select_coreset(emb, labels, {}, 2, cfg),
               std::invalid_argument);
  std::vector<std::int32_t> negative{0, -1, 0, 1};
  EXPECT_THROW(select_coreset(emb, negative, {}, 2, cfg),
               std::invalid_argument);
  std::vector<std::int32_t> ok{0, 1, 0, 1};
  std::vector<std::size_t> bad_ids{1, 2};
  EXPECT_THROW(select_coreset(emb, ok, bad_ids, 2, cfg),
               std::invalid_argument);
}

TEST(SelectCoreset, ImbalancedClassesGetProportionalBudgets) {
  // Heavily imbalanced candidates: budgets must track class frequencies.
  util::Rng rng(55);
  const std::size_t n = 600;
  Tensor emb({n, 4});
  std::vector<std::int32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t c = i < 400 ? 0 : (i < 550 ? 1 : 2);  // 400/150/50
    labels[i] = c;
    for (std::size_t d = 0; d < 4; ++d) {
      emb(i, d) = static_cast<float>((d == static_cast<std::size_t>(c))
                                         ? 2.0
                                         : 0.0) +
                  static_cast<float>(rng.gaussian(0.0, 0.3));
    }
  }
  DriverConfig cfg;
  auto result = select_coreset(emb, labels, {}, 60, cfg);
  std::vector<std::size_t> per_class(3, 0);
  for (auto idx : result.indices) {
    ++per_class[static_cast<std::size_t>(labels[idx])];
  }
  EXPECT_EQ(per_class[0], 40u);
  EXPECT_EQ(per_class[1], 15u);
  EXPECT_EQ(per_class[2], 5u);
}

// Parameterized sweep: every configuration combination must return the
// requested budget with distinct indices — the invariant the trainer needs.
struct SweepParam {
  bool per_class;
  std::size_t quota;
  GreedyKind greedy;
};

// Names each case (e.g. PerClass_Q4_Lazy) instead of letting gtest dump
// the struct's bytes, whose padding is uninitialized: gtest_discover_tests
// builds the ctest ID from this, so the IDs stay the same across builds.
void PrintTo(const SweepParam& param, std::ostream* os) {
  const char* greedy = param.greedy == GreedyKind::kLazy    ? "Lazy"
                       : param.greedy == GreedyKind::kNaive ? "Naive"
                                                            : "Stochastic";
  *os << (param.per_class ? "PerClass" : "Global") << "_Q" << param.quota
      << "_" << greedy;
}

class DriverSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DriverSweep, BudgetAndDistinctness) {
  const auto param = GetParam();
  auto inst = make_instance(4, 30, 42);
  DriverConfig cfg;
  cfg.per_class = param.per_class;
  cfg.partition_quota = param.quota;
  cfg.greedy = param.greedy;
  auto result = select_coreset(inst.embeddings, inst.labels, {}, 24, cfg);
  EXPECT_EQ(result.indices.size(), 24u);
  std::set<std::size_t> unique(result.indices.begin(), result.indices.end());
  EXPECT_EQ(unique.size(), 24u);
  EXPECT_GT(result.objective, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DriverSweep,
    ::testing::Values(SweepParam{true, 0, GreedyKind::kLazy},
                      SweepParam{true, 4, GreedyKind::kLazy},
                      SweepParam{true, 8, GreedyKind::kNaive},
                      SweepParam{true, 4, GreedyKind::kStochastic},
                      SweepParam{false, 0, GreedyKind::kLazy},
                      SweepParam{false, 6, GreedyKind::kLazy},
                      SweepParam{false, 6, GreedyKind::kStochastic},
                      SweepParam{false, 0, GreedyKind::kNaive}));

}  // namespace
}  // namespace nessa::selection
