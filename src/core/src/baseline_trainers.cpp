// The comparison pipelines. All train the same substrate model as NeSSA;
// they differ in where and how the subset is chosen, and what that costs at
// paper scale:
//  - Full streams the whole dataset SSD -> host -> GPU every epoch (paper
//    "All Data" / Table 3 "Goal"); full_cached puts a SHADE/iCache-style
//    host cache in front of it (the paper's §1 argument that caching alone
//    cannot solve the training bottleneck — gradient work is untouched).
//  - Random needs no scan at all; it reads just the sampled subset.
//  - CRAIG [20] streams the full dataset to the host every epoch, runs a
//    float embedding pass on the GPU, then a per-class (unpartitioned)
//    lazy-greedy facility location on the CPU, and trains with
//    gamma-weighted SGD.
//  - K-centers [17] streams the full dataset to the host, extracts
//    penultimate features on the GPU, and runs greedy farthest-first on the
//    CPU — whose O(n k d_feat) distance work at paper scale is what makes
//    it the slowest system in Fig. 4.
//  - Loss top-k, the "biggest losers" heuristic [19], ranks by loss alone
//    and therefore chases label noise and boundary points without any
//    representativeness constraint.
#include <cmath>

#include "epoch_loop.hpp"
#include "nessa/core/train_utils.hpp"
#include "nessa/nn/embedding.hpp"
#include "nessa/selection/baselines.hpp"
#include "nessa/selection/drivers.hpp"
#include "nessa/selection/kcenter.hpp"
#include "pipeline_common.hpp"

namespace nessa::core {

namespace {

using detail::Subset;
using detail::Trainer;

/// Paper-scale cost of an epoch that streams `records` samples SSD -> host
/// -> GPU and trains on them; the bytes cross the interconnect.
EpochCost conventional_cost(Trainer& t, std::size_t records,
                            const smartssd::HostCache* cache = nullptr) {
  const std::uint64_t record_bytes = t.inputs.info.stored_bytes_per_sample;
  ConventionalDemand demand;
  demand.train_records = records;
  demand.record_bytes = record_bytes;
  demand.train_gflops_per_sample = t.inputs.model.paper_gflops_per_sample;
  demand.batch_size = t.inputs.train.batch_size;
  if (cache != nullptr) {
    // Identical gradient work; the cache only shortens the input pipeline
    // and shrinks interconnect traffic to the miss set.
    demand.data_time_override =
        cache->epoch_data_time(t.system.gpu(), records, record_bytes);
    t.result.interconnect_bytes +=
        cache->epoch_miss_bytes(records, record_bytes);
  } else {
    t.result.interconnect_bytes +=
        static_cast<std::uint64_t>(records) * record_bytes;
  }
  return t.perf->conventional_epoch(t.system, demand);
}

/// Paper-scale cost of a host-side selection epoch: the full dataset
/// streams to the host (raw link time or record decode for the GPU
/// inference pass, whichever dominates), the CPU spends `cpu_ops`
/// selecting, and the subset goes to the GPU.
EpochCost host_selection_cost(Trainer& t, double fraction, double cpu_ops) {
  const std::size_t paper_n = t.inputs.info.paper_train_size;
  HostSelectionDemand demand;
  demand.scan_records = paper_n;
  demand.subset_records = detail::paper_count(t.inputs, fraction);
  demand.record_bytes = t.inputs.info.stored_bytes_per_sample;
  demand.train_gflops_per_sample = t.inputs.model.paper_gflops_per_sample;
  demand.batch_size = t.inputs.train.batch_size;
  demand.cpu_selection_ops = cpu_ops;
  t.result.interconnect_bytes +=
      static_cast<std::uint64_t>(paper_n) * demand.record_bytes;
  return t.perf->host_selection_epoch(t.system, demand);
}

/// Penultimate feature width of the paper network (ResNet global-average-
/// pool output); drives the K-centers CPU distance cost at paper scale.
std::size_t paper_feature_dim(const nn::ModelSpec& spec) {
  if (spec.paper_name == "ResNet-50") return 2048;
  if (spec.paper_name == "ResNet-18") return 512;
  return 64;  // ResNet-20
}

class FullData final : public detail::Selector {
 public:
  FullData(const Trainer& t, const smartssd::HostCache* cache)
      : Selector(cache != nullptr ? "full_cached" : "full"),
        all_(iota_indices(t.inputs.dataset->train_size())),
        cache_(cache) {}

  Subset select(Trainer&, std::size_t, const data::Dataset&) override {
    return {all_, {}, all_.size(), /*fresh=*/false};
  }

  EpochCost end_epoch(Trainer& t, const EpochReport&) override {
    return conventional_cost(t, t.inputs.info.paper_train_size, cache_);
  }

 private:
  const std::vector<std::size_t> all_;
  const smartssd::HostCache* cache_;
};

class RandomSubset final : public detail::Selector {
 public:
  RandomSubset(const Trainer& t, double fraction)
      : Selector("random", fraction),
        k_(detail::subset_budget(t.inputs, fraction)) {}

  Subset select(Trainer& t, std::size_t, const data::Dataset&) override {
    subset_ = selection::random_subset(t.inputs.dataset->train_size(), k_,
                                       t.rng);
    return {subset_, {}, t.inputs.dataset->train_size()};
  }

  EpochCost end_epoch(Trainer& t, const EpochReport&) override {
    return conventional_cost(t, detail::paper_count(t.inputs, knob));
  }

 private:
  const std::size_t k_;
  std::vector<std::size_t> subset_;
};

class Craig final : public detail::Selector {
 public:
  Craig(const Trainer& t, double fraction)
      : Selector("craig", fraction),
        k_(detail::subset_budget(t.inputs, fraction)),
        all_(iota_indices(t.inputs.dataset->train_size())) {
    driver_.greedy = selection::GreedyKind::kLazy;
    driver_.per_class = true;
    driver_.partition_quota = 0;  // CRAIG selects over whole classes
  }

  Subset select(Trainer& t, std::size_t epoch,
                const data::Dataset& data) override {
    driver_.seed = t.inputs.train.seed * 104729 + epoch;
    // Float gradient embeddings over the full dataset (GPU inference).
    const auto emb = nn::compute_embeddings(t.model, data.train().features,
                                            data.train().labels,
                                            nn::EmbeddingKind::kLogitGrad);
    coreset_ = selection::select_coreset(emb.embeddings, data.train().labels,
                                         all_, k_, driver_);
    weights_.assign(coreset_.weights.begin(), coreset_.weights.end());
    return {coreset_.indices, weights_, all_.size()};
  }

  EpochCost end_epoch(Trainer& t, const EpochReport&) override {
    // Quadratic per class: no partitioning.
    const double ratio = detail::scale_ratio(t.inputs);
    return host_selection_cost(
        t, knob,
        static_cast<double>(coreset_.similarity_ops + coreset_.greedy_ops) *
            ratio * ratio);
  }

 private:
  const std::size_t k_;
  const std::vector<std::size_t> all_;
  selection::DriverConfig driver_;
  selection::CoresetResult coreset_;
  std::vector<double> weights_;
};

class KCenter final : public detail::Selector {
 public:
  KCenter(const Trainer& t, double fraction)
      : Selector("kcenter", fraction),
        k_(detail::subset_budget(t.inputs, fraction)) {}

  Subset select(Trainer& t, std::size_t,
                const data::Dataset& data) override {
    // Penultimate features of the float model (substrate-real).
    const auto fwd =
        nn::forward_with_penultimate(t.model, data.train().features);
    centers_ = selection::kcenter_greedy(fwd.penultimate, k_).selected;
    return {centers_, {}, t.inputs.dataset->train_size()};
  }

  EpochCost end_epoch(Trainer& t, const EpochReport&) override {
    // CPU farthest-first O(n k d_feat) distance work. Sener & Savarese's
    // method is the *robust* k-center: after the greedy seed it runs
    // several rounds of feasibility checks over the distance matrix. We
    // charge kRobustRounds passes over the greedy's O(n k d) distance work,
    // which is what makes K-centers slower end-to-end than full-data
    // training (Fig. 4).
    constexpr double kRobustRounds = 2.5;
    return host_selection_cost(
        t, knob,
        static_cast<double>(t.inputs.info.paper_train_size) *
            static_cast<double>(detail::paper_count(t.inputs, knob)) *
            static_cast<double>(paper_feature_dim(t.inputs.model)) * 3.0 *
            kRobustRounds);
  }

 private:
  const std::size_t k_;
  std::vector<std::size_t> centers_;
};

class LossTopk final : public detail::Selector {
 public:
  LossTopk(const Trainer& t, double fraction)
      : Selector("loss_topk", fraction),
        k_(detail::subset_budget(t.inputs, fraction)) {}

  Subset select(Trainer& t, std::size_t,
                const data::Dataset& data) override {
    // Loss scan over everything (GPU inference), then a trivial top-k.
    const auto emb = nn::compute_embeddings(t.model, data.train().features,
                                            data.train().labels,
                                            nn::EmbeddingKind::kLogitGrad);
    subset_ = selection::loss_topk(emb.losses, k_);
    return {subset_, {}, t.inputs.dataset->train_size()};
  }

  EpochCost end_epoch(Trainer& t, const EpochReport&) override {
    return host_selection_cost(t, knob, 0.0);  // no CPU greedy phase
  }

 private:
  const std::size_t k_;
  std::vector<std::size_t> subset_;
};

}  // namespace

namespace detail {

RunResult run_full(const PipelineInputs& inputs,
                   smartssd::SmartSsdSystem& system) {
  return run_pipeline<FullData>(inputs, system, nullptr);
}

}  // namespace detail

RunResult run_full_cached(const PipelineInputs& inputs,
                          const smartssd::HostCache& cache,
                          smartssd::SmartSsdSystem& system) {
  return detail::run_pipeline<FullData>(inputs, system, &cache);
}

RunResult run_random(const PipelineInputs& inputs, double subset_fraction,
                     smartssd::SmartSsdSystem& system) {
  return detail::run_pipeline<RandomSubset>(inputs, system, subset_fraction);
}

RunResult run_craig(const PipelineInputs& inputs, double subset_fraction,
                    smartssd::SmartSsdSystem& system) {
  return detail::run_pipeline<Craig>(inputs, system, subset_fraction);
}

RunResult run_kcenter(const PipelineInputs& inputs, double subset_fraction,
                      smartssd::SmartSsdSystem& system) {
  return detail::run_pipeline<KCenter>(inputs, system, subset_fraction);
}

RunResult run_loss_topk(const PipelineInputs& inputs, double subset_fraction,
                        smartssd::SmartSsdSystem& system) {
  return detail::run_pipeline<LossTopk>(inputs, system, subset_fraction);
}

}  // namespace nessa::core
