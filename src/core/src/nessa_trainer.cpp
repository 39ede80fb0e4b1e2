// The NeSSA pipeline (paper §3, Fig. 3):
//   1. stream the candidate pool from flash to the FPGA over P2P,
//   2. run the quantized target model forward near-storage to get gradient
//      embeddings + losses (real computation via quant::QuantizedMlp),
//   3. per-class, partition-chunked facility-location selection,
//   4. ship only the selected subset to the GPU and train on it,
//   5. quantize the updated weights and feed them back to the FPGA,
//   6. subset biasing drops learned samples from the candidate pool every
//      `drop_interval_epochs`; dynamic sizing shrinks the subset while the
//      loss falls quickly.
// FPGA selection for epoch t+1 overlaps GPU training of epoch t.
//
// Multi-SmartSSD NeSSA (paper §5 future work, built on GreeDi [42]) shares
// every step but 3 and the pricing: the pool is sharded across D devices,
// each runs the scan and a local facility-location round over its shard in
// parallel, the local winners' int8 embeddings ship to a merge device that
// re-selects k over the union, and the weights are broadcast back to all
// devices. The per-device phase takes the max over devices; merge traffic
// and the broadcast scale with D.
#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "epoch_loop.hpp"
#include "nessa/ckpt/errors.hpp"
#include "nessa/core/train_utils.hpp"
#include "nessa/fault/epoch_schedule.hpp"
#include "nessa/selection/drivers.hpp"
#include "nessa/selection/greedi.hpp"
#include "nessa/telemetry/telemetry.hpp"
#include "nessa/util/stats.hpp"
#include "pipeline_common.hpp"

namespace nessa::core {

namespace {

using detail::Subset;
using detail::Trainer;

/// The rows one selection pass may choose from.
struct Candidates {
  tensor::Tensor embeddings;
  std::vector<std::int32_t> labels;
  std::vector<std::size_t> indices;  ///< dataset rows, ascending
  std::uint64_t chunk_fetches = 0;   ///< 0 on the monolithic scan
};

/// NeSSA's cross-epoch state, shared by the single- and multi-device
/// pipelines: the near-storage kernel and its weight feedback (§3.2.1), the
/// candidate pool and loss history behind subset biasing (§3.2.2) and the
/// subset fraction behind dynamic sizing.
class NessaSelector : public detail::Selector {
 public:
  EpochCost end_epoch(Trainer& t, const EpochReport& report) override {
    if (config_.weight_feedback) {
      auto span = telemetry::wall_span("nessa-feedback", "core");
      kernel_->refresh(t.model);
    }
    const smartssd::TrafficStats before = t.system.traffic();
    const EpochCost cost = price(t, report);
    t.result.interconnect_bytes +=
        t.system.traffic().interconnect_bytes - before.interconnect_bytes;
    t.result.p2p_bytes += t.system.traffic().p2p_bytes - before.p2p_bytes;
    if (config_.subset_biasing && report.epoch + 1 < t.inputs.train.epochs &&
        (report.epoch + 1) % config_.drop_interval_epochs == 0) {
      drop_learned();
    }
    if (config_.dynamic_sizing) resize(report.train_loss);
    return cost;
  }

  void save(const Trainer&, detail::TrainerSnapshot& snap) const override {
    // NeSSA snapshots carry the traffic totals in the common section's
    // traffic fields; the partial result's byte counters stay zero.
    snap.common.traffic_interconnect =
        std::exchange(snap.common.partial.interconnect_bytes, 0);
    snap.common.traffic_p2p = std::exchange(snap.common.partial.p2p_bytes, 0);
    snap.has_nessa = true;
    detail::NessaCkpt& ns = snap.nessa;
    ns.pool = pool_;
    ns.history = history_.windows();
    ns.last_correct.assign(last_correct_.begin(), last_correct_.end());
    ns.fraction = fraction_;
    ns.prev_loss = prev_loss_;
  }

  void restore(Trainer& t, detail::TrainerSnapshot& snap) override {
    detail::NessaCkpt& ns = snap.nessa;
    const auto reject = [](const std::string& why) {
      throw ckpt::SnapshotError(ckpt::SnapshotFault::kBadPayload, why);
    };
    const auto out_of_range = [&](const std::vector<std::size_t>& ids) {
      return std::any_of(ids.begin(), ids.end(),
                         [&](std::size_t idx) { return idx >= n_; });
    };
    if (!snap.has_nessa || ns.last_correct.size() != n_ ||
        ns.history.size() != n_) {
      reject("snapshot does not match the " + tag + " driver's dataset");
    }
    if (out_of_range(ns.pool)) reject("snapshot pool index out of range");
    if (out_of_range(ns.coreset.indices)) {
      reject("snapshot coreset index out of range");
    }
    pool_ = std::move(ns.pool);
    history_.restore(std::move(ns.history));
    last_correct_.assign(ns.last_correct.begin(), ns.last_correct.end());
    fraction_ = ns.fraction;
    prev_loss_ = ns.prev_loss;
    t.result.interconnect_bytes = snap.common.traffic_interconnect;
    t.result.p2p_bytes = snap.common.traffic_p2p;
    // The kernel was built from the deterministic initial weights; bring it
    // to the checkpointed state exactly as the uninterrupted run did.
    if (config_.weight_feedback && snap.next_epoch > 0) {
      kernel_->refresh(t.model);
    }
  }

 protected:
  NessaSelector(const Trainer& t, const char* tag, const NessaConfig& config,
                std::unique_ptr<SelectionModel> kernel, std::uint64_t extra)
      : Selector(tag, config.subset_fraction, extra),
        config_(config),
        n_(t.inputs.dataset->train_size()),
        kernel_(std::move(kernel)),
        pool_(iota_indices(n_)),
        macs_per_sample_(std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(static_cast<std::uint64_t>(
                       t.inputs.model.paper_gflops_per_sample * 1e9 / 2.0)) *
                   config.selection_proxy_factor *
                   kernel_->mac_cost_factor()))),
        qweight_bytes_(static_cast<std::uint64_t>(
            t.inputs.model.paper_params_millions * 1e6)),
        history_(n_, config.loss_window_epochs),
        last_correct_(n_, false),
        fraction_(config.subset_fraction) {
    driver_.greedy = config.greedy;
    driver_.stochastic_epsilon = config.stochastic_epsilon;
    driver_.per_class = true;
    driver_.partition_quota = config.partition_quota;
    driver_.parallelism = config.parallelism;
  }

  /// Price the epoch at paper scale (before biasing shrinks the pool).
  virtual EpochCost price(Trainer& t, const EpochReport& report) = 0;

  /// This epoch's subset size, from the current fraction.
  std::size_t budget(const Trainer& t) {
    return k_ = detail::subset_budget(t.inputs, fraction_);
  }

  /// Score the pool near storage, record each scored row's loss and
  /// correctness, and return the rows selection may choose from. Rows in
  /// quarantined chunks are never scored: history and selection see only
  /// the surviving rows.
  Candidates scan(Trainer& t, const data::Dataset& data,
                  std::size_t chunk_samples = 0,
                  const data::ChunkIntegrity* integrity = nullptr) {
    auto scored = detail::score_pool(
        *kernel_, data.train(), pool_, config_.scaled_embeddings,
        t.inputs.train.batch_size, chunk_samples,
        data.stored_bytes_per_sample(), integrity);
    t.result.chunk_corruptions += scored.integrity.corruptions;
    t.result.chunk_refetches += scored.integrity.refetches;
    t.result.quarantined_chunks += scored.integrity.quarantined;

    const auto excluded = [&](std::size_t i) {
      return !scored.excluded.empty() && scored.excluded[i] != 0;
    };
    Candidates out;
    out.chunk_fetches = scored.chunk_fetches;
    out.indices.reserve(pool_.size());
    out.labels.reserve(pool_.size());
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (excluded(i)) continue;
      history_.record(pool_[i], scored.emb.losses[i]);
      last_correct_[pool_[i]] = scored.emb.correct[i];
      out.indices.push_back(pool_[i]);
      out.labels.push_back(data.train().labels[pool_[i]]);
    }
    if (out.indices.size() == pool_.size()) {
      out.embeddings = std::move(scored.emb.embeddings);
    } else if (!out.indices.empty()) {
      const std::size_t classes = scored.emb.embeddings.cols();
      out.embeddings = tensor::Tensor({out.indices.size(), classes});
      float* dst = out.embeddings.data();
      for (std::size_t i = 0; i < pool_.size(); ++i) {
        if (excluded(i)) continue;
        dst = std::copy_n(scored.emb.embeddings.data() + i * classes,
                          classes, dst);
      }
    }
    return out;
  }

  /// The epoch's training set: `indices` weighted by `weights`.
  Subset subset(const std::vector<std::size_t>& indices,
                const std::vector<std::size_t>& weights, bool fresh,
                std::uint64_t chunk_fetches) {
    weights_.assign(weights.begin(), weights.end());
    return {indices, weights_, pool_.size(), fresh, chunk_fetches};
  }

  /// Paper-scale candidate pool.
  [[nodiscard]] std::size_t paper_pool(const Trainer& t) const {
    return detail::paper_count(t.inputs, static_cast<double>(pool_.size()) /
                                             static_cast<double>(n_));
  }

  /// Substrate-to-paper rescaling of selection op counts: chunked
  /// selection work grows linearly with pool size, monolithic
  /// quadratically.
  [[nodiscard]] double op_ratio(const Trainer& t) const {
    const double ratio = detail::scale_ratio(t.inputs);
    return config_.partition_quota > 0 ? ratio : ratio * ratio;
  }

  const NessaConfig config_;
  const std::size_t n_;
  std::unique_ptr<SelectionModel> kernel_;
  /// Candidate pool (substrate indices, ascending); shrinks under biasing.
  std::vector<std::size_t> pool_;
  selection::DriverConfig driver_;
  /// Paper-scale scoring MACs per sample: the paper network's int8
  /// forward (~FLOPs / 2), scaled by the proxy and kernel cost factors.
  const std::uint64_t macs_per_sample_;
  /// One int8 weight refresh at paper scale (a byte per parameter).
  const std::uint64_t qweight_bytes_;

 private:
  /// §3.2.2 subset biasing: drop learned samples — windowed mean loss at or
  /// below the drop quantile and currently predicted correctly — keeping at
  /// least min_pool_factor × k candidates.
  void drop_learned() {
    auto span = telemetry::wall_span("nessa-subset-biasing", "core");
    std::vector<double> means(pool_.size());
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      means[i] = history_.windowed_mean(pool_[i]);
    }
    const double threshold =
        util::percentile_of(means, config_.drop_quantile * 100.0);
    const std::size_t min_pool = std::max<std::size_t>(
        k_, static_cast<std::size_t>(config_.min_pool_factor *
                                     static_cast<double>(k_)));
    std::vector<std::size_t> kept;
    kept.reserve(pool_.size());
    std::size_t dropped = 0;
    const std::size_t max_drop =
        pool_.size() > min_pool ? pool_.size() - min_pool : 0;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      const bool learned = means[i] <= threshold && last_correct_[pool_[i]];
      if (learned && dropped < max_drop) {
        ++dropped;
      } else {
        kept.push_back(pool_[i]);
      }
    }
    pool_ = std::move(kept);
  }

  /// Contribution (4), dynamic subset sizing: shrink the fraction while the
  /// loss falls faster than shrink_rate, grow it back when the loss rises.
  void resize(double train_loss) {
    if (prev_loss_ > 0.0 && train_loss > 0.0) {
      const double drop = (prev_loss_ - train_loss) / prev_loss_;
      if (drop > config_.shrink_rate) {
        fraction_ = std::max(config_.min_subset_fraction,
                             fraction_ * (1.0 - config_.shrink_step));
      } else if (drop < 0.0) {
        fraction_ = std::min(config_.subset_fraction,
                             fraction_ / (1.0 - config_.shrink_step));
      }
    }
    prev_loss_ = train_loss;
  }

  LossHistory history_;
  std::vector<bool> last_correct_;
  double fraction_;
  double prev_loss_ = -1.0;
  std::size_t k_ = 0;  ///< this epoch's budget, the biasing floor's basis
  std::vector<double> weights_;
};

/// Single-device NeSSA: re-selects every `selection_interval` epochs, scans
/// through the chunked interface, and degrades under the fault plan.
class SingleDevice final : public NessaSelector {
 public:
  SingleDevice(const Trainer& t, const NessaConfig& config)
      : NessaSelector(t, "nessa", config, make_selection_model(t.model), 0),
        interval_(std::max<std::size_t>(1, config.selection_interval)) {
    // Feedback bytes at paper scale: int8 payload for the quantized kernel,
    // 4 bytes/param for the float fallback.
    const double bytes_per_param =
        static_cast<double>(kernel_->payload_bytes()) /
        static_cast<double>(
            std::max<std::size_t>(1, t.model.parameter_count()));
    feedback_bytes_ = static_cast<std::uint64_t>(
        static_cast<double>(qweight_bytes_) *
        std::max(1.0, bytes_per_param));
    // Epoch-granularity fault replay (see fault/epoch_schedule.hpp).
    const fault::FaultPlan& plan = t.inputs.fault_plan;
    if (plan.enabled() || plan.selection_deadline_factor > 0.0) {
      faults_.emplace(plan);
    }
    // Chunk integrity (see data/integrity.hpp): with `corrupt` directives
    // in the plan and a chunked scan, every fetch is CRC-verified and the
    // plan's deterministic bit flips drive the re-fetch/quarantine path.
    if (plan.has_corruption() && t.inputs.train.chunk_samples > 0) {
      integrity_.emplace();
      integrity_->corruptor = data::corruptor_from_plan(plan);
    }
  }

  Subset select(Trainer& t, std::size_t epoch,
                const data::Dataset& data) override {
    driver_.seed = t.inputs.train.seed * 7919 + epoch;
    const std::size_t k = budget(t);
    reselect_ = epoch % interval_ == 0 || coreset_.indices.empty();
    // Degraded mode: an FPGA stall that blows the selection deadline means
    // this epoch trains on the carried-forward subset instead of waiting.
    // The deadline needs a nominal (fault-free) FPGA-phase basis, which the
    // last reselect epoch provides, so the first selection is never stale.
    if (faults_ && reselect_ && !coreset_.indices.empty() &&
        nominal_fpga_phase_ > 0 &&
        faults_->selection_timeout(epoch, nominal_fpga_phase_)) {
      reselect_ = false;
      ++t.result.fault_stale_epochs;
      telemetry::count("fault.stale_epochs");
    }
    std::uint64_t chunk_fetches = 0;
    if (reselect_) {
      // chunk_samples == 0 is the monolithic single-chunk fast path
      // (bit-identical to the pre-streaming scan, zero fetches charged).
      auto span = telemetry::wall_span("nessa-selection-pass", "core");
      const Candidates c = scan(t, data, t.inputs.train.chunk_samples,
                                integrity_ ? &*integrity_ : nullptr);
      chunk_fetches = c.chunk_fetches;
      if (!c.indices.empty()) {
        coreset_ = selection::select_coreset(
            c.embeddings, c.labels, c.indices, std::min(k, c.indices.size()),
            driver_);
      } else if (!coreset_.indices.empty()) {
        // Every chunk quarantined: carry the subset forward, stale.
        ++t.result.fault_stale_epochs;
        telemetry::count("fault.stale_epochs");
      }
    }
    return subset(coreset_.indices, coreset_.weights, reselect_,
                  chunk_fetches);
  }

  void save(const Trainer& t, detail::TrainerSnapshot& snap) const override {
    NessaSelector::save(t, snap);
    // The carried coreset is the overlap baseline; the common section's
    // copy stays empty.
    snap.common.prev_subset.clear();
    snap.nessa.coreset = coreset_;
    snap.nessa.nominal_fpga_phase = nominal_fpga_phase_;
  }

  void restore(Trainer& t, detail::TrainerSnapshot& snap) override {
    NessaSelector::restore(t, snap);
    coreset_ = std::move(snap.nessa.coreset);
    nominal_fpga_phase_ = snap.nessa.nominal_fpga_phase;
    t.prev_subset = coreset_.indices;
  }

 private:
  EpochCost price(Trainer& t, const EpochReport& report) override {
    const PipelineInputs& in = t.inputs;
    const std::size_t pool = paper_pool(t);
    NessaEpochDemand demand;
    demand.reselect = reselect_;
    demand.pool_records = pool;
    demand.subset_records = detail::paper_count(in, report.subset_fraction);
    demand.record_bytes = in.info.stored_bytes_per_sample;
    demand.forward_macs = static_cast<std::uint64_t>(pool) * macs_per_sample_;
    demand.selection_ops = static_cast<std::uint64_t>(
        static_cast<double>(coreset_.similarity_ops + coreset_.greedy_ops) *
        op_ratio(t));
    demand.train_gflops_per_sample = in.model.paper_gflops_per_sample;
    demand.batch_size = in.train.batch_size;
    demand.weight_feedback = config_.weight_feedback;
    demand.feedback_bytes = feedback_bytes_;
    // Chunk budget at paper scale: the substrate chunk size rescaled by the
    // dataset ratio. The event-driven model streams the scan as per-chunk
    // flash fetches instead of per-batch reads (flash-bus "chunk-fetch").
    demand.chunk_records =
        in.train.chunk_samples > 0
            ? std::max<std::size_t>(
                  1, static_cast<std::size_t>(std::llround(
                         static_cast<double>(in.train.chunk_samples) *
                         detail::scale_ratio(in))))
            : 0;
    if (faults_ && reselect_) {
      if (faults_->p2p_outage(report.epoch)) {
        demand.scan_via_host = true;
        ++t.result.fault_fallback_epochs;
        telemetry::count("fault.fallback.host_path");
      }
      demand.scan_slowdown = faults_->scan_slowdown(report.epoch);
      demand.selection_stall = faults_->selection_stall(report.epoch);
    }
    const EpochCost cost = t.perf->nessa_epoch(t.system, demand);
    if (reselect_) {
      // Refresh the deadline basis with this epoch's fault-free FPGA
      // phase (const timing queries — no byte accounting).
      nominal_fpga_phase_ =
          t.system.flash().batch_read_time(pool, demand.record_bytes) +
          t.system.fpga_forward_time(demand.forward_macs) +
          t.system.fpga_selection_time(demand.selection_ops);
    }
    return cost;
  }

  const std::size_t interval_;
  std::uint64_t feedback_bytes_ = 0;
  std::optional<fault::EpochSchedule> faults_;
  std::optional<data::ChunkIntegrity> integrity_;
  selection::CoresetResult coreset_;  ///< carried forward between selections
  util::SimTime nominal_fpga_phase_ = 0;  ///< selection-deadline basis
  bool reselect_ = true;
};

/// Multi-SmartSSD NeSSA: reselects every epoch with two-round GreeDi over
/// the int8 kernel's embeddings; monolithic scan, no fault replay.
class MultiDevice final : public NessaSelector {
 public:
  MultiDevice(const Trainer& t, const NessaConfig& config,
              std::size_t devices)
      : NessaSelector(t, "multi", config,
                      make_quantized_selection_model(t.model), devices),
        devices_(devices) {
    if (devices == 0) {
      throw std::invalid_argument("run_nessa_multi: need at least one device");
    }
    greedi_.num_partitions = devices;
  }

  Subset select(Trainer& t, std::size_t epoch,
                const data::Dataset& data) override {
    driver_.seed = t.inputs.train.seed * 6151 + epoch;
    greedi_.driver = driver_;
    auto span = telemetry::wall_span("nessa-selection-pass", "core");
    const Candidates c = scan(t, data);
    selected_ = selection::greedi_select(
        c.embeddings, c.labels, c.indices,
        std::min(budget(t), c.indices.size()), greedi_);
    return subset(selected_.indices, selected_.weights, true, 0);
  }

 private:
  EpochCost price(Trainer& t, const EpochReport& report) override {
    const PipelineInputs& in = t.inputs;
    const double ratio = detail::scale_ratio(in);
    const std::size_t pool = paper_pool(t);
    const std::size_t shard = (pool + devices_ - 1) / devices_;
    // Local phase: quantized forwards + the slowest device's local greedy.
    std::uint64_t worst_local_ops = 0;
    for (const auto& local : selected_.local) {
      worst_local_ops =
          std::max(worst_local_ops, local.similarity_ops + local.greedy_ops);
    }
    // Merge: local winners' int8 embeddings + ids cross the interconnect
    // to the merge device, which re-selects over the union.
    const std::size_t paper_union = std::min<std::size_t>(
        pool, static_cast<std::size_t>(
                  static_cast<double>(selected_.union_size) * ratio));
    const double merge_scale =
        selected_.union_size > 0
            ? std::pow(static_cast<double>(paper_union) /
                           static_cast<double>(selected_.union_size),
                       2.0)
            : 0.0;

    MultiEpochDemand demand;
    demand.devices = devices_;
    demand.shard_records = shard;
    demand.subset_records = detail::paper_count(in, report.subset_fraction);
    demand.record_bytes = in.info.stored_bytes_per_sample;
    demand.shard_forward_macs =
        static_cast<std::uint64_t>(shard) * macs_per_sample_;
    demand.local_selection_ops = static_cast<std::uint64_t>(
        static_cast<double>(worst_local_ops) * op_ratio(t));
    demand.merge_union_bytes =
        static_cast<std::uint64_t>(paper_union) *
        (in.dataset->num_classes() + sizeof(std::uint64_t));
    demand.merge_ops = static_cast<std::uint64_t>(
        static_cast<double>(selected_.merge.similarity_ops +
                            selected_.merge.greedy_ops) *
        merge_scale);
    demand.train_gflops_per_sample = in.model.paper_gflops_per_sample;
    demand.batch_size = in.train.batch_size;
    demand.feedback_bytes_per_device =
        config_.weight_feedback ? qweight_bytes_ : 0;
    return t.perf->multi_epoch(t.system, demand);
  }

  const std::size_t devices_;
  selection::GreediConfig greedi_;
  selection::GreediResult selected_;
};

}  // namespace

namespace detail {

RunResult run_nessa(const PipelineInputs& inputs, const NessaConfig& config,
                    smartssd::SmartSsdSystem& system) {
  return run_pipeline<SingleDevice>(inputs, system, config);
}

}  // namespace detail

RunResult run_nessa_multi(const PipelineInputs& inputs,
                          const NessaConfig& config,
                          const MultiDeviceConfig& multi,
                          smartssd::SmartSsdSystem& system) {
  return detail::run_pipeline<MultiDevice>(inputs, system, config,
                                           multi.devices);
}

}  // namespace nessa::core
