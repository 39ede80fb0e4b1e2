#include "trainer_ckpt.hpp"

#include <utility>

#include "nessa/ckpt/buffer.hpp"
#include "nessa/telemetry/telemetry.hpp"

namespace nessa::core::detail {

namespace {

void put_rng_state(ckpt::BufWriter& w, const util::Rng::State& s) {
  for (std::uint64_t word : s.words) w.u64(word);
  w.f64(s.gaussian_spare);
  w.boolean(s.gaussian_cached);
}

util::Rng::State get_rng_state(ckpt::BufReader& r) {
  util::Rng::State s;
  for (auto& word : s.words) word = r.u64();
  s.gaussian_spare = r.f64();
  s.gaussian_cached = r.boolean();
  return s;
}

void put_sim_time(ckpt::BufWriter& w, util::SimTime t) {
  w.u64(static_cast<std::uint64_t>(t));
}

util::SimTime get_sim_time(ckpt::BufReader& r) {
  return static_cast<util::SimTime>(r.u64());
}

void put_result(ckpt::BufWriter& w, const RunResult& result) {
  w.u64(result.epochs.size());
  for (const EpochReport& e : result.epochs) {
    w.u64(e.epoch);
    w.f64(e.train_loss);
    w.f64(e.test_accuracy);
    w.u64(e.subset_size);
    w.u64(e.pool_size);
    w.f64(e.subset_fraction);
    put_sim_time(w, e.cost.storage_scan);
    put_sim_time(w, e.cost.selection);
    put_sim_time(w, e.cost.subset_transfer);
    put_sim_time(w, e.cost.gpu_compute);
    put_sim_time(w, e.cost.feedback);
    w.boolean(e.cost.selection_overlapped);
    put_sim_time(w, e.cost.modeled_total);
    w.f64(e.selection_overlap);
    w.u64(e.chunk_fetches);
    w.u64(e.class_mix.size());
    for (std::uint32_t count : e.class_mix) w.u64(count);
  }
  // Derived aggregates (final/best accuracy, time totals) are recomputed by
  // finalize(); only the monotone counters need to survive.
  w.u64(result.interconnect_bytes);
  w.u64(result.p2p_bytes);
  w.u64(result.fault_fallback_epochs);
  w.u64(result.fault_stale_epochs);
  w.u64(result.chunk_corruptions);
  w.u64(result.chunk_refetches);
  w.u64(result.quarantined_chunks);
}

RunResult get_result(ckpt::BufReader& r) {
  RunResult result;
  const std::uint64_t n = r.u64();
  result.epochs.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    EpochReport e;
    e.epoch = static_cast<std::size_t>(r.u64());
    e.train_loss = r.f64();
    e.test_accuracy = r.f64();
    e.subset_size = static_cast<std::size_t>(r.u64());
    e.pool_size = static_cast<std::size_t>(r.u64());
    e.subset_fraction = r.f64();
    e.cost.storage_scan = get_sim_time(r);
    e.cost.selection = get_sim_time(r);
    e.cost.subset_transfer = get_sim_time(r);
    e.cost.gpu_compute = get_sim_time(r);
    e.cost.feedback = get_sim_time(r);
    e.cost.selection_overlapped = r.boolean();
    e.cost.modeled_total = get_sim_time(r);
    e.selection_overlap = r.f64();
    e.chunk_fetches = r.u64();
    const std::uint64_t classes = r.u64();
    e.class_mix.reserve(static_cast<std::size_t>(classes));
    for (std::uint64_t c = 0; c < classes; ++c) {
      e.class_mix.push_back(static_cast<std::uint32_t>(r.u64()));
    }
    result.epochs.push_back(std::move(e));
  }
  result.interconnect_bytes = r.u64();
  result.p2p_bytes = r.u64();
  result.fault_fallback_epochs = r.u64();
  result.fault_stale_epochs = r.u64();
  result.chunk_corruptions = r.u64();
  result.chunk_refetches = r.u64();
  result.quarantined_chunks = r.u64();
  return result;
}

void put_float_table(ckpt::BufWriter& w,
                     const std::vector<std::vector<float>>& table) {
  w.u64(table.size());
  for (const auto& row : table) w.f32_vec(row);
}

std::vector<std::vector<float>> get_float_table(ckpt::BufReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<std::vector<float>> table;
  table.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) table.push_back(r.f32_vec());
  return table;
}

std::uint64_t mix(std::uint64_t state, std::uint64_t value) {
  std::uint64_t s = state ^ value;
  return util::splitmix64(s);
}

}  // namespace

std::vector<std::uint8_t> encode_trainer_snapshot(
    const TrainerSnapshot& snapshot) {
  ckpt::BufWriter w;
  w.str(snapshot.tag);
  w.u64(snapshot.next_epoch);
  w.u64(snapshot.fingerprint);

  put_rng_state(w, snapshot.common.rng);
  w.blob(snapshot.common.model_blob);
  put_float_table(w, snapshot.common.velocities);
  w.u64(snapshot.common.dropout_rngs.size());
  for (const auto& s : snapshot.common.dropout_rngs) put_rng_state(w, s);
  put_result(w, snapshot.common.partial);
  w.u64(snapshot.common.traffic_interconnect);
  w.u64(snapshot.common.traffic_p2p);
  w.index_vec(snapshot.common.prev_subset);

  w.boolean(snapshot.has_nessa);
  if (snapshot.has_nessa) {
    const NessaCkpt& ns = snapshot.nessa;
    w.index_vec(ns.pool);
    put_float_table(w, ns.history);
    w.blob(ns.last_correct);
    w.f64(ns.fraction);
    w.f64(ns.prev_loss);
    w.index_vec(ns.coreset.indices);
    w.index_vec(ns.coreset.weights);
    w.f64(ns.coreset.objective);
    w.u64(ns.coreset.gain_evaluations);
    w.u64(ns.coreset.peak_kernel_bytes);
    w.u64(ns.coreset.similarity_ops);
    w.u64(ns.coreset.greedy_ops);
    put_sim_time(w, ns.nominal_fpga_phase);
  }
  return w.take();
}

TrainerSnapshot decode_trainer_snapshot(
    const std::vector<std::uint8_t>& payload) {
  ckpt::BufReader r(payload);
  TrainerSnapshot snapshot;
  snapshot.tag = r.str();
  snapshot.next_epoch = r.u64();
  snapshot.fingerprint = r.u64();

  snapshot.common.rng = get_rng_state(r);
  snapshot.common.model_blob = r.blob();
  snapshot.common.velocities = get_float_table(r);
  const std::uint64_t dropouts = r.u64();
  snapshot.common.dropout_rngs.reserve(static_cast<std::size_t>(dropouts));
  for (std::uint64_t i = 0; i < dropouts; ++i) {
    snapshot.common.dropout_rngs.push_back(get_rng_state(r));
  }
  snapshot.common.partial = get_result(r);
  snapshot.common.traffic_interconnect = r.u64();
  snapshot.common.traffic_p2p = r.u64();
  snapshot.common.prev_subset = r.index_vec();

  snapshot.has_nessa = r.boolean();
  if (snapshot.has_nessa) {
    NessaCkpt& ns = snapshot.nessa;
    ns.pool = r.index_vec();
    ns.history = get_float_table(r);
    ns.last_correct = r.blob();
    ns.fraction = r.f64();
    ns.prev_loss = r.f64();
    ns.coreset.indices = r.index_vec();
    ns.coreset.weights = r.index_vec();
    ns.coreset.objective = r.f64();
    ns.coreset.gain_evaluations = static_cast<std::size_t>(r.u64());
    ns.coreset.peak_kernel_bytes = r.u64();
    ns.coreset.similarity_ops = r.u64();
    ns.coreset.greedy_ops = r.u64();
    ns.nominal_fpga_phase = get_sim_time(r);
  }
  if (!r.done()) {
    throw ckpt::SnapshotError(
        ckpt::SnapshotFault::kBadPayload,
        "trainer snapshot has " + std::to_string(r.remaining()) +
            " trailing bytes");
  }
  return snapshot;
}

std::uint64_t run_fingerprint(std::string_view tag,
                              const PipelineInputs& inputs, double knob,
                              std::uint64_t extra) {
  std::uint64_t h = 0x6e657373612d636bULL;  // "nessa-ck"
  for (char c : tag) h = mix(h, static_cast<std::uint64_t>(c));
  h = mix(h, inputs.train.seed);
  h = mix(h, inputs.train.epochs);
  h = mix(h, inputs.train.batch_size);
  h = mix(h, inputs.dataset != nullptr ? inputs.dataset->train_size() : 0);
  h = mix(h, inputs.info.paper_train_size);
  for (std::size_t width : inputs.model.hidden) h = mix(h, width);
  h = mix(h, std::bit_cast<std::uint64_t>(knob));
  h = mix(h, extra);
  // The streaming interface pins the trajectory too: a different chunk
  // budget changes the scan accounting, and a different scenario stream
  // changes every epoch's visible data.
  h = mix(h, inputs.train.chunk_samples);
  h = mix(h, inputs.stream != nullptr ? inputs.stream->fingerprint() : 0);
  return h;
}

CheckpointSession::CheckpointSession(const ckpt::CheckpointConfig& config,
                                     std::string tag,
                                     std::uint64_t fingerprint)
    : config_(config), tag_(std::move(tag)), fingerprint_(fingerprint) {
  if (config_.every_epochs == 0) config_.every_epochs = 1;
  if (config_.enabled()) writer_.emplace(config_);
}

std::optional<TrainerSnapshot> CheckpointSession::restore() {
  if (!config_.resume) return std::nullopt;
  const ckpt::Snapshot snap = ckpt::Reader(config_.dir).load_latest();
  TrainerSnapshot snapshot = decode_trainer_snapshot(snap.payload);
  if (snapshot.tag != tag_) {
    throw ckpt::SnapshotError(
        ckpt::SnapshotFault::kBadPayload,
        "snapshot belongs to driver '" + snapshot.tag +
            "', cannot resume driver '" + tag_ + "'");
  }
  if (snapshot.fingerprint != fingerprint_) {
    throw ckpt::SnapshotError(
        ckpt::SnapshotFault::kBadPayload,
        "snapshot fingerprint mismatch: the run configuration differs from "
        "the checkpointed run");
  }
  if (snapshot.next_epoch != snap.epoch) {
    throw ckpt::SnapshotError(
        ckpt::SnapshotFault::kBadPayload,
        "snapshot epoch header disagrees with its payload");
  }
  telemetry::count("ckpt.resumes");
  telemetry::gauge_set("ckpt.resume_epoch",
                       static_cast<double>(snapshot.next_epoch));
  return snapshot;
}

bool CheckpointSession::due(std::uint64_t completed) const noexcept {
  return config_.enabled() && completed > 0 &&
         completed % config_.every_epochs == 0;
}

void CheckpointSession::save(TrainerSnapshot snapshot) {
  snapshot.tag = tag_;
  snapshot.fingerprint = fingerprint_;
  writer_->write(snapshot.next_epoch, encode_trainer_snapshot(snapshot));
}

}  // namespace nessa::core::detail
