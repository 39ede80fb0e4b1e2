#include "nessa/core/run_config.hpp"

#include <sstream>
#include <stdexcept>

#include "nessa/ckpt/buffer.hpp"
#include "nessa/ckpt/store.hpp"
#include "nessa/core/pipeline.hpp"
#include "nessa/telemetry/telemetry.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::core {

std::vector<std::string> RunConfig::validate() const {
  // The JobSpec half carries every spec-side constraint; the host-side
  // options (parallelism, telemetry paths) have no invalid states today.
  return JobSpec::validate();
}

void RunConfig::validate_or_throw() const {
  const auto errors = validate();
  if (errors.empty()) return;
  std::ostringstream out;
  out << "RunConfig: " << errors.size() << " error(s): ";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out << "; ";
    out << errors[i];
  }
  throw std::invalid_argument(out.str());
}

namespace {

// --- pipeline checkpoint codec ----------------------------------------
// The batch-granular simulation is a pure function of its configuration,
// so its snapshot is the sequence of epoch barriers crossed so far (plus a
// fingerprint binding it to the configuration). Resume re-runs the
// deterministic simulation and verifies, barrier by barrier, that it
// retraces the checkpointed prefix bit-identically — any divergence is a
// typed kBadPayload error. Snapshots live in a `pipeline/` subdirectory so
// they never collide with the trainers' snapshots in the same dir.

std::uint64_t pipeline_fingerprint(const RunConfig& config) {
  std::uint64_t s = 0x706970656c696e65ULL;  // "pipeline"
  auto mix = [&s](std::uint64_t v) {
    s ^= v;
    std::uint64_t t = s;
    s = util::splitmix64(t);
  };
  mix(config.pipeline_epochs);
  mix(config.workload.pool_records);
  mix(config.workload.subset_records);
  mix(config.workload.record_bytes);
  mix(config.workload.batch_size);
  mix(config.workload.macs_per_record);
  mix(config.workload.selection_ops);
  mix(config.workload.feedback_bytes);
  mix(config.workload.chunk_records);
  mix(config.pipeline_options.p2p_scan ? 1 : 0);
  mix(config.pipeline_options.max_inflight);
  mix(config.fault_plan.seed);
  return s;
}

std::vector<std::uint8_t> encode_pipeline_snapshot(
    std::uint64_t fingerprint,
    const std::vector<smartssd::EpochBarrier>& barriers) {
  ckpt::BufWriter w;
  w.u64(fingerprint);
  w.u64(barriers.size());
  for (const auto& b : barriers) {
    w.u64(b.epoch);
    w.u64(static_cast<std::uint64_t>(b.at));
    w.boolean(b.host_fallback);
    w.u64(b.dropped_batches);
    w.u64(b.stale_epochs);
  }
  return w.take();
}

std::vector<smartssd::EpochBarrier> decode_pipeline_snapshot(
    const std::vector<std::uint8_t>& payload, std::uint64_t fingerprint) {
  ckpt::BufReader r(payload);
  if (r.u64() != fingerprint) {
    throw ckpt::SnapshotError(
        ckpt::SnapshotFault::kBadPayload,
        "pipeline snapshot fingerprint mismatch: the run configuration "
        "differs from the checkpointed run");
  }
  const std::uint64_t n = r.u64();
  std::vector<smartssd::EpochBarrier> barriers;
  barriers.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    smartssd::EpochBarrier b;
    b.epoch = static_cast<std::size_t>(r.u64());
    b.at = static_cast<util::SimTime>(r.u64());
    b.host_fallback = r.boolean();
    b.dropped_batches = r.u64();
    b.stale_epochs = r.u64();
    barriers.push_back(b);
  }
  if (!r.done()) {
    throw ckpt::SnapshotError(ckpt::SnapshotFault::kBadPayload,
                              "pipeline snapshot has trailing bytes");
  }
  return barriers;
}

}  // namespace

smartssd::PipelineTrace simulate(const RunConfig& config) {
  config.validate_or_throw();
  smartssd::PipelineOptions options = config.pipeline_options;
  if (config.fault_plan.enabled() ||
      config.fault_plan.selection_deadline_factor > 0.0 ||
      config.fault_plan.has_crash_point()) {
    options.fault_plan = &config.fault_plan;
  }
  if (!config.checkpoint.enabled()) {
    return smartssd::simulate_pipeline(config.system, config.workload,
                                       config.pipeline_epochs, options);
  }

  ckpt::CheckpointConfig ckpt_config = config.checkpoint;
  ckpt_config.dir += "/pipeline";
  if (ckpt_config.every_epochs == 0) ckpt_config.every_epochs = 1;
  const std::uint64_t fingerprint = pipeline_fingerprint(config);

  // Resume = deterministic replay: load the checkpointed barrier prefix,
  // re-run the simulation (the in-flight epoch-lookahead state at the
  // barrier is a pure function of the prefix), and verify each barrier the
  // replay crosses against the snapshot.
  std::vector<smartssd::EpochBarrier> stored;
  if (ckpt_config.resume) {
    const ckpt::Snapshot snap = ckpt::Reader(ckpt_config.dir).load_latest();
    stored = decode_pipeline_snapshot(snap.payload, fingerprint);
    telemetry::count("ckpt.resumes");
  }

  ckpt::Writer writer(ckpt_config);
  const std::size_t restored = stored.size();  // checkpointed prefix length
  std::size_t verified = 0;
  options.on_epoch_barrier = [&](const smartssd::EpochBarrier& b) {
    if (verified < restored) {
      const smartssd::EpochBarrier& s = stored[verified];
      if (s.epoch != b.epoch || s.at != b.at ||
          s.host_fallback != b.host_fallback ||
          s.dropped_batches != b.dropped_batches ||
          s.stale_epochs != b.stale_epochs) {
        throw ckpt::SnapshotError(
            ckpt::SnapshotFault::kBadPayload,
            "pipeline replay diverged from the checkpointed barrier at "
            "epoch " +
                std::to_string(b.epoch));
      }
      ++verified;
      return;  // already persisted by the crashed run
    }
    stored.push_back(b);  // extend the persisted prefix as the run advances
    if (b.epoch % ckpt_config.every_epochs == 0) {
      writer.write(b.epoch, encode_pipeline_snapshot(fingerprint, stored));
    }
  };
  return smartssd::simulate_pipeline(config.system, config.workload,
                                     config.pipeline_epochs, options);
}

}  // namespace nessa::core
