// Core-internal checkpoint codec + session shared by every run driver.
//
// A TrainerSnapshot is everything a trainer needs to continue a run
// bit-identically from an epoch boundary: the substrate model weights
// (nn::save_weights blob), SGD velocity buffers, the trainer's RNG stream
// (plus each Dropout layer's private mask stream), the partial RunResult,
// and — for the NeSSA-family drivers — the candidate pool, loss history,
// carried-forward coreset and degraded-mode deadline basis. The payload is
// opaque bytes to ckpt::Writer/Reader; this codec owns the layout.
//
// A snapshot is bound to its run by a (tag, fingerprint) pair: the tag
// names the driver ("nessa", "full", ...) and the fingerprint hashes the
// run parameters that determine the trajectory (seed, epochs, batch size,
// substrate/paper sizes, architecture, subset knob). Resuming with a
// mismatched configuration is a typed kBadPayload error, never silent
// divergence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nessa/ckpt/config.hpp"
#include "nessa/ckpt/store.hpp"
#include "nessa/core/pipeline.hpp"
#include "nessa/nn/model.hpp"
#include "nessa/nn/optimizer.hpp"
#include "nessa/selection/drivers.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::core::detail {

/// State every driver carries across epochs.
struct CommonCkpt {
  util::Rng::State rng;
  std::vector<std::uint8_t> model_blob;        ///< nn::save_weights bytes
  std::vector<std::vector<float>> velocities;  ///< SGD slots, params order
  std::vector<util::Rng::State> dropout_rngs;  ///< Dropout layers, model order
  RunResult partial;                           ///< completed epochs + counters
  /// Byte totals so far of the NeSSA-family drivers, whose `partial` keeps
  /// zero byte counters; zero for the other drivers.
  std::uint64_t traffic_interconnect = 0;
  std::uint64_t traffic_p2p = 0;
  /// The selection-overlap baseline (empty for full-data drivers and for
  /// NeSSA, whose carried coreset holds it).
  std::vector<std::size_t> prev_subset;
};

/// Extra state of the NeSSA-family drivers (single- and multi-device).
struct NessaCkpt {
  std::vector<std::size_t> pool;
  std::vector<std::vector<float>> history;     ///< LossHistory windows
  std::vector<std::uint8_t> last_correct;      ///< 0/1 per sample
  double fraction = 0.0;
  double prev_loss = -1.0;
  selection::CoresetResult coreset;            ///< carried-forward subset
  util::SimTime nominal_fpga_phase = 0;        ///< deadline basis
};

struct TrainerSnapshot {
  std::string tag;
  std::uint64_t next_epoch = 0;  ///< first epoch the resumed run executes
  std::uint64_t fingerprint = 0;
  CommonCkpt common;
  bool has_nessa = false;
  NessaCkpt nessa;
};

[[nodiscard]] std::vector<std::uint8_t> encode_trainer_snapshot(
    const TrainerSnapshot& snapshot);
/// Throws ckpt::SnapshotError(kBadPayload / kTruncated) on malformed input.
[[nodiscard]] TrainerSnapshot decode_trainer_snapshot(
    const std::vector<std::uint8_t>& payload);

/// Hash of the run parameters that pin a trajectory. `knob` carries the
/// driver's scalar knob (subset fraction), `extra` any integer knob
/// (device count for the multi-device driver).
[[nodiscard]] std::uint64_t run_fingerprint(std::string_view tag,
                                            const PipelineInputs& inputs,
                                            double knob = 0.0,
                                            std::uint64_t extra = 0);

/// One driver's view of the checkpoint config: owns the Writer (creating
/// the directory eagerly when enabled), performs the resume handshake, and
/// encodes/writes snapshots on the configured cadence.
class CheckpointSession {
 public:
  CheckpointSession(const ckpt::CheckpointConfig& config, std::string tag,
                    std::uint64_t fingerprint);

  [[nodiscard]] bool enabled() const noexcept { return config_.enabled(); }

  /// The snapshot to resume from, or nullopt when not resuming. Throws
  /// ckpt::SnapshotError — kNoSnapshot when the directory holds no valid
  /// snapshot, kBadPayload when the newest valid snapshot belongs to a
  /// different driver or run configuration.
  [[nodiscard]] std::optional<TrainerSnapshot> restore();

  /// Should a snapshot be written after `completed` epochs?
  [[nodiscard]] bool due(std::uint64_t completed) const noexcept;

  /// Encode + atomically persist (tag/fingerprint are filled in here).
  void save(TrainerSnapshot snapshot);

 private:
  ckpt::CheckpointConfig config_;
  std::string tag_;
  std::uint64_t fingerprint_ = 0;
  std::optional<ckpt::Writer> writer_;
};

}  // namespace nessa::core::detail
