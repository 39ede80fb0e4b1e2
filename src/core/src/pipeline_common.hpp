// Internal helpers shared by the pipeline translation units.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nessa/core/near_storage.hpp"
#include "nessa/core/pipeline.hpp"
#include "nessa/data/integrity.hpp"

namespace nessa::core::detail {

/// A selection scan routed through the chunked streaming interface.
struct ChunkedScore {
  QEmbeddings emb;
  std::uint64_t chunk_fetches = 0;  ///< 0 on the monolithic path
  /// Pool positions landing in quarantined chunks (1 = excluded; rows hold
  /// zeros in `emb` and must not be scored/selected). Empty when integrity
  /// is off or nothing was quarantined.
  std::vector<std::uint8_t> excluded;
  /// Integrity ledger of this scan (all-zero without integrity).
  data::IntegrityStats integrity;
};

/// Score `pool` with `kernel`. chunk_samples == 0 is the monolithic path
/// (exactly the legacy kernel.score call, zero fetches). Otherwise the pool
/// streams through data::ChunkedDataset in the monolithic batch order —
/// batch composition is preserved because the int8 kernel quantizes
/// activations per batch, so the results are bit-identical to the
/// monolithic scan. Chunks no longer holding pool members are never
/// fetched (subset biasing therefore saves real chunk fetches).
///
/// With `integrity` set, every fetch is CRC-verified (re-fetch then
/// quarantine per its policy; its corruptor injects the plan's bit flips)
/// and rows of quarantined chunks are excluded from the scan — reported in
/// `excluded`, never silently scored. Batches are then formed from the
/// surviving rows in pool order.
ChunkedScore score_pool(SelectionModel& kernel, const data::Split& split,
                        std::span<const std::size_t> pool, bool scaled,
                        std::size_t batch_size, std::size_t chunk_samples,
                        std::size_t stored_bytes_per_sample,
                        const data::ChunkIntegrity* integrity = nullptr);

/// Substrate subset size for a fraction of the training set (at least 1).
std::size_t subset_budget(const PipelineInputs& inputs, double fraction);

/// Substrate-to-paper scale ratio (paper train size / substrate train size).
double scale_ratio(const PipelineInputs& inputs);

/// Paper-scale sample count corresponding to a substrate fraction.
std::size_t paper_count(const PipelineInputs& inputs, double fraction);

}  // namespace nessa::core::detail
