// Bounded history compaction: decides which retained generations and
// archived logical-log segments a RetentionPolicy lets a shard drop, and
// which straddling segments must be rewritten (truncated at the window
// base) so disk stays bounded while the advertised restorable window stays
// exactly intact.
//
// The split of responsibilities: this file owns the *policy* (a pure plan
// over the HistoryIndex, unit-testable without touching disk);
// ShardHistory::Compact owns the *mechanics* (executing a plan under the
// index-first crash-atomic protocol documented in history.h).
//
// Invariants every plan preserves:
//   - the newest generation always survives;
//   - the window base B is the oldest surviving generation's base tick
//     (its consistent tick, or its LogStore generation's full flush):
//     segments wholly below B are dropped, segments straddling B are
//     rewritten keeping only records with tick >= B (under a NEW segment
//     id -- the old file stays valid until the index repoints);
//   - segments at or above B are never touched, so every tick in the
//     post-compaction window [C - 1, high] of the oldest survivor's tick C
//     remains restorable.
#ifndef TICKPOINT_ENGINE_COMPACTOR_H_
#define TICKPOINT_ENGINE_COMPACTOR_H_

#include <cstdint>
#include <vector>

#include "engine/history.h"

namespace tickpoint {

/// Outcome of one compaction pass (bytes are index-referenced payload
/// bytes before/after -- the bounded-disk measurement the retention bench
/// and the nightly soak assert on).
struct CompactionStats {
  uint64_t generations_dropped = 0;
  uint64_t segments_dropped = 0;
  uint64_t segments_rewritten = 0;
  uint64_t bytes_before = 0;
  uint64_t bytes_after = 0;
};

/// What one compaction pass will do. Empty vectors = nothing to do.
struct CompactionPlan {
  /// Oldest surviving generation's base tick: the tick below which no
  /// logical record is needed anymore.
  uint64_t window_base = 0;
  std::vector<uint64_t> drop_generations;   // generation seqs to delete
  std::vector<uint64_t> drop_segments;      // segment ids to delete
  std::vector<uint64_t> rewrite_segments;   // ids straddling window_base

  bool NoOp() const {
    return drop_generations.empty() && drop_segments.empty() &&
           rewrite_segments.empty();
  }
};

/// Plans a compaction of `index` under `policy`: keeps the generations of
/// the newest `policy.max_generations` bases, additionally drops generations
/// whose consistent tick trails the newest by more than
/// `policy.max_retained_ticks` (when non-zero), and derives the segment
/// drops/rewrites from the surviving window base. Pure -- no I/O.
CompactionPlan PlanCompaction(const HistoryIndex& index,
                              const RetentionPolicy& policy);

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_COMPACTOR_H_
