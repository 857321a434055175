// Fleet-wide consistent cut (ROADMAP cross-shard consistency item; the
// MMO-fleet extension of the paper's per-shard exactness guarantee).
//
// The staggered schedule deliberately leaves the K shards at DIFFERENT
// checkpoint generations, which is perfect for steady-state disk bandwidth
// and useless for zone migration or a whole-world snapshot: those need
// every shard's durable state at the SAME tick. The coordinator runs a
// two-phase protocol on top of the existing per-shard machinery:
//
//   Phase 1 (prepare): the coordinator picks a cut tick T a few ticks
//   ahead of the fleet tick. Every ShardRunner drains its mailbox up to T
//   and starts a checkpoint at exactly T -- overriding the stagger
//   schedule for that one generation -- whose consistent tick is exactly
//   T + 1. The mutator blocks only for the snapshot; the image is written
//   on the shard's writer thread. The shard's engine acks the cut itself:
//   the cut EndTick stamps {T, checkpoint seq, stall} into its ack slot,
//   and the image is durable once the engine's writer has finished that
//   seq.
//
//   Phase 2 (commit): only after ALL shards acked and every cut image is
//   durable does the coordinator write the fleet-level cut manifest (shard
//   count, per-shard checkpoint seq, CRC) with an atomic tmp+rename
//   publish (PublishFile, util/io.h). A crash anywhere before
//   the rename -- including between the last shard ack and the commit --
//   leaves no committed manifest, and cut recovery falls back to latest
//   recovery as if no cut had been attempted.
//
// The manifest is what makes Fleet::RecoverToCut possible: it pins the
// fleet to tick T even when later staggered checkpoints exist on disk.
#ifndef TICKPOINT_ENGINE_CONSISTENT_CUT_H_
#define TICKPOINT_ENGINE_CONSISTENT_CUT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace tickpoint {

/// One shard's ack in a committed cut: the checkpoint that carries the
/// shard's state at the cut.
struct CutShardRecord {
  /// Sequence number of the shard's cut checkpoint.
  uint64_t checkpoint_seq = 0;
  /// Ticks whose effects the cut image contains: always cut_tick + 1.
  uint64_t consistent_ticks = 0;
};

/// The committed fleet-level cut: every shard holds a durable checkpoint
/// at exactly `cut_tick`.
struct CutManifest {
  uint64_t cut_tick = 0;
  /// Indexed by shard id; size is the fleet's shard count.
  std::vector<CutShardRecord> shards;
};

/// Path of the cut manifest under the fleet root directory.
std::string CutManifestPath(const std::string& root);

/// Atomically publishes `manifest` as the committed cut (PublishFile: temp
/// file, rename over the manifest path, directory fsync when `fsync` is
/// set). At most one committed manifest exists; a newer cut replaces it.
Status WriteCutManifest(const std::string& root, const CutManifest& manifest,
                        bool fsync);

/// Reads the committed manifest. NotFound when no cut was ever committed;
/// Corruption when the file is torn or fails its CRC (callers treat both
/// as "no committed cut" and fall back to latest recovery).
StatusOr<CutManifest> ReadCutManifest(const std::string& root);

/// The coordinator state machine, driven entirely from the fleet facade's
/// caller thread (no internal locking). ShardedEngine owns one and
/// consults it every EndTick.
class ConsistentCutCoordinator {
 public:
  ConsistentCutCoordinator(std::string root, uint32_t num_shards, bool fsync)
      : root_(std::move(root)), num_shards_(num_shards), fsync_(fsync) {}

  /// Phase 1 start: picks T = current_tick + lead_ticks and arms the cut.
  /// At most one cut may be in flight.
  StatusOr<uint64_t> Arm(uint64_t current_tick, uint64_t lead_ticks) {
    if (armed_) {
      return Status::FailedPrecondition(
          "a consistent cut is already in flight (tick " +
          std::to_string(cut_tick_) + ")");
    }
    armed_ = true;
    cut_tick_ = current_tick + lead_ticks;
    return cut_tick_;
  }

  bool armed() const { return armed_; }
  uint64_t cut_tick() const { return cut_tick_; }

  /// True while the stagger scheduler must stand down: from arming through
  /// the cut tick itself, so no regular checkpoint start can collide with
  /// (or delay) the cut generation. The fixed schedule resumes by itself
  /// after T; adaptive plans are realigned by the facade.
  bool SuppressesScheduledStart(uint64_t tick) const {
    return armed_ && tick <= cut_tick_;
  }

  /// True exactly when `tick` is the armed cut tick.
  bool IsCutTick(uint64_t tick) const { return armed_ && tick == cut_tick_; }

  /// Phase 2: all shards acked; publishes the manifest and disarms. `acks`
  /// must hold one record per shard in shard order.
  Status Commit(const std::vector<CutShardRecord>& acks) {
    if (!armed_) {
      return Status::FailedPrecondition("no consistent cut armed");
    }
    armed_ = false;
    if (acks.size() != num_shards_) {
      return Status::Internal("cut commit with " +
                              std::to_string(acks.size()) + " acks for " +
                              std::to_string(num_shards_) + " shards");
    }
    CutManifest manifest;
    manifest.cut_tick = cut_tick_;
    manifest.shards = acks;
    return WriteCutManifest(root_, manifest, fsync_);
  }

  /// Abandons an armed cut without committing (fleet failure mid-cut).
  void Disarm() { armed_ = false; }

 private:
  std::string root_;
  uint32_t num_shards_;
  bool fsync_;
  bool armed_ = false;
  uint64_t cut_tick_ = 0;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_CONSISTENT_CUT_H_
