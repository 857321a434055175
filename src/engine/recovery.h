// Crash recovery (paper Sections 3.1 and 4.2): restore the newest
// consistent checkpoint, then replay the logical log to the target tick.
//
// One shard recovers along one source chain. The base image is the newest
// of the shard's live checkpoint images and -- only when those and the
// live logical log cannot reach an exact target -- its retained history
// generations (engine/history.h), among those consistent no later than
// the target. The archived log segments and the live logical log are then
// replayed in order, each applied run starting where the previous one
// ended. Recover and RecoverToTick are the two bounds of that chain.
//
// A fleet recovers through RecoverFleetTo, which needs only the fleet
// ROOT: topology, layout, algorithm and every knob come from the durable
// fleet manifest. A cut target is tick recovery at the committed cut's
// tick. The one fallback rule: when a cut or tick target is not
// reproducible on some shard, the whole fleet recovers to latest instead.
#ifndef TICKPOINT_ENGINE_RECOVERY_H_
#define TICKPOINT_ENGINE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/fleet_manifest.h"
#include "engine/history.h"
#include "engine/state_table.h"

namespace tickpoint {

/// Outcome of one shard's recovery.
struct RecoveryResult {
  /// Sequence number of the checkpoint image or history generation
  /// restored (meaningful only when restored_from_checkpoint).
  uint64_t image_seq = 0;
  /// Ticks whose effects the restored image contained.
  uint64_t image_consistent_ticks = 0;
  /// false: no image qualified; recovery replayed the logical log onto the
  /// initial (zeroed) state.
  bool restored_from_checkpoint = false;
  /// Ticks re-applied from archived segments and the logical log.
  uint64_t ticks_replayed = 0;
  /// One past the last tick whose effects are recovered.
  uint64_t recovered_ticks = 0;
  /// Measured wall time of the two recovery phases.
  double restore_seconds = 0.0;
  double replay_seconds = 0.0;

  double total_seconds() const { return restore_seconds + replay_seconds; }
};

/// Rebuilds the newest recoverable state of the shard previously run with
/// `config` into `out` (overwritten; it must use config.layout). Reads the
/// live checkpoint store and logical log under config.dir, never history.
/// Corruption when the log does not continue from the restored image.
StatusOr<RecoveryResult> Recover(const EngineConfig& config, StateTable* out);

/// Rebuilds the shard's state at EXACTLY the end of `tick`, even when
/// newer checkpoints exist, reaching into retained history when the live
/// sources cannot. Corruption when no chain of sources reproduces the tick
/// (outside the retained window, a gap, or a torn history).
StatusOr<RecoveryResult> RecoverToTick(const EngineConfig& config,
                                       uint64_t tick, StateTable* out);

/// Per-shard outcomes of one fleet recovery.
struct ShardedRecoveryResult {
  /// Indexed by partition. Staggered shards restore different checkpoint
  /// generations, then each replays its own log to the common target.
  std::vector<RecoveryResult> shards;
  /// Sums of the per-shard phase times. Shards recover concurrently, so
  /// these are total work across shards, not fleet wall time.
  double restore_seconds = 0.0;
  double replay_seconds = 0.0;
  /// min/max over shards of RecoveryResult::recovered_ticks. Equal unless a
  /// crash landed between shard group commits.
  uint64_t min_recovered_ticks = 0;
  uint64_t max_recovered_ticks = 0;

  double total_seconds() const { return restore_seconds + replay_seconds; }
};

/// What a fleet recovery aims for.
struct RecoveryTarget {
  enum class Kind { kLatest, kCut, kTick };
  Kind kind = Kind::kLatest;
  uint64_t tick = 0;  // kTick only

  static RecoveryTarget Latest() { return {}; }
  /// The committed consistent cut (cut-manifest.bin under the root).
  static RecoveryTarget Cut() { return {Kind::kCut, 0}; }
  static RecoveryTarget Tick(uint64_t tick) { return {Kind::kTick, tick}; }
};

/// Outcome of RecoverFleetTo.
struct FleetRecoveryResult {
  /// The newest intact fleet manifest (epoch, assignment, every knob).
  FleetManifest manifest;
  RecoveryTarget target;
  /// True: every partition is at exactly the end of `cut_tick` (the
  /// requested tick, or the committed cut's tick). False for a latest
  /// target and for a fallback.
  bool landed = false;
  uint64_t cut_tick = 0;
  /// Why a cut or tick target recovered to latest instead: NotFound or
  /// Corruption of the cut manifest, or the first shard's Corruption.
  /// OK when the fleet landed or the target was latest.
  Status fallback;
  ShardedRecoveryResult fleet;
};

/// Recovers every partition of the fleet under `root` into (*out)[p] from
/// the shard directory the manifest assigns it, shards in parallel.
/// Cut and tick targets land exactly or fall back fleet-wide to latest --
/// never a half-restored fleet. NotFound when `root` holds no manifest;
/// Corruption when the manifest is unreadable or names a missing
/// directory; FailedPrecondition for a future-version manifest;
/// InvalidArgument when the cut manifest's shard count disagrees with the
/// fleet. Any other error propagates, the lowest failing partition's
/// first.
StatusOr<FleetRecoveryResult> RecoverFleetTo(const std::string& root,
                                             const RecoveryTarget& target,
                                             std::vector<StateTable>* out);

/// The fleet's restorable tick window: the intersection over all
/// partitions of each shard's history window (ShardHistory::ComputeWindow).
/// Every tick T in [low_tick, high_tick] lands RecoverFleetTo with a tick
/// target. `any` is false when some shard retains no usable history
/// (retention off included).
StatusOr<HistoryWindow> RestorableFleetWindow(const std::string& root);

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_RECOVERY_H_
