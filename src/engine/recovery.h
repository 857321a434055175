// Crash recovery (paper Sections 3.1 and 4.2): restore the newest complete
// checkpoint, then replay the logical log to the crash tick.
//
// Fleet-level recovery is manifest-driven: RecoverFleet/RecoverFleetToCut
// read the durable fleet manifest and need only the fleet ROOT --
// topology, layout, algorithm, and every knob come from disk (the Fleet
// API builds on these). The config-supplying fleet shims of earlier
// generations are gone; the only config-taking entry point left is the
// single-Engine Recover/RecoverToTick pair.
#ifndef TICKPOINT_ENGINE_RECOVERY_H_
#define TICKPOINT_ENGINE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/fleet_manifest.h"
#include "engine/sharded_engine.h"
#include "engine/state_table.h"

namespace tickpoint {

/// Outcome of a recovery run.
struct RecoveryResult {
  /// Sequence number of the checkpoint image restored (meaningful only when
  /// restored_from_checkpoint).
  uint64_t image_seq = 0;
  /// Ticks whose effects the restored image contained.
  uint64_t image_consistent_ticks = 0;
  /// false: no complete image existed (early crash); recovery replayed the
  /// whole logical log onto the initial (zeroed) state.
  bool restored_from_checkpoint = false;
  /// Ticks re-applied from the logical log.
  uint64_t ticks_replayed = 0;
  /// One past the last tick whose effects are recovered.
  uint64_t recovered_ticks = 0;
  /// Measured wall time of the two recovery phases.
  double restore_seconds = 0.0;
  double replay_seconds = 0.0;

  double total_seconds() const { return restore_seconds + replay_seconds; }
};

/// Rebuilds the state of an engine previously run with `config` into `out`
/// (overwritten). Reads the checkpoint store and logical log under
/// config.dir. `out` must use config.layout.
StatusOr<RecoveryResult> Recover(const EngineConfig& config, StateTable* out);

/// Outcome of a whole-fleet recovery.
struct ShardedRecoveryResult {
  /// Per-shard outcomes, indexed by shard id. With staggered scheduling the
  /// shards are typically at different checkpoint generations, so
  /// image_seq/image_consistent_ticks differ per shard while every shard
  /// still replays its own logical log to the common crash tick.
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

/// Rebuilds one shard's state at EXACTLY the end of `cut_tick`, even when
/// newer checkpoints exist: restores the newest image consistent no later
/// than cut_tick + 1 (or starts from zeroed state when the logical log
/// reaches back to tick 0) and replays the logical log only through
/// cut_tick. Corruption if the durable sources cannot reproduce the cut
/// exactly (a gap before the restored image, or a log ending short of the
/// cut).
StatusOr<RecoveryResult> RecoverToTick(const EngineConfig& config,
                                       uint64_t cut_tick, StateTable* out);

/// Outcome of a whole-fleet recovery to a consistent cut.
struct ShardedCutRecoveryResult {
  /// True: a committed cut manifest was found and every shard below is at
  /// exactly `cut_tick`. False: no usable cut -- no committed manifest
  /// (never cut, crash before the commit, a torn manifest file), or the
  /// manifest's cut is no longer reproducible from some shard's durable
  /// sources (a death mid-fleet-resume can truncate a log an older cut
  /// depended on) -- and `fleet` holds the per-shard exact
  /// fallback, each shard at its own crash tick.
  bool used_manifest = false;
  uint64_t cut_tick = 0;
  ShardedRecoveryResult fleet;
};

/// Outcome of a manifest-driven fleet recovery: what the disk said the
/// fleet IS, plus the per-partition recovery results.
struct FleetRecoveryOutcome {
  /// The newest intact fleet manifest (epoch, assignment, every knob).
  FleetManifest manifest;
  /// Plain recovery: used_manifest is false and `fleet` holds each
  /// partition at its own crash tick. Cut recovery: as documented on
  /// ShardedCutRecoveryResult.
  ShardedCutRecoveryResult result;
};

/// Manifest-driven whole-fleet recovery to the newest recoverable state:
/// reads the fleet manifest under `root` (no config argument -- the disk
/// tells you), verifies every assigned shard directory exists, and
/// recovers each partition from the shard slot the manifest assigns it.
/// NotFound when `root` holds no manifest; Corruption when the manifest is
/// unreadable or disagrees with the directory layout; FailedPrecondition
/// for a future-version manifest.
StatusOr<FleetRecoveryOutcome> RecoverFleet(const std::string& root,
                                            std::vector<StateTable>* out);

/// Like RecoverFleet, but lands the fleet on the committed consistent cut
/// when one is reproducible (per-shard exact fallback otherwise), with the
/// partition assignment read from the fleet manifest.
StatusOr<FleetRecoveryOutcome> RecoverFleetToCut(const std::string& root,
                                                 std::vector<StateTable>* out);

/// Rebuilds one shard's state at EXACTLY the end of `tick`, reaching back
/// through the shard's retained history (engine/history.h) when the live
/// stores alone cannot reproduce it: tries RecoverToTick first, and on its
/// Corruption loads the newest retained generation consistent no later
/// than tick + 1 and replays the archived segments plus the live logical
/// log through `tick`. Corruption when neither source reproduces the tick
/// exactly (outside the retained window, or a torn history).
StatusOr<RecoveryResult> RecoverToHistoricTick(const EngineConfig& config,
                                               uint64_t tick,
                                               StateTable* out);

/// Manifest-driven whole-fleet point-in-time recovery: lands every
/// partition at exactly the end of `tick` via RecoverToHistoricTick. On
/// success result.used_manifest is true and result.cut_tick == tick. When
/// some shard cannot reproduce the tick (Corruption -- outside its
/// retained window, or torn history), falls back to per-shard latest
/// recovery: used_manifest false, each shard at its own crash tick --
/// never a half-restored fleet. Other errors propagate.
StatusOr<FleetRecoveryOutcome> RecoverFleetToTick(const std::string& root,
                                                  uint64_t tick,
                                                  std::vector<StateTable>* out);

/// The fleet's restorable tick window: the intersection over all
/// partitions of each shard's history window (ShardHistory::ComputeWindow).
/// Every tick T in [low_tick, high_tick] satisfies RecoverFleetToTick with
/// used_manifest true. `any` is false when some shard retains no usable
/// history (retention off included).
StatusOr<HistoryWindow> RestorableFleetWindow(const std::string& root);

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_RECOVERY_H_
