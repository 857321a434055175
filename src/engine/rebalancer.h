// Load-driven placement: moves a HOT partition to a fresh shard slot
// (optionally on a different disk) without operator intervention -- the
// hotspot-migration primitive of the MMOG scaling literature, layered on
// the machinery the repo already has. PR 5 built the mechanism
// (MigratePartition at a committed cut, epoch-bumped manifests); PR 2
// built the signals (per-shard write-time/tick-duration EWMAs in the
// stagger scheduler); this file connects them and adds a third signal,
// the per-partition dirty-mark rate surfaced from the engines' dirty
// maps, which ranks partitions by WRITE LOAD rather than by how long
// their current disk takes to flush.
//
// The policy is deliberately conservative -- it must never oscillate:
//   - a partition is "hot" only while its smoothed dirty-mark rate
//     exceeds `imbalance_ratio` times the mean rate of the OTHER
//     partitions, for `hysteresis_ticks` CONSECUTIVE tick boundaries;
//   - after any migration the policy stands down for `cooldown_ticks`;
//   - a partition is migrated at most once per Rebalancer lifetime (the
//     strongest possible anti-thrash guarantee: a zone never ping-pongs);
//   - an idle fleet never migrates (`min_marks_per_tick` floors the
//     signal), and the first `warmup_ticks` boundaries only observe.
//
// Crash safety comes for free: every action the rebalancer drives --
// RequestConsistentCut, CommitConsistentCut, MigratePartition with its
// manifest commit -- is already atomic-per-step, so a crash at ANY
// boundary lands in a well-defined epoch (the rebalancer crash sweep in
// tests/rebalancer_test.cc walks every step). The rebalancer itself
// holds only volatile bookkeeping and simply re-learns after a restart.
#ifndef TICKPOINT_ENGINE_REBALANCER_H_
#define TICKPOINT_ENGINE_REBALANCER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace tickpoint {

class ShardedEngine;

/// Knobs of the hot-partition detector and the migration it triggers.
struct RebalancePolicy {
  /// A partition is hot while its smoothed dirty-mark rate exceeds this
  /// multiple of the mean rate of the other partitions.
  double imbalance_ratio = 2.0;
  /// Consecutive hot tick boundaries required before a migration is
  /// triggered (the oscillation guard).
  uint32_t hysteresis_ticks = 4;
  /// Tick boundaries to observe (and smooth) before the detector may
  /// trigger at all.
  uint64_t warmup_ticks = 4;
  /// Minimum fleet ticks between two migrations.
  uint64_t cooldown_ticks = 64;
  /// Floor on the hot partition's smoothed marks-per-tick: an idle fleet
  /// (everything near zero) never looks imbalanced.
  double min_marks_per_tick = 1.0;
  /// Upper bound on migrations this rebalancer may drive (0 = unlimited).
  uint32_t max_migrations = 1;
  /// EWMA smoothing factor for the per-partition mark rate.
  double ewma_alpha = 0.4;
  /// Mount-point root for spawned slots: non-empty lands every automated
  /// migration's destination directory under this path (a different
  /// disk), recorded durably in the fleet manifest.
  std::string spawn_mount_root;

  bool Valid() const {
    return imbalance_ratio > 1.0 && hysteresis_ticks > 0 &&
           min_marks_per_tick >= 0.0 && ewma_alpha > 0.0 && ewma_alpha <= 1.0;
  }
};

/// One committed automated migration (inspection/bench).
struct RebalanceEvent {
  uint32_t partition = 0;
  uint32_t to_slot = 0;
  /// Smoothed rate ratio (hot partition vs mean of others) at decision.
  double hot_ratio = 0.0;
  /// Tick boundary at which the detector fired (the cut request).
  uint64_t decided_tick = 0;
  /// The consistent-cut tick the migration ran at.
  uint64_t cut_tick = 0;
};

/// The auto-rebalance driver. Owned by Fleet (EnableAutoRebalance) and
/// evaluated once per fleet tick from Fleet::EndTick, on the facade
/// thread -- no threads or locks of its own. State machine per boundary:
///
///   kIdle          sample mark rates, update hot streaks; when a
///                  partition stays hot through the hysteresis window,
///                  RequestConsistentCut and go to kCutRequested.
///                  Rates are read at the fleet's common marks boundary
///                  (ShardedEngine::CommonMarksBoundary), the newest tick
///                  every runner has applied, from the runners'
///                  tick-stamped samples -- so every partition's window
///                  covers the same ticks however far apart the runners
///                  are, and a runner that is ahead never looks hot. The
///                  read stops one boundary short of the facade's, whose
///                  tick the runners may or may not have applied yet. A
///                  facade boundary at which the read boundary has not
///                  moved is uninformative: it leaves the rates, streaks,
///                  and warmup count untouched.
///   kCutRequested  keep ticking until the fleet tick passes the cut
///                  tick, then CommitConsistentCut + MigratePartition
///                  (to a freshly spawned slot, under the policy's mount
///                  root) and return to kIdle.
///
/// While a USER cut is in flight the detector stands down; conversely a
/// user RequestConsistentCut while the rebalancer's own cut is armed
/// fails with the coordinator's usual one-cut-in-flight error.
class Rebalancer {
 public:
  /// Baselines every partition's mark count at `engine`'s common marks
  /// boundary, so the first evaluated window starts where the rebalancer
  /// was enabled.
  Rebalancer(const RebalancePolicy& policy, const ShardedEngine& engine);

  /// Runs one evaluation step against the quiesced facade state; called
  /// by Fleet::EndTick after a successful engine tick. Errors from the
  /// cut/migration protocol propagate (they fail the fleet tick exactly
  /// like a shard error would).
  Status OnTickBoundary(ShardedEngine* engine);

  const RebalancePolicy& policy() const { return policy_; }
  /// Committed automated migrations so far.
  uint32_t migrations() const { return migrations_; }
  /// The last committed automated migration (meaningful once
  /// migrations() > 0).
  const RebalanceEvent& last_event() const { return last_event_; }
  /// True between the rebalancer's cut request and its commit+migrate.
  bool migration_pending() const { return phase_ == Phase::kCutRequested; }
  /// Partition `p`'s smoothed dirty-marks-per-tick (0 before warmup).
  double RatePerTick(uint32_t p) const;
  /// Current consecutive-hot-boundary count of partition `p`.
  uint32_t HotStreak(uint32_t p) const;

 private:
  enum class Phase { kIdle, kCutRequested };

  /// Sentinel for sample_boundary_: no baseline sample taken yet.
  static constexpr uint64_t kNoSample = UINT64_MAX;

  /// Samples every partition's cumulative mark counter at the common
  /// marks boundary and folds the per-tick deltas since the previous
  /// sample into the smoothed rates. False when the boundary was
  /// uninformative (the common boundary has not moved, or this sample
  /// only set the baseline): no rate or streak was touched.
  bool SampleRates(const ShardedEngine& engine);
  /// The hysteresis-qualified hot partition, or -1.
  int PickHotPartition(const ShardedEngine& engine);

  RebalancePolicy policy_;
  Phase phase_ = Phase::kIdle;
  /// Common marks boundary of the previous sample, or kNoSample.
  uint64_t sample_boundary_ = kNoSample;
  /// Each partition's cumulative counter at sample_boundary_.
  std::vector<uint64_t> prev_marks_;
  /// Smoothed marks-per-tick per partition.
  std::vector<double> rate_;
  /// Consecutive boundaries each partition has been hot.
  std::vector<uint32_t> hot_streak_;
  /// Partitions this rebalancer already moved (never re-migrated).
  std::vector<uint8_t> migrated_;
  uint64_t boundaries_seen_ = 0;
  /// Fleet tick of the last committed migration, or UINT64_MAX.
  uint64_t last_migration_tick_ = UINT64_MAX;
  // Pending decision (kCutRequested).
  uint32_t pending_partition_ = 0;
  uint32_t pending_to_slot_ = 0;
  uint64_t pending_cut_tick_ = 0;
  uint64_t pending_decided_tick_ = 0;
  double pending_ratio_ = 0.0;
  uint32_t migrations_ = 0;
  RebalanceEvent last_event_;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_REBALANCER_H_
