// The fleet handle: create / open / recover / resume a sharded checkpoint
// fleet from its ROOT DIRECTORY alone. Fleet::Create persists a durable
// FleetManifest superblock (fleet_manifest.h) next to the data; every
// later step discovers topology, layout, algorithm, disk organization and
// every knob from it -- the disk tells you.
//
// Lifecycle:
//   Fleet::Create(root, config)  -- a NEW fleet; refuses a root that is
//                                   already a fleet.
//   Fleet::Recover(root), RecoverToCut(root), RecoverToTick(root, T)
//                                -- recovery only, to the latest, cut or
//                                   tick target, through the single fleet
//                                   path (RecoverFleetTo in recovery.h):
//                                   returns a RecoveredFleet holding the
//                                   per-partition tables and the
//                                   FleetRecoveryResult. A cut or tick
//                                   target the fleet cannot reproduce
//                                   falls back to latest fleet-wide.
//   RecoveredFleet::Resume()     -- restarts the recovered fleet; a tick
//                                   landing resumes as a new fleet epoch.
//   Fleet::Open(root)            -- Recover + Resume in one call.
// The handle forwards the tick/cut API of ShardedEngine and adds
// MigratePartition -- the zone hand-off at a committed cut that bumps the
// fleet epoch (see ShardedEngine::MigratePartition for the protocol) --
// and the hot-failover pair SimulateShardCrash/FailoverShard, which
// revives a single dead shard from its peer's in-memory replica (disk
// recovery is the fallback; see replica_buffer.h).
#ifndef TICKPOINT_ENGINE_FLEET_H_
#define TICKPOINT_ENGINE_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/fleet_manifest.h"
#include "engine/rebalancer.h"
#include "engine/recovery.h"
#include "engine/sharded_engine.h"
#include "engine/state_table.h"

namespace tickpoint {

class Fleet;

/// The output of a fleet recovery: everything read back from disk, ready
/// to inspect or to Resume() into a live fleet.
class RecoveredFleet {
 public:
  /// The durable fleet description recovery ran under.
  const FleetManifest& manifest() const { return result_.manifest; }
  /// The target, whether the fleet landed on it (and why not), and the
  /// per-partition recovery stats.
  const FleetRecoveryResult& result() const { return result_; }
  /// True when this recovery landed on its cut or tick target.
  bool at_cut() const { return result_.landed; }
  /// True when a tick target landed; false after a fallback.
  bool at_requested_tick() const {
    return result_.landed &&
           result_.target.kind == RecoveryTarget::Kind::kTick;
  }
  /// The recovered per-partition state, indexed by partition.
  std::vector<StateTable>& tables() { return tables_; }
  const std::vector<StateTable>& tables() const { return tables_; }
  /// First tick a resumed incarnation will run: cut_tick + 1 after a
  /// landing, otherwise the fleet's minimum recovered tick.
  uint64_t resume_tick() const {
    return at_cut() ? result_.cut_tick + 1
                    : result_.fleet.min_recovered_ticks;
  }

  /// Restarts the fleet from this recovered state (the
  /// ShardedEngine::OpenResumed workflow: per-partition synchronous
  /// bootstrap checkpoints, stale state retired). Consumes the tables.
  /// After a tick landing (at_requested_tick()), the resume additionally
  /// commits the manifest as a new fleet epoch once every bootstrap is
  /// durable -- the old timeline's divergent future is retired and can
  /// never shadow the new one.
  StatusOr<std::unique_ptr<Fleet>> Resume();

 private:
  friend class Fleet;
  std::string root_;
  FleetRecoveryResult result_;
  std::vector<StateTable> tables_;
};

/// A live sharded checkpoint fleet bound to its self-describing root.
class Fleet {
 public:
  /// Creates a NEW fleet under `root` and commits its epoch-0 manifest.
  /// `config.shard.dir` may be empty or equal to `root` (it is overwritten
  /// with `root`). FailedPrecondition if `root` already holds a fleet
  /// manifest OR shard directories (a pre-manifest fleet) -- creation
  /// never silently clobbers existing fleet data (use Open to reopen one).
  /// InvalidArgument, before `root` is created, for retention on a
  /// double-backup algorithm (CheckRetention).
  static StatusOr<std::unique_ptr<Fleet>> Create(
      const std::string& root, const ShardedEngineConfig& config);

  /// Reopens an existing fleet from its root alone: Recover + Resume.
  /// NotFound when `root` is not a fleet.
  static StatusOr<std::unique_ptr<Fleet>> Open(const std::string& root);

  // Recovery without resuming (inspect, verify, or hand the tables to a
  // different process model): each is one call of RecoverFleetTo.

  /// The newest recoverable state.
  static StatusOr<RecoveredFleet> Recover(const std::string& root) {
    return RecoverTo(root, RecoveryTarget::Latest());
  }
  /// The committed consistent cut, reaching into retained history when
  /// the live logs no longer reach it.
  static StatusOr<RecoveredFleet> RecoverToCut(const std::string& root) {
    return RecoverTo(root, RecoveryTarget::Cut());
  }
  /// Point-in-time recovery to EXACTLY the end of `tick`, for any tick
  /// inside RestorableWindow; check at_requested_tick(). Resuming the
  /// result continues the old timeline from `tick` as a NEW fleet epoch.
  static StatusOr<RecoveredFleet> RecoverToTick(const std::string& root,
                                                uint64_t tick) {
    return RecoverTo(root, RecoveryTarget::Tick(tick));
  }
  /// The fleet's restorable tick window (RestorableFleetWindow): every
  /// tick inside it lands RecoverToTick. `any` false = no window
  /// (retention off or no usable history yet).
  static StatusOr<HistoryWindow> RestorableWindow(const std::string& root) {
    return RestorableFleetWindow(root);
  }

  // ---- Forwarded tick/cut/migration API (see sharded_engine.h) ----

  void BeginTick() { engine_->BeginTick(); }
  void ApplyUpdate(uint32_t partition, uint32_t cell, int32_t value) {
    engine_->ApplyUpdate(partition, cell, value);
  }
  /// Ends the fleet tick, then -- when auto-rebalance is enabled -- runs
  /// one Rebalancer evaluation step at the boundary (detect, cut,
  /// commit+migrate; see rebalancer.h). Rebalancer protocol errors
  /// propagate exactly like shard errors.
  Status EndTick();
  Status WaitForIdle() { return engine_->WaitForIdle(); }
  StatusOr<uint64_t> RequestConsistentCut() {
    return engine_->RequestConsistentCut();
  }
  Status CommitConsistentCut() { return engine_->CommitConsistentCut(); }
  Status MigratePartition(uint32_t partition, uint32_t to_slot,
                          const std::string& mount_root = "") {
    return engine_->MigratePartition(partition, to_slot, mount_root);
  }
  Status Shutdown() { return engine_->Shutdown(); }
  Status SimulateCrash() { return engine_->SimulateCrash(); }

  // ---- Load-driven auto-rebalancing (see rebalancer.h) ----

  /// Installs `policy` and evaluates it at every subsequent EndTick
  /// boundary. Replaces (and resets the learning state of) any previous
  /// policy. InvalidArgument for invalid knobs.
  Status EnableAutoRebalance(const RebalancePolicy& policy);
  /// Stops evaluating; an armed rebalancer cut is left for the caller to
  /// commit or abandon (it shows in cut_in_flight()).
  void DisableAutoRebalance() { rebalancer_.reset(); }
  /// The active rebalancer, or nullptr when auto-rebalance is off.
  Rebalancer* rebalancer() { return rebalancer_.get(); }
  const Rebalancer* rebalancer() const { return rebalancer_.get(); }

  // ---- Hot failover (see ShardedEngine::SimulateShardCrash/FailoverShard;
  // the replication topology lives in the manifest, so failover keeps
  // working after Fleet::Open of a restarted fleet) ----

  Status SimulateShardCrash(uint32_t partition) {
    return engine_->SimulateShardCrash(partition);
  }
  Status FailoverShard(uint32_t partition) {
    return engine_->FailoverShard(partition);
  }
  const FailoverReport& last_failover_report() const {
    return engine_->last_failover_report();
  }

  const std::string& root() const { return root_; }
  uint64_t epoch() const { return engine_->epoch(); }
  const FleetManifest& manifest() const { return engine_->manifest(); }
  uint32_t num_partitions() const { return engine_->num_shards(); }
  uint64_t current_tick() const { return engine_->current_tick(); }
  const MigrationReport& last_migration_report() const {
    return engine_->last_migration_report();
  }

  /// The underlying engine (for stats and per-shard inspection; the fleet
  /// stays the only construction path).
  ShardedEngine& engine() { return *engine_; }
  const ShardedEngine& engine() const { return *engine_; }

 private:
  friend class RecoveredFleet;

  static StatusOr<RecoveredFleet> RecoverTo(const std::string& root,
                                            const RecoveryTarget& target);

  Fleet(std::string root, std::unique_ptr<ShardedEngine> engine)
      : root_(std::move(root)), engine_(std::move(engine)) {}

  std::string root_;
  std::unique_ptr<ShardedEngine> engine_;
  /// Present while auto-rebalance is enabled; evaluated from EndTick.
  std::unique_ptr<Rebalancer> rebalancer_;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_FLEET_H_
