// K independent Engine instances behind one tick facade (paper Section 8
// future work: multiple shards per persistence disk).
//
// Each shard owns a disjoint state partition, its own logical log, and its
// own checkpoint directory under the shared root -- exactly the layout a
// multi-zone MMO server would run on one persistence disk. Every shard
// also owns a ShardRunner mutator thread: the facade's
// BeginTick/ApplyUpdate/EndTick only assemble per-shard update batches and
// mail them to the runners, which tick independently -- the fleet
// analogue of K zone servers on independent simulation loops.
// The StaggerScheduler decides, per tick, which shards begin a checkpoint
// (fixed i * period / K offsets, or the adaptive plan fed by measured
// write times), so the synchronized-vs-staggered disk-contention tradeoff
// projected by bench_shard_stagger can be measured on the real write path.
// Each shard's writer thread flushes concurrently with the others, which
// is precisely the contention under study.
//
// Fleet-level barriers exist only where the API demands a consistent view:
// Shutdown, SimulateCrash, and WaitForIdle drain every runner to the
// facade tick before acting.
//
// RequestConsistentCut/CommitConsistentCut layer the two-phase fleet-wide
// cut protocol (consistent_cut.h) on top: every shard checkpoints at one
// coordinator-chosen tick T, and a committed cut manifest lets
// Fleet::RecoverToCut restore the whole fleet to exactly T.
//
// Construction is Fleet-only: ShardedEngine::Open/OpenResumed are private
// entry points reached through Fleet::Create and RecoveredFleet::Resume
// (the disk-described lifecycle); there is no public config-supplying way
// to open a fleet.
#ifndef TICKPOINT_ENGINE_SHARDED_ENGINE_H_
#define TICKPOINT_ENGINE_SHARDED_ENGINE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/consistent_cut.h"
#include "engine/engine.h"
#include "engine/fleet_manifest.h"
#include "engine/shard_runner.h"
#include "engine/stagger_scheduler.h"

namespace tickpoint {

class Fleet;
class RecoveredFleet;

/// Checkpoint timing aggregated across all shards of a run.
struct ShardedCheckpointStats {
  uint64_t checkpoints = 0;
  double avg_total_seconds = 0.0;  // sync pause + async writer wall
  double max_total_seconds = 0.0;
  double avg_sync_seconds = 0.0;
  double avg_async_seconds = 0.0;
};

/// Outcome of the last committed consistent cut (bench/monitoring).
struct ConsistentCutReport {
  uint64_t cut_tick = 0;
  /// Wall time from RequestConsistentCut to the manifest rename.
  double commit_latency_seconds = 0.0;
  /// Slowest shard's mutator block inside the cut tick's EndTick.
  double max_shard_stall_seconds = 0.0;
};

/// Outcome of the last MigratePartition (bench/monitoring).
struct MigrationReport {
  uint32_t partition = 0;
  uint32_t from_slot = 0;
  uint32_t to_slot = 0;
  /// The fleet epoch the migration committed.
  uint64_t epoch = 0;
  /// First tick the partition runs on its new shard (== the cut tick + 1).
  uint64_t first_tick_on_new_shard = 0;
  /// Wall time of the whole move: source drain + destination bootstrap
  /// write + epoch-manifest commit.
  double move_seconds = 0.0;
};

/// Outcome of the last FailoverShard (bench/monitoring).
struct FailoverReport {
  uint32_t partition = 0;
  /// True when the peer's in-memory replica rebuilt the state; false when
  /// the disk-recovery fallback ran (torn buffer, dead peer, or
  /// replication off).
  bool used_peer_memory = false;
  /// Tick count the rebuilt state is consistent through (== the fleet
  /// tick).
  uint64_t rebuilt_ticks = 0;
  /// Wall time to materialize the state (memory rebuild or disk recovery):
  /// the failover-latency number the ROADMAP's "milliseconds, not a disk
  /// replay" claim is about.
  double rebuild_seconds = 0.0;
  /// Wall time of the shard restart on top of it (bootstrap checkpoint +
  /// runner spawn) -- identical on both paths.
  double resume_seconds = 0.0;
};

/// A fleet of K engines sharing one disk. The facade itself is driven by
/// one caller thread; the shards consume its ticks asynchronously on their
/// own mutator threads.
class ShardedEngine {
 public:
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Starts the next fleet tick.
  void BeginTick();

  /// Records one logical update for `shard`'s partition (applied by the
  /// shard when it consumes this tick).
  void ApplyUpdate(uint32_t shard, uint32_t cell, int32_t value);

  /// Ends the fleet tick: mails every shard its batch plus the stagger
  /// scheduler's checkpoint decision, and polls for shard errors. On a
  /// shard failure EVERY other shard still receives and finishes the tick,
  /// the first error is recorded, the fleet tick stays consistent, and the
  /// fleet hard-fails (failed() becomes true; only Shutdown/SimulateCrash
  /// remain legal). An error can surface one or more ticks after the
  /// EndTick that caused it.
  Status EndTick();

  /// Barrier: blocks until every shard has consumed all submitted ticks,
  /// then returns the fleet's sticky error. After it returns OK, per-shard
  /// engines are quiescent and safe to inspect from this thread.
  Status WaitForIdle();

  // ---- Fleet-wide consistent cut (see consistent_cut.h) ----

  /// Phase 1: arms a consistent cut at tick T = current_tick +
  /// cut_lead_ticks and returns T. From now through tick T the stagger
  /// scheduler stands down; at tick T every shard drains to T and starts
  /// its cut checkpoint exactly there, and its engine publishes the cut's
  /// ack (Engine::CutAckAt) while the image is written in the background.
  /// The caller keeps driving ticks as usual and, once the fleet tick has
  /// passed T, calls CommitConsistentCut. Only one cut may be in flight.
  StatusOr<uint64_t> RequestConsistentCut();

  /// Phase 2: waits for every shard's engine to ack the cut and for each
  /// cut image to be durable (Engine::WaitForCheckpoint), then atomically
  /// commits the fleet cut manifest. No runner is drained: shards keep
  /// consuming later ticks meanwhile. A crash before this commit -- even
  /// with all shards acked -- leaves no manifest, and cut recovery falls
  /// back to latest. FailedPrecondition if no cut is armed or tick T has
  /// not been submitted yet. On any error the cut is abandoned (no
  /// manifest); a shard or writer error also hard-fails the fleet.
  Status CommitConsistentCut();

  /// True between RequestConsistentCut and CommitConsistentCut.
  bool cut_in_flight() const { return cut_.armed(); }
  /// The armed cut tick (meaningful while cut_in_flight()).
  uint64_t pending_cut_tick() const { return cut_.cut_tick(); }
  /// Timing of the last committed cut.
  const ConsistentCutReport& last_cut_report() const {
    return last_cut_report_;
  }

  // ---- Zone migration at a committed cut (ROADMAP item) ----

  /// Moves `partition`'s state to the fresh shard slot `to_slot` and
  /// commits the new topology as fleet epoch + 1. Must run IMMEDIATELY
  /// after a consistent cut committed at the previous tick (cut tick T ==
  /// current_tick() - 1, no fleet tick in between): the quiesced live
  /// state then equals the durable cut image, so the hand-off point is a
  /// tick every shard agrees on -- the MMOG zone hand-off primitive.
  ///
  /// Protocol (each step durable before the next, so a crash ANYWHERE
  /// lands in a well-defined topology):
  ///   1. drain the fleet; stop and shut down the partition's engine (its
  ///      old directory stays intact -- still the epoch-E recovery source);
  ///   2. bootstrap the partition's state into shard-<to_slot> via
  ///      Engine::OpenResumed (synchronous checkpoint at the cut);
  ///   3. commit fleet-manifest-<E+1> (tmp + rename + dir fsync);
  ///   4. retire the epoch-E manifest, then the source directory
  ///      (best-effort: the rename in 3 is the commit point, and anything
  ///      this sweep leaves behind is unreferenced garbage recovery
  ///      ignores).
  /// A crash before 3 recovers under epoch E (partition still on its old
  /// shard, exact at the current tick); after 3, under E+1 (partition on
  /// the new shard, its bootstrap exact at the same tick). The committed
  /// cut manifest survives the move: the destination bootstrap IS the
  /// partition's image at the cut, so cut recovery stays available.
  ///
  /// Errors: FailedPrecondition when no cut committed at current_tick()-1
  /// or a cut is still in flight; InvalidArgument for an unknown partition
  /// or an occupied destination slot.
  ///
  /// A non-empty `mount_root` relocates the destination slot's directory
  /// under that path instead of the fleet root (a different disk); the
  /// manifest records the override per partition, so recovery and every
  /// later reopen resolve the same directory.
  Status MigratePartition(uint32_t partition, uint32_t to_slot,
                          const std::string& mount_root = "");

  /// Timing/shape of the last committed migration.
  const MigrationReport& last_migration_report() const {
    return last_migration_report_;
  }

  /// The durable fleet description this incarnation maintains: epoch,
  /// partition -> shard-slot assignment, and the fleet's config.
  const FleetManifest& manifest() const { return manifest_; }
  /// Current fleet epoch (bumps on MigratePartition).
  uint64_t epoch() const { return manifest_.epoch; }
  /// Shard slot hosting partition `p`.
  uint32_t SlotOfPartition(uint32_t p) const { return manifest_.assignment[p]; }

  /// Graceful stop of every shard (drains mailboxes and in-flight
  /// checkpoints).
  Status Shutdown();

  /// Crash injection across the fleet. Barriers first -- every shard
  /// reaches the fleet tick, as if the crash hit between ticks -- then
  /// every shard's in-flight checkpoint is abandoned mid-write. Because of
  /// staggering, shards are typically at different checkpoint generations
  /// when the crash lands.
  Status SimulateCrash();

  // ---- Hot failover via in-memory cross-shard replication ----

  /// Crash injection on ONE shard (the paper's single-server-death model):
  /// barriers the fleet to the current tick, then kills `partition`'s
  /// engine mid-checkpoint and marks every replica buffer HOSTED BY that
  /// shard torn -- a dead server loses the replicas it held for others
  /// along with its own state. The rest of the fleet stays live but
  /// frozen: BeginTick, cuts, and migration are refused until
  /// FailoverShard brings the partition back. InvalidArgument for an
  /// unknown partition; FailedPrecondition while a cut is in flight or the
  /// partition is already crashed.
  Status SimulateShardCrash(uint32_t partition);

  /// Brings a crashed partition back at the CURRENT fleet tick. Fast
  /// path: the peer designated by manifest().replica_peer[partition]
  /// rebuilds the state from its in-memory ReplicaBuffer (base snapshot +
  /// delta ring) -- no disk read of the dead shard at all. Fallback: when
  /// replication is off, the peer is itself crashed, or its buffer is
  /// torn, the state is recovered from the partition's own disk (logical
  /// log replay), which must be exact at the fleet tick. Either way the
  /// shard restarts via Engine::OpenResumed (synchronous bootstrap
  /// checkpoint outranking every pre-crash image), the partition's
  /// replica topology is re-anchored, and the fleet may tick again.
  /// The rebuilt state is byte-identical on both paths -- the failover
  /// tests pin peer-memory digests against a disk-recovered oracle.
  /// FailedPrecondition when the partition is not crashed.
  Status FailoverShard(uint32_t partition);

  /// Path taken and timing of the last FailoverShard.
  const FailoverReport& last_failover_report() const {
    return last_failover_report_;
  }

  /// Partition `p`'s hosted replica buffer (on its peer's runner), or
  /// nullptr when replication is off. Test/inspection hook: safe only
  /// while the fleet is quiesced (see shard()).
  ReplicaBuffer* replica_buffer(uint32_t p) {
    return config().replicate ? runners_[config().replica_peer[p]]->replica(p)
                              : nullptr;
  }

  /// The newest tick boundary every partition has applied through: the
  /// latest point at which all partitions' dirty-mark counts cover the
  /// same ticks. It trails current_tick() by however far the slowest
  /// runner lags. Safe to poll from the facade thread while
  /// the runners keep ticking.
  uint64_t CommonMarksBoundary() const {
    uint64_t boundary = UINT64_MAX;
    for (const auto& runner : runners_) {
      boundary = std::min(boundary, runner->marks_boundary());
    }
    return boundary;
  }
  /// Partition `p`'s cumulative dirty-mark count (every dirty-bit Set its
  /// engine performed) through tick boundary `boundary`, or nullopt when
  /// the runner no longer holds that boundary. Every boundary from
  /// CommonMarksBoundary() up is held. Monotonic across checkpoints: the
  /// delta between two boundaries is the partition's write load over
  /// exactly those ticks -- the rebalancer's signal. Restarts at 0 when
  /// the partition's engine is replaced (migration, failover).
  std::optional<uint64_t> PartitionDirtyMarksAt(uint32_t p,
                                                uint64_t boundary) const {
    return runners_[p]->MarksAt(boundary);
  }

  /// The fleet's configuration: the manifest's, with this incarnation's
  /// runtime-only fields (io_backend) as it was opened with.
  const ShardedEngineConfig& config() const { return manifest_.config; }
  const StaggerScheduler& scheduler() const { return scheduler_; }
  uint32_t num_shards() const { return manifest_.config.num_shards; }
  uint64_t current_tick() const { return tick_; }
  /// True once a shard error hard-failed the fleet.
  bool failed() const { return failed_; }

  /// Shard `i`'s engine. Safe only while the fleet is quiesced (after
  /// WaitForIdle/Shutdown/SimulateCrash).
  Engine& shard(uint32_t i) { return runners_[i]->engine(); }
  const Engine& shard(uint32_t i) const { return runners_[i]->engine(); }

  /// Aggregates checkpoint records across shards, skipping each shard's
  /// first (cold, all-objects) checkpoint when `skip_first` is set so
  /// steady-state incremental timing is not polluted by the bootstrap.
  /// Requires a quiesced fleet (see shard()).
  ShardedCheckpointStats CheckpointStats(bool skip_first = false) const;

  /// Checkpoint/log directory of shard slot `i` under `root` (delegates to
  /// paths::ShardDir, the naming's single owner).
  static std::string ShardDir(const std::string& root, uint32_t shard);

 private:
  // The Fleet facade is the only construction path: Fleet::Create opens
  // fresh fleets and RecoveredFleet::Resume restarts recovered ones.
  friend class Fleet;
  friend class RecoveredFleet;

  /// Fresh open under config.shard.dir (the root): fresh engines at tick
  /// 0, identity assignment, and a new epoch-0 manifest committed after
  /// every shard opened. `config.replica_peer` is already resolved.
  static StatusOr<std::unique_ptr<ShardedEngine>> Open(
      const ShardedEngineConfig& config);

  /// Fleet restart from `manifest`, the one RecoverFleetTo read: re-opens
  /// every partition in the directory the manifest assigns it from its
  /// recovered table (`initial`, indexed by partition) and resumes the
  /// fleet tick counter at `first_tick` (crash recovery: the crash fleet's
  /// recovered_ticks; cut recovery: cut_tick + 1). The manifest is
  /// validated like a Create config: bad knobs are InvalidArgument. Each
  /// shard runs Engine::OpenResumed, so per shard a synchronous bootstrap
  /// checkpoint is written, numbered above every stale pre-crash image,
  /// before the new logical log starts: a crash at ANY later point --
  /// including before the fleet's first resumed tick -- recovers to at
  /// least `first_tick`. Blocks for K sequential bootstrap writes; this is
  /// fleet restart downtime, not gameplay latency. The previous
  /// incarnation's cut manifest (if any) is retired only AFTER every
  /// shard's bootstrap is durable, so a death mid-resume never destroys a
  /// cut restore point while it is still reachable: resuming from the cut
  /// itself (first_tick == cut_tick + 1) keeps the fleet recoverable to
  /// exactly the cut throughout the resume, and an older cut is reached
  /// through retained history or degrades to the fleet-wide latest
  /// fallback (RecoverFleetTo).
  ///
  /// `bump_epoch` (a point-in-time resume, RecoveredFleet::Resume after
  /// Fleet::RecoverToTick): once every shard's bootstrap is durable, the
  /// manifest is re-committed as epoch + 1 and older epochs retired --
  /// the new timeline's commit point. A crash before that commit leaves
  /// the old epoch intact and the operator simply re-runs the restore.
  static StatusOr<std::unique_ptr<ShardedEngine>> OpenResumed(
      const FleetManifest& manifest, const std::vector<StateTable>& initial,
      uint64_t first_tick, bool bump_epoch = false);

  explicit ShardedEngine(FleetManifest manifest);

  /// Shared Open/OpenResumed body: validates the manifest's config, then
  /// opens every partition through OpenPartitionEngine -- fresh at tick 0
  /// when `initial` is null, else resumed from its table at `first_tick`.
  static StatusOr<std::unique_ptr<ShardedEngine>> OpenImpl(
      FleetManifest manifest, const std::vector<StateTable>* initial,
      uint64_t first_tick, bool bump_epoch);

  /// Opens the engine of a partition living in `dir`: fresh when `table`
  /// is null, otherwise resumed from `*table` at the current fleet tick
  /// (Engine::OpenResumed writes the synchronous bootstrap checkpoint
  /// before the new logical log starts). Checkpoint starts are manual:
  /// the stagger scheduler owns them.
  StatusOr<std::unique_ptr<Engine>> OpenPartitionEngine(
      const std::string& dir, const StateTable* table) const;

  /// Runs `engine` as partition `p` from the current tick (migration and
  /// failover): replaces p's runner, then, with replication on, re-hosts
  /// the replicas p's runner holds (HostReplicasOn) and re-anchors p's own
  /// replica on its live peer at the new engine's state, which also clears
  /// a torn or folded ring.
  void StartPartition(uint32_t p, std::unique_ptr<Engine> engine);

  /// Hosts a fresh replica buffer on `host`'s runner for every partition
  /// peered on it, anchored at the source's state at the current tick. A
  /// source that is itself crashed leaves its buffer torn; its own
  /// FailoverShard re-anchors it. No-op with replication off.
  void HostReplicasOn(uint32_t host);

  /// Builds the ShardRunner for `partition` around `engine`.
  std::unique_ptr<ShardRunner> MakeRunner(uint32_t partition,
                                          std::unique_ptr<Engine> engine);

  /// First sticky error across runners (polled without blocking).
  Status PollShardError();

  /// In-memory twin of the durable superblock (epoch, assignment, config).
  FleetManifest manifest_;
  StaggerScheduler scheduler_;
  ConsistentCutCoordinator cut_;
  std::chrono::steady_clock::time_point cut_armed_at_;
  ConsistentCutReport last_cut_report_;
  /// Tick of the last cut committed by THIS incarnation, or UINT64_MAX:
  /// the MigratePartition precondition.
  uint64_t last_committed_cut_tick_ = UINT64_MAX;
  MigrationReport last_migration_report_;
  FailoverReport last_failover_report_;
  std::vector<std::unique_ptr<ShardRunner>> runners_;
  /// Per-shard updates buffered during the open tick.
  std::vector<std::vector<CellUpdate>> pending_;
  /// crashed_[p] = SimulateShardCrash killed partition p and FailoverShard
  /// has not yet revived it (vector<uint8_t>: no bitset proxy games).
  std::vector<uint8_t> crashed_;
  uint32_t crashed_count_ = 0;
  /// Committed-cut tick to broadcast to replica hosts in the NEXT tick's
  /// batches (the trim-at-cut rule), or kNoReplicaTrim when none pending.
  uint64_t pending_replica_trim_ = ShardTickBatch::kNoReplicaTrim;
  uint64_t tick_ = 0;
  bool in_tick_ = false;
  bool failed_ = false;
  Status first_error_;
  bool shut_down_ = false;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_SHARDED_ENGINE_H_
