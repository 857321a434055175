// The real checkpointing engine (paper Section 6, extended from the paper's
// two validated algorithms to all six).
//
// Threading model: the caller's thread is the *mutator* (the game
// simulation loop); one background *writer* thread flushes checkpoints,
// handing double-backup image writes to the IoBackend's own writer thread
// (util/io_backend.h).
// Checkpoints start only at tick boundaries (EndTick), exploiting the
// natural quiescence point of the discrete-event simulation loop.
//
// Thread-safety contract (relied on by ShardRunner/ShardedEngine, which
// give every shard its own mutator thread):
//   - BeginTick/ApplyUpdate/EndTick/Shutdown/SimulateCrash must all be
//     called from ONE mutator thread (any thread, but the same one); they
//     synchronize with the writer thread internally.
//   - ScheduleCheckpoint and RequestCutCheckpoint are the cross-thread
//     entry points: any thread may request a checkpoint (the flags are
//     atomic); the mutator serves it at its next EndTick.
//   - CumulativeDirtyMarks, CutAckAt, checkpoints_finished and
//     WaitForCheckpoint are safe from any thread while the mutator ticks.
//   - metrics()/state()/current_tick() are unsynchronized snapshots owned
//     by the mutator thread; other threads may read them only once the
//     mutator is quiesced (between ticks with the owner parked, or after
//     Shutdown/SimulateCrash).
//
// The paper's four framework subroutines map to real code here:
//   Copy-To-Memory                 -> eager memcpy into the aux buffer
//                                     inside StartCheckpoint (the pause)
//   Handle-Update                  -> HandleUpdate: dirty-bit maintenance +
//                                     pre-image save under per-object locks
//   Write-Copies-To-Stable-Storage -> writer path reading the aux snapshot
//   Write-Objects-To-Stable-Storage-> writer path reading live state under
//                                     the copy-on-update lock protocol
#ifndef TICKPOINT_ENGINE_ENGINE_H_
#define TICKPOINT_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithm.h"
#include "engine/checkpoint_session.h"
#include "engine/checkpoint_store.h"
#include "engine/dirty_map.h"
#include "engine/history.h"
#include "engine/logical_log.h"
#include "engine/state_table.h"
#include "util/histogram.h"
#include "util/io_backend.h"

namespace tickpoint {

/// Engine construction parameters.
struct EngineConfig {
  StateLayout layout = StateLayout::Small();
  AlgorithmKind algorithm = AlgorithmKind::kCopyOnUpdate;
  /// Directory for checkpoint files and the logical log.
  std::string dir;
  /// `C`: full-flush period of the partial-redo family.
  uint64_t full_flush_period = 9;
  /// Minimum ticks between checkpoint starts (0 = back-to-back, the
  /// paper's policy).
  uint64_t checkpoint_interval_ticks = 0;
  /// fsync checkpoint data and the logical log (disable only in unit tests
  /// that do not exercise crashes).
  bool fsync = true;
  /// Record a full-state CRC in eager full checkpoints (verified on
  /// restore).
  bool checksum_state = false;
  /// Group-commit granularity of the logical log, in ticks.
  uint64_t logical_sync_every = 1;
  /// External checkpoint scheduling (ShardedEngine/StaggerScheduler): when
  /// true, EndTick starts a checkpoint only after ScheduleCheckpoint() was
  /// called, instead of applying the interval policy.
  bool manual_checkpoints = false;
  /// How checkpoint image writes reach the disk (util/io_backend.h): a
  /// writer thread, the only backend. Never persisted.
  IoBackendKind io_backend = IoBackendKind::kAsync;
  /// Point-in-time recovery history (engine/history.h): when enabled,
  /// every completed checkpoint is also recorded as a generation under
  /// `<dir>/history`, bounded by the policy. Log-organization algorithms
  /// only: Open and OpenResumed refuse it on double backup
  /// (CheckRetention). Persisted fleet-wide in the v4 manifest, not
  /// per-engine.
  RetentionPolicy retention;
};

/// One completed real checkpoint.
struct EngineCheckpointRecord {
  uint64_t seq = 0;
  uint64_t start_tick = 0;
  uint64_t consistent_ticks = 0;  // ticks whose effects are in the image
  bool all_objects = false;
  bool full_flush = false;
  /// Consistent-cut checkpoint: started at exactly the coordinator's cut
  /// tick. The snapshot is taken at the cut tick and the write completes
  /// on the writer; the record is finalized at a later tick boundary.
  bool cut = false;
  uint64_t objects_written = 0;
  uint64_t bytes_written = 0;
  double sync_seconds = 0.0;   // measured eager-copy pause
  double async_seconds = 0.0;  // measured writer wall time
  /// Cut checkpoints only: total mutator block inside the cut EndTick:
  /// draining the previous flush + the snapshot, never the cut write.
  double cut_stall_seconds = 0.0;

  double TotalSeconds() const { return sync_seconds + async_seconds; }
};

/// Measured metrics of a real engine run.
struct EngineMetrics {
  /// Measured overhead per tick: eager pause + copy-on-update copy time.
  SampleSeries tick_overhead;
  std::vector<EngineCheckpointRecord> checkpoints;
  uint64_t updates = 0;
  uint64_t cou_copies = 0;

  double AvgOverheadSeconds() const { return tick_overhead.Mean(); }
  double AvgCheckpointSeconds() const {
    if (checkpoints.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& r : checkpoints) sum += r.TotalSeconds();
    return sum / static_cast<double>(checkpoints.size());
  }
  double AvgObjectsPerCheckpoint(bool exclude_full) const {
    double sum = 0.0;
    uint64_t count = 0;
    for (const auto& r : checkpoints) {
      if (exclude_full && r.full_flush) continue;
      sum += static_cast<double>(r.objects_written);
      ++count;
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// A durable main-memory state table with tick-consistent checkpointing.
class Engine {
 public:
  /// Creates the engine, its checkpoint store, and a fresh logical log
  /// under config.dir. Open and OpenResumed return InvalidArgument before
  /// touching the disk when CheckRetention refuses config.retention.
  static StatusOr<std::unique_ptr<Engine>> Open(const EngineConfig& config);

  /// Re-opens an engine from recovered state: the shard-restart workflow.
  /// Loads `initial` as the in-memory state, writes a synchronous bootstrap
  /// checkpoint (so the fresh logical log suffices for any later crash),
  /// and resumes the tick counter at `first_tick`. Blocks for the duration
  /// of one full checkpoint write -- this is restart downtime, not gameplay
  /// latency.
  static StatusOr<std::unique_ptr<Engine>> OpenResumed(
      const EngineConfig& config, const StateTable& initial,
      uint64_t first_tick);

  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Starts the next tick (the update phase of the simulation loop).
  void BeginTick();

  /// Applies one logical update: Handle-Update bookkeeping, the actual
  /// state write, and logical-log buffering.
  void ApplyUpdate(uint32_t cell, int32_t value);

  /// Ends the tick: appends the tick's logical-log record, completes a
  /// drained checkpoint, and starts the next one (running any eager copy as
  /// the end-of-tick pause).
  Status EndTick();

  /// Manual mode only: requests that a checkpoint start at the next
  /// EndTick. The request stays pending while a previous checkpoint is
  /// still in flight and is served as soon as it drains. Safe to call from
  /// any thread (the fleet scheduler may run outside the mutator thread).
  void ScheduleCheckpoint() {
    checkpoint_requested_.store(true, std::memory_order_release);
  }

  /// Consistent-cut checkpoint: the next EndTick MUST produce a checkpoint
  /// whose consistent tick is exactly that tick's end. Unlike
  /// ScheduleCheckpoint, the request cannot slip to a later tick: EndTick
  /// first drains any in-flight flush, then starts the cut checkpoint at
  /// that exact tick. EndTick returns once the snapshot is taken and the
  /// cut's ack is published (CutAckAt); the write completes on the writer
  /// thread and its record is finalized by a later EndTick. The mutator
  /// block is the cut's stall, reported in the ack and the record.
  /// Safe to call from any thread; served by the next EndTick.
  void RequestCutCheckpoint() {
    cut_checkpoint_requested_.store(true, std::memory_order_release);
  }

  /// A cut checkpoint's acknowledgement: which checkpoint carries the cut
  /// and how long the cut EndTick blocked the mutator (drain + snapshot).
  /// The image is durable once WaitForCheckpoint(seq) returns OK.
  struct CutAck {
    uint64_t seq = 0;
    double stall_seconds = 0.0;
  };
  /// The ack of the cut checkpoint started at the end of `cut_tick`, or
  /// nullopt until that EndTick published it (or after a later cut
  /// replaced it). Safe from any thread: a slot being rewritten reads as
  /// nullopt, never torn.
  std::optional<CutAck> CutAckAt(uint64_t cut_tick) const;

  /// One past the seq of the newest checkpoint the writer thread finished
  /// (0 before the first): checkpoint `seq` has finished once this exceeds
  /// it. Monotonic; safe from any thread.
  uint64_t checkpoints_finished() const {
    return checkpoints_finished_.load(std::memory_order_acquire);
  }
  /// Parks until checkpoint `seq` has finished on the writer thread, then
  /// returns the writer's sticky status: OK means the image is durable.
  /// `seq` must belong to a checkpoint this engine started. Safe from any
  /// thread.
  Status WaitForCheckpoint(uint64_t seq) const;

  /// Blocks until the in-flight checkpoint (if any) completes and its
  /// record is finalized; returns the writer's sticky status. Must be
  /// called between ticks from the mutator thread, or with the engine
  /// quiesced.
  Status CompletePendingCheckpoint();

  /// Graceful stop: waits for the in-flight checkpoint, stops the writer,
  /// closes the logs.
  Status Shutdown();

  /// Crash injection: abandons the in-flight checkpoint mid-write (leaving
  /// a torn image on disk), makes the logical log durable to the last
  /// EndTick, and stops. The in-memory state stays readable as the "lost"
  /// reference for recovery tests.
  Status SimulateCrash();

  /// Like SimulateCrash, but models an OS-level crash with
  /// logical_sync_every > 1: every logical-log tick after the last group
  /// commit is lost, and a torn fragment of the first unsynced record is
  /// left behind for recovery to discard.
  Status SimulateCrashLosingUnsyncedLog();

  /// Test-only fault injection: the next EndTick fails with `status` after
  /// leaving the tick (in_tick_ cleared) but before the tick's logical-log
  /// append or tick-counter advance -- the shard freezes at its current
  /// tick, exactly the partial-failure scenario ShardedEngine must survive.
  void InjectEndTickErrorForTest(Status status) {
    injected_end_tick_error_ = std::move(status);
  }

  const EngineConfig& config() const { return config_; }
  const AlgorithmTraits& traits() const { return traits_; }
  const EngineMetrics& metrics() const { return metrics_; }
  StateTable& state() { return state_; }
  const StateTable& state() const { return state_; }
  uint64_t current_tick() const { return tick_; }
  bool checkpoint_in_flight() const { return active_job_.has_value(); }

  /// Monotonic count of dirty marks (AtomicBitMap::Set calls) since open.
  /// Checkpoints clear bits but never rewind this, so the delta between two
  /// readings is the partition's write RATE over that window -- the load
  /// signal the fleet rebalancer ranks partitions by. Safe to read from any
  /// thread while the mutator keeps marking (relaxed atomic underneath).
  uint64_t CumulativeDirtyMarks() const {
    return dirty_[0].CumulativeMarks();
  }

  /// Path of the logical log under `dir`.
  static std::string LogicalLogPath(const std::string& dir);

  /// The shard's history handle, or null when retention is off. Same
  /// cross-thread rules as metrics(): other threads may touch it only with
  /// the engine quiesced.
  ShardHistory* history() { return history_.get(); }

 private:
  struct Job {
    uint64_t seq = 0;
    uint64_t start_tick = 0;
    uint64_t consistent_ticks = 0;
    bool all_objects = false;
    bool full_flush = false;
    bool cut = false;
    bool cou_mode = false;
    int backup_index = 0;
    uint64_t log_gen = 0;
    bool new_generation = false;
    uint64_t object_count = 0;
    double sync_seconds = 0.0;
  };

  explicit Engine(const EngineConfig& config);
  /// Opens the checkpoint store (backup or log organization) under dir.
  Status OpenStores();
  /// Creates the logical log (truncating any previous incarnation's) and
  /// starts the writer thread. OpenResumed calls this only AFTER the
  /// bootstrap checkpoint is durable -- see the ordering note there.
  Status StartLogicalLogAndWriter();
  /// Writes the current in-memory state as a complete synchronous
  /// checkpoint (used by OpenResumed before any tick runs).
  Status WriteBootstrapCheckpoint();

  Status SimulateCrashImpl(bool lose_unsynced_log);

  /// Handle-Update (Table 2): dirty-bit maintenance + copy on update.
  void HandleUpdate(ObjectId object);
  /// Copy-To-Memory + checkpoint scheduling; returns the pause seconds.
  StatusOr<double> StartCheckpoint(bool cut = false);
  void FinalizeJob();
  /// Blocks the mutator until the writer reports the in-flight job done
  /// (the drain before a cut, CompletePendingCheckpoint and Shutdown).
  void WaitForJobDone();

  void WriterMain();
  Status ExecuteJob(const Job& job);
  /// Streams the job's objects through a CheckpointWriteSession into
  /// `emit`; returns once every emitted run's write has completed.
  Status WriteCheckpointObjects(const Job& job, IoBackend* backend,
                                CheckpointWriteSession::EmitRun emit);
  /// Log organization: retires the generations below `gen` once `gen`'s
  /// full flush is durable (into history when retention references them,
  /// deleted otherwise).
  Status RetireLogGenerationsBefore(uint64_t gen);
  /// Picks the bytes to persist for `object` under the copy-on-update
  /// protocol: the saved pre-image if one exists, else the live object
  /// (copied to `staging` under the object lock).
  const uint8_t* CouSource(ObjectId object, uint8_t* staging);

  EngineConfig config_;
  AlgorithmTraits traits_;
  StateTable state_;

  /// Declared before the stores: they hold a raw pointer to it, so it must
  /// be destroyed after them (and its destructor joins its writer thread).
  std::unique_ptr<IoBackend> io_backend_;
  std::unique_ptr<BackupStore> backup_;
  std::unique_ptr<LogStore> log_;
  std::unique_ptr<LogicalLog> logical_;
  /// Non-null iff config.retention.enabled, which implies the log
  /// organization: each committed log checkpoint is recorded where the
  /// LogStore wrote it. Touched by the open path (before the writer
  /// starts) and by the writer thread afterwards.
  std::unique_ptr<ShardHistory> history_;

  AtomicBitMap dirty_[2];     // per-backup dirty bits (log family uses [0])
  AtomicBitMap write_set_;    // snapshot of the active checkpoint's members
  AtomicBitMap copied_;       // per-checkpoint "pre-image saved or flushed"
  ObjectLockTable locks_;
  std::vector<uint8_t> aux_;  // eager snapshot / copy-on-update side buffer

  // Tick state (mutator thread only).
  uint64_t tick_ = 0;
  bool in_tick_ = false;
  std::vector<CellUpdate> tick_updates_;
  double tick_cou_seconds_ = 0.0;

  // Checkpoint bookkeeping (mutator thread only).
  uint64_t checkpoint_seq_ = 0;
  uint64_t last_start_tick_ = 0;
  int next_backup_ = 0;
  bool backup_written_[2] = {false, false};
  uint64_t next_log_gen_ = 0;
  bool log_started_ = false;
  // Written by ScheduleCheckpoint (any thread), consumed at EndTick.
  std::atomic<bool> checkpoint_requested_{false};
  // Written by RequestCutCheckpoint (any thread), consumed at EndTick.
  std::atomic<bool> cut_checkpoint_requested_{false};
  Status injected_end_tick_error_;  // test-only, one-shot
  std::optional<Job> active_job_;
  // Mutator stall of the in-flight cut checkpoint, reported by FinalizeJob.
  // Kept out of Job: the writer copies *active_job_ under mu_ while the
  // mutator measures the stall without it.
  double cut_stall_seconds_ = 0.0;
  // The newest cut's ack, written seqlock-style by the mutator: the tick
  // stamp is invalidated before the payload changes and re-stamped after.
  static constexpr uint64_t kNoCut = UINT64_MAX;
  std::atomic<uint64_t> cut_ack_tick_{kNoCut};
  std::atomic<uint64_t> cut_ack_seq_{0};
  std::atomic<double> cut_ack_stall_{0.0};

  // Writer thread plumbing.
  std::thread writer_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool job_pending_ = false;
  bool writer_exit_ = false;
  std::atomic<bool> job_done_{false};
  // See checkpoints_finished(): stored (and notified) after job_done_.
  std::atomic<uint64_t> checkpoints_finished_{0};
  std::atomic<bool> crashed_{false};
  double job_async_seconds_ = 0.0;  // written by writer before job_done_
  // Sticky first error: written by the writer under mu_, read by the
  // mutator once job_done_ is seen and by other threads under mu_.
  Status writer_status_;

  EngineMetrics metrics_;
  bool shut_down_ = false;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_ENGINE_H_
