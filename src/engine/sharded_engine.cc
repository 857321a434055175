#include "engine/sharded_engine.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "engine/paths.h"
#include "engine/recovery.h"
#include "engine/replica_buffer.h"
#include "util/io.h"
#include "util/sched_fuzz.h"

namespace tickpoint {

std::string ShardedEngine::ShardDir(const std::string& root, uint32_t shard) {
  return paths::ShardDir(root, shard);
}

ShardedEngine::ShardedEngine(FleetManifest manifest)
    : manifest_(std::move(manifest)),
      scheduler_(config().ToStaggerConfig()),
      cut_(config().shard.dir, config().num_shards, config().shard.fsync) {}

StatusOr<std::unique_ptr<ShardedEngine>> ShardedEngine::OpenImpl(
    FleetManifest manifest, const std::vector<StateTable>* initial,
    uint64_t first_tick, bool bump_epoch) {
  const ShardedEngineConfig& config = manifest.config;
  if (config.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  if (config.checkpoint_period_ticks == 0) {
    return Status::InvalidArgument("checkpoint_period_ticks must be positive");
  }
  if (config.shard.dir.empty()) {
    return Status::InvalidArgument("ShardedEngineConfig.shard.dir must be set");
  }
  // Before anything below touches the root: a refused configuration must
  // leave an existing fleet's manifests and shards as they were.
  TP_RETURN_NOT_OK(
      CheckRetention(config.shard.retention, config.shard.algorithm));
  if (!config.threaded) {
    // Every shard runs on its own mutator thread; the field remains only
    // because existing configs still assign it.
    return Status::InvalidArgument(
        "threaded must be true: shards always run on their own mutator "
        "threads");
  }
  if (config.max_queue_ticks == 0) {
    return Status::InvalidArgument("max_queue_ticks must be positive");
  }
  if (config.cut_lead_ticks == 0) {
    // Caught here, not in the coordinator: Arm would happily pick T ==
    // current_tick and the cut checkpoint would race the tick being
    // assembled.
    return Status::InvalidArgument("cut_lead_ticks must be positive");
  }
  if (config.disk_budget == 0) {
    // Checked here, before the member initializer constructs the
    // StaggerScheduler, whose TP_CHECK would abort instead of returning.
    return Status::InvalidArgument("disk_budget must be positive");
  }
  if (config.replica_peer.size() != config.num_shards) {
    return Status::InvalidArgument(
        "replica_peer has " + std::to_string(config.replica_peer.size()) +
        " entries for a " + std::to_string(config.num_shards) +
        "-shard fleet");
  }
  if (config.replicate) {
    // Replication-knob validation (mirrors the PR-5 posture: reject at
    // Create/Open with InvalidArgument, never TP_CHECK on user input).
    if (config.num_shards < 2) {
      return Status::InvalidArgument(
          "replication requires at least 2 shards (a replica must live on "
          "a different shard than its partition)");
    }
    if (config.replica_depth == 0) {
      return Status::InvalidArgument("replica_depth must be positive");
    }
    for (uint32_t p = 0; p < config.num_shards; ++p) {
      const uint32_t peer = config.replica_peer[p];
      if (peer >= config.num_shards) {
        return Status::InvalidArgument(
            "replica_peer[" + std::to_string(p) + "] = " +
            std::to_string(peer) + " out of range (fleet has " +
            std::to_string(config.num_shards) + " shards)");
      }
      if (peer == p) {
        // A self-hosted replica dies with its shard: worthless.
        return Status::InvalidArgument(
            "replica_peer[" + std::to_string(p) +
            "] is self-peered (a replica must live on a different shard)");
      }
    }
  }
  if (initial != nullptr && initial->size() != config.num_shards) {
    return Status::InvalidArgument(
        "OpenResumed with " + std::to_string(initial->size()) +
        " shard tables for a " + std::to_string(config.num_shards) +
        "-shard fleet");
  }
  const std::string root = config.shard.dir;
  const uint32_t num_shards = config.num_shards;
  TP_RETURN_NOT_OK(EnsureDirectory(root));
  if (initial == nullptr) {
    // A cut manifest or manifest temp file a previous incarnation left
    // points at state this fleet cannot reproduce: retire them before the
    // first shard opens. The RESUME path must NOT retire the cut manifest
    // yet -- see the ordering note before the second removal below. This
    // fleet's own epoch-0 manifest is committed only after every shard
    // opened.
    TP_RETURN_NOT_OK(RemoveFileIfExists(CutManifestPath(root)));
    TP_RETURN_NOT_OK(RetireFleetManifestsBefore(root, UINT64_MAX));
  }
  std::unique_ptr<ShardedEngine> sharded(
      new ShardedEngine(std::move(manifest)));
  sharded->tick_ = first_tick;
  sharded->runners_.reserve(num_shards);
  sharded->pending_.resize(num_shards);
  sharded->crashed_.assign(num_shards, 0);
  for (uint32_t p = 0; p < num_shards; ++p) {
    // The manifest, not slot arithmetic, resolves each partition's
    // directory: a migrated partition may live on a different slot AND a
    // different mount root.
    const std::string dir = sharded->manifest_.PartitionDir(root, p);
    const StateTable* table = initial == nullptr ? nullptr : &(*initial)[p];
    TP_ASSIGN_OR_RETURN(auto engine, sharded->OpenPartitionEngine(dir, table));
    sharded->runners_.push_back(sharded->MakeRunner(p, std::move(engine)));
  }
  // Seed every partition's replica on its designated peer's runner (the
  // runners are idle, so their engines are safe to read from this thread;
  // HostReplica before any SubmitTick is ordered by the mailbox's
  // release/acquire pair).
  for (uint32_t p = 0; p < num_shards; ++p) sharded->HostReplicasOn(p);
  if (initial != nullptr) {
    // Resume ordering: the pre-crash cut manifest is retired only AFTER
    // every shard's bootstrap checkpoint is durable. A death anywhere
    // inside the resume loop above therefore leaves the manifest in
    // place: when the fleet was resumed from the cut itself (first_tick
    // == cut_tick + 1, the Fleet::RecoverToCut workflow), each
    // already-resumed shard's bootstrap IS a valid image at the cut and
    // the untouched shards still carry their pre-crash sources, so cut
    // recovery reproduces the fleet-consistent state at the cut exactly.
    // When the manifest's cut is older than first_tick, the resumed
    // shards reproduce it only from retained history; without it, cut
    // recovery falls back to latest fleet-wide (see RecoverFleetTo) --
    // but the restore point is never destroyed while it was still
    // reachable.
    TP_RETURN_NOT_OK(RemoveFileIfExists(CutManifestPath(root)));
  }
  if (bump_epoch) {
    // A point-in-time resume rewrote every shard's durable state to an
    // older tick; committing the manifest as a NEW epoch (same topology)
    // is the new timeline's commit point, mirroring MigratePartition's
    // epoch protocol. Everything above is idempotent, so a crash before
    // this rename leaves the restore repeatable under the old epoch.
    sharded->manifest_.epoch += 1;
  }
  if (initial == nullptr || bump_epoch) {
    // For a fresh fleet the manifest commit is the last step of creation:
    // a crash before it leaves shard directories without a superblock,
    // which Fleet::Open reports as NotFound instead of guessing a
    // topology.
    TP_RETURN_NOT_OK(WriteFleetManifest(root, sharded->manifest_,
                                        sharded->config().shard.fsync));
    if (bump_epoch) {
      // Best-effort retirement, like MigratePartition: the rename above
      // is the commit point, and a leftover older epoch is recovery
      // fallback fodder, not a correctness hazard (the newest intact
      // epoch wins).
      (void)RetireFleetManifestsBefore(root, sharded->manifest_.epoch);
    }
  }
  return sharded;
}

StatusOr<std::unique_ptr<Engine>> ShardedEngine::OpenPartitionEngine(
    const std::string& dir, const StateTable* table) const {
  EngineConfig shard_config = config().shard;
  shard_config.dir = dir;
  shard_config.manual_checkpoints = true;
  return table == nullptr ? Engine::Open(shard_config)
                          : Engine::OpenResumed(shard_config, *table, tick_);
}

void ShardedEngine::StartPartition(uint32_t p, std::unique_ptr<Engine> engine) {
  runners_[p] = MakeRunner(p, std::move(engine));
  if (!config().replicate) return;
  // The old runner took the replicas it hosted with it (a crash tore
  // them; a migration's swap destroyed them). Every source is idle, so
  // reading its engine from this thread is safe.
  HostReplicasOn(p);
  const uint32_t host = config().replica_peer[p];
  if (crashed_[host]) return;
  ReplicaBuffer* buffer = runners_[host]->replica(p);
  if (buffer != nullptr) buffer->Anchor(runners_[p]->engine().state(), tick_);
}

void ShardedEngine::HostReplicasOn(uint32_t host) {
  if (!config().replicate) return;
  for (uint32_t r = 0; r < num_shards(); ++r) {
    if (config().replica_peer[r] != host) continue;
    auto buffer = std::make_unique<ReplicaBuffer>(r, config().shard.layout,
                                                  config().replica_depth);
    if (!crashed_[r]) buffer->Anchor(runners_[r]->engine().state(), tick_);
    runners_[host]->HostReplica(std::move(buffer));
  }
}

std::unique_ptr<ShardRunner> ShardedEngine::MakeRunner(
    uint32_t partition, std::unique_ptr<Engine> engine) {
  // Measured checkpoint completions feed the adaptive stagger; the
  // callbacks arrive on runner threads (the scheduler locks).
  auto observer = [this](uint32_t shard,
                         const EngineCheckpointRecord& record,
                         uint64_t completion_tick) {
    scheduler_.ObserveCheckpointEnd(shard, completion_tick,
                                    record.TotalSeconds());
  };
  return std::make_unique<ShardRunner>(partition, std::move(engine),
                                       config().max_queue_ticks, observer);
}

StatusOr<std::unique_ptr<ShardedEngine>> ShardedEngine::Open(
    const ShardedEngineConfig& config) {
  FleetManifest manifest;
  manifest.config = config;
  manifest.assignment.resize(config.num_shards);
  for (uint32_t p = 0; p < config.num_shards; ++p) manifest.assignment[p] = p;
  return OpenImpl(std::move(manifest), /*initial=*/nullptr, /*first_tick=*/0,
                  /*bump_epoch=*/false);
}

StatusOr<std::unique_ptr<ShardedEngine>> ShardedEngine::OpenResumed(
    const FleetManifest& manifest, const std::vector<StateTable>& initial,
    uint64_t first_tick, bool bump_epoch) {
  return OpenImpl(manifest, &initial, first_tick, bump_epoch);
}

ShardedEngine::~ShardedEngine() {
  if (!shut_down_) {
    (void)Shutdown();
  }
}

void ShardedEngine::BeginTick() {
  TP_CHECK(!in_tick_ && !shut_down_ && !failed_);
  // A crashed shard freezes the fleet tick: ticking past it would tear
  // every replica anchored at the crash tick. FailoverShard first.
  TP_CHECK(crashed_count_ == 0);
  in_tick_ = true;
}

void ShardedEngine::ApplyUpdate(uint32_t shard, uint32_t cell,
                                int32_t value) {
  TP_DCHECK(in_tick_);
  TP_DCHECK(shard < runners_.size());
  pending_[shard].push_back(CellUpdate{cell, value});
}

Status ShardedEngine::EndTick() {
  TP_CHECK(in_tick_);
  in_tick_ = false;
  // While a cut is armed the stagger scheduler stands down up to and
  // including the cut tick, so no regular start can collide with (or
  // delay) the cut generation; afterward the fixed schedule resumes its
  // arithmetic and the adaptive plan is realigned below.
  const bool cut_tick_now = cut_.IsCutTick(tick_);
  const bool suppress_schedule = cut_.SuppressesScheduledStart(tick_);
  // Every shard gets its batch even if a sibling already failed: no shard
  // is ever left mid-tick, and the fleet tick advances exactly once.
  std::vector<ShardTickBatch> batches(runners_.size());
  if (config().replicate) {
    // Each partition's delta is COPIED into its peer's batch (the host
    // appends it to the replica ring before its own tick), so the replica
    // stream is exactly the update stream the owner applies.
    for (uint32_t p = 0; p < runners_.size(); ++p) {
      batches[config().replica_peer[p]].replica_updates.push_back(
          ShardTickBatch::ReplicaDelta{p, pending_[p]});
    }
  }
  for (uint32_t i = 0; i < runners_.size(); ++i) {
    ShardTickBatch& batch = batches[i];
    batch.tick = tick_;
    batch.cut_checkpoint = cut_tick_now;
    batch.start_checkpoint =
        cut_tick_now ||
        (!suppress_schedule && scheduler_.ShouldCheckpoint(i, tick_));
    // A cut committed last turn broadcasts its trim tick in this tick's
    // batches (the trim-at-cut rule: everything at or below a committed
    // cut is durable fleet-wide, so the rings fold eagerly).
    batch.trim_replicas_through = pending_replica_trim_;
    batch.updates = std::move(pending_[i]);
    pending_[i].clear();
    runners_[i]->SubmitTick(std::move(batch));
  }
  pending_replica_trim_ = ShardTickBatch::kNoReplicaTrim;
  if (cut_tick_now) scheduler_.RealignAfterCut(tick_);
  ++tick_;
  return PollShardError();
}

StatusOr<uint64_t> ShardedEngine::RequestConsistentCut() {
  TP_CHECK(!in_tick_ && !shut_down_);
  if (failed_) return first_error_;
  if (crashed_count_ > 0) {
    return Status::FailedPrecondition(
        "RequestConsistentCut with a crashed shard pending failover");
  }
  TP_ASSIGN_OR_RETURN(const uint64_t cut_tick,
                      cut_.Arm(tick_, config().cut_lead_ticks));
  cut_armed_at_ = std::chrono::steady_clock::now();
  return cut_tick;
}

Status ShardedEngine::CommitConsistentCut() {
  TP_CHECK(!in_tick_ && !shut_down_);
  if (!cut_.armed()) {
    return Status::FailedPrecondition("no consistent cut in flight");
  }
  const uint64_t cut_tick = cut_.cut_tick();
  if (tick_ <= cut_tick) {
    return Status::FailedPrecondition(
        "cut tick " + std::to_string(cut_tick) +
        " has not been submitted yet (fleet tick " + std::to_string(tick_) +
        ")");
  }
  // Each shard's engine acks its own cut: the cut EndTick stamps the ack
  // with T, and the cut image is durable once its writer finished that
  // seq. The runners keep consuming post-cut ticks meanwhile; this thread
  // waits only for the runner to reach T, then parks on each writer.
  std::vector<CutShardRecord> acks;
  acks.reserve(runners_.size());
  double max_stall = 0.0;
  for (auto& runner : runners_) {
    const Engine& engine = runner->engine();
    std::optional<Engine::CutAck> ack;
    while (!(ack = engine.CutAckAt(cut_tick))) {
      if (runner->has_error()) {
        cut_.Disarm();
        return PollShardError();
      }
      TP_SCHED_FUZZ_POINT();
      std::this_thread::yield();
    }
    const Status durable = engine.WaitForCheckpoint(ack->seq);
    if (!durable.ok()) {
      cut_.Disarm();
      failed_ = true;
      if (first_error_.ok()) first_error_ = durable;
      return durable;
    }
    acks.push_back(CutShardRecord{ack->seq, cut_tick + 1});
    max_stall = std::max(max_stall, ack->stall_seconds);
  }
  TP_RETURN_NOT_OK(cut_.Commit(acks));
  last_committed_cut_tick_ = cut_tick;
  if (config().replicate) {
    // Trim-at-cut: the cut is durable fleet-wide, so every replica ring
    // may fold its batches through the cut tick. Broadcast the trim in
    // the NEXT tick's batches (the hosts' mutator threads own the rings).
    pending_replica_trim_ = cut_tick;
  }
  last_cut_report_.cut_tick = cut_tick;
  last_cut_report_.commit_latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    cut_armed_at_)
          .count();
  last_cut_report_.max_shard_stall_seconds = max_stall;
  return Status::OK();
}

Status ShardedEngine::MigratePartition(uint32_t partition, uint32_t to_slot,
                                       const std::string& mount_root) {
  TP_CHECK(!in_tick_ && !shut_down_);
  if (failed_) return first_error_;
  if (crashed_count_ > 0) {
    return Status::FailedPrecondition(
        "MigratePartition with a crashed shard pending failover");
  }
  if (cut_.armed()) {
    return Status::FailedPrecondition(
        "MigratePartition with a consistent cut still in flight (tick " +
        std::to_string(cut_.cut_tick()) + ")");
  }
  if (partition >= config().num_shards) {
    return Status::InvalidArgument(
        "MigratePartition of unknown partition " + std::to_string(partition) +
        " (fleet has " + std::to_string(config().num_shards) + ")");
  }
  for (uint32_t p = 0; p < config().num_shards; ++p) {
    if (manifest_.assignment[p] == to_slot) {
      return Status::InvalidArgument(
          "shard slot " + std::to_string(to_slot) +
          " already hosts partition " + std::to_string(p));
    }
  }
  if (last_committed_cut_tick_ == UINT64_MAX ||
      last_committed_cut_tick_ + 1 != tick_) {
    // The quiesced live state must EQUAL the durable cut image, which
    // holds only when the cut tick was the last tick the fleet ran.
    // Migrating several partitions back-to-back at the same cut satisfies
    // this too (no tick runs in between).
    return Status::FailedPrecondition(
        "MigratePartition requires a consistent cut committed at the "
        "previous tick (fleet tick " +
        std::to_string(tick_) + ", last committed cut " +
        (last_committed_cut_tick_ == UINT64_MAX
             ? std::string("none")
             : std::to_string(last_committed_cut_tick_)) +
        ")");
  }
  const auto move_start = std::chrono::steady_clock::now();
  TP_RETURN_NOT_OK(WaitForIdle());
  const std::string& root = config().shard.dir;
  const uint32_t from_slot = manifest_.assignment[partition];
  // Resolve the SOURCE directory under the old topology, before the
  // manifest below replaces the partition's slot and mount entries.
  const std::string from_dir = manifest_.PartitionDir(root, partition);
  // Fallible work first, destructive work last: until the new epoch's
  // manifest commits, nothing the old topology needs is touched, so any
  // error below (or a crash) leaves the fleet recoverable under epoch E --
  // partition still on its old shard, exact at the current tick.
  //
  // The partition's quiesced state is its cut-tick state (precondition
  // above); bootstrap it into the destination slot. Engine::OpenResumed
  // writes the synchronous bootstrap checkpoint before starting the
  // destination's logical log.
  StateTable moved(config().shard.layout);
  std::memcpy(moved.mutable_data(),
              runners_[partition]->engine().state().data(),
              moved.buffer_bytes());
  if (!mount_root.empty()) {
    // A cross-disk landing: the mount point itself must exist (and be
    // writable) before the destination engine bootstraps under it.
    TP_RETURN_NOT_OK(EnsureDirectory(mount_root));
  }
  const std::string to_dir = paths::SlotDir(root, mount_root, to_slot);
  TP_ASSIGN_OR_RETURN(auto dest_engine, OpenPartitionEngine(to_dir, &moved));
  // Commit the new topology: fleet-manifest-<E+1> via tmp + rename + dir
  // fsync. This rename is the migration's commit point.
  FleetManifest next = manifest_;
  next.epoch = manifest_.epoch + 1;
  next.assignment[partition] = to_slot;
  if (!mount_root.empty() || !next.mount_root.empty()) {
    if (next.mount_root.empty()) {
      next.mount_root.resize(num_shards());
    }
    next.mount_root[partition] = mount_root;
  }
  TP_RETURN_NOT_OK(WriteFleetManifest(root, next, config().shard.fsync));
  // The committed cut manifest stays: the destination bootstrap IS the
  // partition's image at the cut (consistent tick == cut + 1), so cut
  // recovery keeps working across the epoch boundary.
  manifest_ = std::move(next);
  // Swap the live engine. The old engine's directory is now unreferenced
  // garbage; a shutdown error here means its writer died earlier, which
  // hard-fails the fleet like any shard error (the migration itself is
  // already committed on disk).
  runners_[partition]->Stop();
  const Status source_shutdown = runners_[partition]->engine().Shutdown();
  StartPartition(partition, std::move(dest_engine));
  // The scheduler's learned write-time EWMAs describe the OLD slot's disk;
  // zero them (and release any reservation the swallowed in-flight
  // checkpoint held) so the adaptive plan re-learns the new placement
  // instead of planning around stale estimates.
  scheduler_.ResetShard(partition, tick_);
  last_migration_report_.partition = partition;
  last_migration_report_.from_slot = from_slot;
  last_migration_report_.to_slot = to_slot;
  last_migration_report_.epoch = manifest_.epoch;
  last_migration_report_.first_tick_on_new_shard = tick_;
  last_migration_report_.move_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    move_start)
          .count();
  if (!source_shutdown.ok()) {
    failed_ = true;
    if (first_error_.ok()) first_error_ = source_shutdown;
    return source_shutdown;
  }
  // Retire the old epoch's manifest, then the source directory --
  // best-effort: the migration is already committed (the manifest rename
  // above), and anything these sweeps leave behind is unreferenced
  // garbage recovery ignores (it picks the newest epoch). Failing the
  // committed migration over a cleanup hiccup would misreport its outcome.
  (void)RetireFleetManifestsBefore(root, manifest_.epoch);
  std::error_code ec;
  std::filesystem::remove_all(from_dir, ec);
  return Status::OK();
}

Status ShardedEngine::PollShardError() {
  if (!failed_) {
    for (auto& runner : runners_) {
      if (!runner->has_error()) continue;
      const Status status = runner->status();
      if (first_error_.ok() && !status.ok()) first_error_ = status;
      failed_ = true;
    }
  }
  return first_error_;
}

Status ShardedEngine::WaitForIdle() {
  TP_CHECK(!in_tick_);
  for (auto& runner : runners_) {
    const Status status = runner->Drain();
    if (first_error_.ok() && !status.ok()) {
      first_error_ = status;
      failed_ = true;
    }
  }
  return first_error_;
}

Status ShardedEngine::Shutdown() {
  if (shut_down_) return Status::OK();
  shut_down_ = true;
  Status first_error = Status::OK();
  // Barrier: drain mailboxes and park the mutator threads, then stop each
  // engine (which drains its writer thread).
  for (auto& runner : runners_) runner->Stop();
  for (auto& runner : runners_) {
    const Status status = runner->status();
    if (first_error.ok() && !status.ok()) first_error = status;
  }
  for (auto& runner : runners_) {
    const Status status = runner->engine().Shutdown();
    if (first_error.ok() && !status.ok()) first_error = status;
  }
  return first_error;
}

Status ShardedEngine::SimulateCrash() {
  TP_CHECK(!shut_down_);
  shut_down_ = true;
  // Barrier first: every shard reaches the fleet tick, so the crash lands
  // between fleet ticks (the per-shard writer threads are still mid-flush,
  // which is what the crash abandons).
  for (auto& runner : runners_) runner->Stop();
  Status first_error = Status::OK();
  for (auto& runner : runners_) {
    const Status status = runner->engine().SimulateCrash();
    if (first_error.ok() && !status.ok()) first_error = status;
  }
  return first_error;
}

Status ShardedEngine::SimulateShardCrash(uint32_t partition) {
  TP_CHECK(!in_tick_ && !shut_down_);
  if (partition >= config().num_shards) {
    return Status::InvalidArgument(
        "SimulateShardCrash of unknown partition " + std::to_string(partition) +
        " (fleet has " + std::to_string(config().num_shards) + ")");
  }
  if (cut_.armed()) {
    return Status::FailedPrecondition(
        "SimulateShardCrash with a consistent cut still in flight (tick " +
        std::to_string(cut_.cut_tick()) + ")");
  }
  if (crashed_[partition]) {
    return Status::FailedPrecondition("partition " + std::to_string(partition) +
                                      " is already crashed");
  }
  // Barrier the WHOLE fleet first: the death lands between fleet ticks,
  // with every replica ring consistent through the same tick as its source
  // (the runner appends hosted deltas before its own tick, so a drained
  // runner has consumed both). The siblings stay alive -- their engines
  // and hosted rings are then safe to read from this thread until the next
  // SubmitTick, which is exactly the window FailoverShard runs in.
  TP_RETURN_NOT_OK(WaitForIdle());
  runners_[partition]->Stop();
  const Status crash = runners_[partition]->engine().SimulateCrash();
  // A dead server loses everything in its memory: its own partition AND
  // the replicas it hosted for others.
  for (const auto& buffer : runners_[partition]->replicas()) {
    buffer->MarkTorn();
  }
  crashed_[partition] = 1;
  ++crashed_count_;
  return crash;
}

Status ShardedEngine::FailoverShard(uint32_t partition) {
  TP_CHECK(!in_tick_ && !shut_down_);
  if (failed_) return first_error_;
  if (partition >= config().num_shards) {
    return Status::InvalidArgument(
        "FailoverShard of unknown partition " + std::to_string(partition) +
        " (fleet has " + std::to_string(config().num_shards) + ")");
  }
  if (!crashed_[partition]) {
    return Status::FailedPrecondition("FailoverShard of partition " +
                                      std::to_string(partition) +
                                      " which is not crashed");
  }
  // A fresh attempt invalidates the previous failover's report NOW, not at
  // success: an error return below (wrong-tick disk recovery, open
  // failure) must never leave a stale used_peer_memory=true / timing
  // record visible to callers inspecting the failed attempt.
  last_failover_report_ = FailoverReport{};
  FailoverReport report;
  report.partition = partition;
  report.rebuilt_ticks = tick_;
  // Phase 1: materialize the partition's state at the fleet tick. Fast
  // path -- the peer's in-memory replica; fallback -- the partition's own
  // disk. Both must land EXACTLY at tick_ (the fleet froze there when the
  // crash hit), so the rebuilt state is byte-identical either way.
  StateTable table(config().shard.layout);
  bool from_peer = false;
  const auto rebuild_start = std::chrono::steady_clock::now();
  if (config().replicate) {
    const uint32_t host = config().replica_peer[partition];
    if (!crashed_[host] && !runners_[host]->has_error()) {
      ReplicaBuffer* buffer = runners_[host]->replica(partition);
      if (buffer != nullptr) {
        StatusOr<uint64_t> ticks_or = buffer->Rebuild(&table);
        from_peer = ticks_or.ok() && ticks_or.value() == tick_;
      }
    }
  }
  const std::string dir = manifest_.PartitionDir(config().shard.dir, partition);
  if (!from_peer) {
    EngineConfig shard_config = config().shard;
    shard_config.dir = dir;
    TP_ASSIGN_OR_RETURN(const RecoveryResult recovered,
                        Recover(shard_config, &table));
    if (recovered.recovered_ticks != tick_) {
      return Status::Corruption(
          "disk recovery of partition " + std::to_string(partition) +
          " reached tick " + std::to_string(recovered.recovered_ticks) +
          ", fleet is at " + std::to_string(tick_));
    }
  }
  report.used_peer_memory = from_peer;
  report.rebuild_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    rebuild_start)
          .count();
  // Phase 2: restart the shard on the rebuilt state. Engine::OpenResumed
  // writes the synchronous bootstrap checkpoint (numbered above every
  // pre-crash image) before the new logical log starts, so a second crash
  // at any later point recovers to at least this tick. The old (crashed)
  // runner stays in place until the new engine opened -- an open failure
  // leaves the fleet exactly as FailoverShard found it, retryable.
  // StartPartition re-anchors the partition's own replica on its live
  // peer (which is how a disk-path failover re-arms the fast path for the
  // next death) and re-hosts the replicas the dead server held.
  const auto resume_start = std::chrono::steady_clock::now();
  TP_ASSIGN_OR_RETURN(auto engine, OpenPartitionEngine(dir, &table));
  crashed_[partition] = 0;
  --crashed_count_;
  StartPartition(partition, std::move(engine));
  report.resume_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    resume_start)
          .count();
  last_failover_report_ = report;
  return Status::OK();
}

ShardedCheckpointStats ShardedEngine::CheckpointStats(bool skip_first) const {
  ShardedCheckpointStats stats;
  double total_sum = 0.0;
  double sync_sum = 0.0;
  double async_sum = 0.0;
  for (const auto& runner : runners_) {
    const auto& records = runner->engine().metrics().checkpoints;
    for (size_t r = skip_first ? 1 : 0; r < records.size(); ++r) {
      const EngineCheckpointRecord& record = records[r];
      ++stats.checkpoints;
      const double total = record.TotalSeconds();
      total_sum += total;
      sync_sum += record.sync_seconds;
      async_sum += record.async_seconds;
      if (total > stats.max_total_seconds) stats.max_total_seconds = total;
    }
  }
  if (stats.checkpoints > 0) {
    const double n = static_cast<double>(stats.checkpoints);
    stats.avg_total_seconds = total_sum / n;
    stats.avg_sync_seconds = sync_sum / n;
    stats.avg_async_seconds = async_sum / n;
  }
  return stats;
}

}  // namespace tickpoint
