#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "engine/paths.h"
#include "util/crc32.h"
#include "util/sched_fuzz.h"

namespace tickpoint {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// A fresh Open starts a NEW incarnation: its logical log is truncated, so
// any checkpoint a previous process left in `dir` -- whatever disk
// organization wrote it -- would recover with the ticks between its
// consistent tick and this run's start silently missing. Wipe them before
// the stores open. (The resume path must NOT wipe: OpenResumed loads the
// recovered state first and then outranks + retires the stale files in
// WriteBootstrapCheckpoint.)
Status RemoveStaleCheckpointFiles(const std::string& dir) {
  std::error_code exists_ec;
  if (!std::filesystem::exists(dir, exists_ec)) return Status::OK();
  // A previous incarnation's history describes a timeline this fresh
  // incarnation abandons wholesale. It goes first: the shard directory
  // then always holds a log generation newer than any history holds.
  std::error_code history_ec;
  std::filesystem::remove_all(paths::HistoryDir(dir), history_ec);
  if (history_ec) {
    return Status::IOError("remove " + paths::HistoryDir(dir) + ": " +
                           history_ec.message());
  }
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t gen = 0;
    const bool backup_image = name == BackupStore::ImageFileName(0) ||
                              name == BackupStore::ImageFileName(1) ||
                              name == paths::DoublewriteFileName();
    if (backup_image || LogStore::ParseGenerationFileName(name, &gen)) {
      TP_RETURN_NOT_OK(RemoveFileIfExists(entry.path().string()));
    }
  }
  if (ec) {
    return Status::IOError("list " + dir + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace

std::string Engine::LogicalLogPath(const std::string& dir) {
  return paths::LogicalLogPath(dir);
}

Engine::Engine(const EngineConfig& config)
    : config_(config),
      traits_(GetTraits(config.algorithm)),
      state_(config.layout),
      dirty_{AtomicBitMap(config.layout.num_objects()),
             AtomicBitMap(config.layout.num_objects())},
      write_set_(config.layout.num_objects()),
      copied_(config.layout.num_objects()),
      locks_(config.layout.num_objects()),
      aux_(state_.buffer_bytes()) {}

StatusOr<std::unique_ptr<Engine>> Engine::Open(const EngineConfig& config) {
  if (!config.layout.Valid()) {
    return Status::InvalidArgument("invalid state layout");
  }
  if (config.dir.empty()) {
    return Status::InvalidArgument("EngineConfig.dir must be set");
  }
  TP_RETURN_NOT_OK(CheckRetention(config.retention, config.algorithm));
  TP_RETURN_NOT_OK(RemoveStaleCheckpointFiles(config.dir));
  std::unique_ptr<Engine> engine(new Engine(config));
  TP_RETURN_NOT_OK(engine->OpenStores());
  if (engine->history_ != nullptr) {
    // Record the zeroed birth state as generation 0 (consistent tick 0),
    // without a file: the restorable window is well-defined from the
    // first tick, and a RecoverToTick aimed before the first checkpoint
    // has a base.
    TP_RETURN_NOT_OK(engine->history_->RecordZeroGeneration());
  }
  TP_RETURN_NOT_OK(engine->StartLogicalLogAndWriter());
  return engine;
}

StatusOr<std::unique_ptr<Engine>> Engine::OpenResumed(
    const EngineConfig& config, const StateTable& initial,
    uint64_t first_tick) {
  if (initial.layout().num_objects() != config.layout.num_objects()) {
    return Status::InvalidArgument("initial state layout mismatch");
  }
  TP_RETURN_NOT_OK(CheckRetention(config.retention, config.algorithm));
  std::unique_ptr<Engine> engine(new Engine(config));
  std::memcpy(engine->state_.mutable_data(), initial.data(),
              initial.buffer_bytes());
  engine->tick_ = first_tick;
  // Ordering is the crash-safety argument for a death DURING OpenResumed:
  // the bootstrap must be durable before the previous incarnation's
  // logical log is truncated. Die before the bootstrap commits and the old
  // (log, checkpoints) pair is untouched -- recovery repeats verbatim; die
  // after it and the bootstrap is the newest image, so recovery lands on
  // the resume tick whether or not the old log was truncated yet.
  TP_RETURN_NOT_OK(engine->OpenStores());
  if (engine->history_ != nullptr) {
    // Point-in-time history maintenance, BEFORE the live log is truncated
    // by StartLogicalLogAndWriter and before the bootstrap outranks the
    // old images: retire the divergent future (generations/segment ticks
    // at or past the resume tick must never shadow the new timeline), then
    // archive the surviving prefix of the old incarnation's live log --
    // the records history needs to bridge its newest generation up to the
    // resume point. Both are idempotent, and a crash anywhere in here
    // leaves the old stores authoritative (recovery repeats verbatim).
    TP_RETURN_NOT_OK(engine->history_->TruncateAbove(first_tick));
    if (first_tick > 0) {
      TP_RETURN_NOT_OK(engine->history_->ArchiveLiveLog(
          LogicalLogPath(config.dir), first_tick - 1));
    }
  }
  TP_RETURN_NOT_OK(engine->WriteBootstrapCheckpoint());
  TP_RETURN_NOT_OK(engine->StartLogicalLogAndWriter());
  return engine;
}

Status Engine::WriteBootstrapCheckpoint() {
  // Synchronously persist the resumed state as the bootstrap checkpoint so
  // that a crash at any later point recovers from (bootstrap image + new
  // logical log). consistent_ticks = tick_: the image contains everything
  // up to but not including the first tick this engine will run.
  //
  // The directory still holds the previous incarnation's checkpoints, and
  // they are POISON from here on: Init() already truncated the logical
  // log, so any pre-crash image would recover with the ticks between its
  // consistent tick and the resume tick missing. The bootstrap therefore
  // claims a seq/generation strictly above everything on disk and retires
  // the stale state, so recovery can never prefer it. (This ordering --
  // bootstrap durable first, stale state demoted second -- was the dribble
  // resume flake: the bootstrap used to restart generation numbering at 0
  // and lose recovery's newest-generation race to its own past.)
  const uint64_t n = config_.layout.num_objects();
  if (traits_.disk == DiskOrganization::kDoubleBackup) {
    uint64_t bootstrap_seq = 0;
    for (int index = 0; index < 2; ++index) {
      TP_ASSIGN_OR_RETURN(const ImageInfo info, backup_->Inspect(index));
      if (info.valid) bootstrap_seq = std::max(bootstrap_seq, info.seq + 1);
    }
    checkpoint_seq_ = bootstrap_seq + 1;
    TP_RETURN_NOT_OK(backup_->BeginCheckpoint(0));
    TP_RETURN_NOT_OK(backup_->WriteRange(0, 0, state_.data(), n).status());
    const uint32_t crc =
        config_.checksum_state ? state_.Digest() : 0;
    TP_RETURN_NOT_OK(backup_->FinishCheckpoint(0, bootstrap_seq, tick_, crc));
    // Invalidate the stale sibling only after the bootstrap is durable: a
    // fallback to it would silently skip the ticks the truncated logical
    // log no longer carries.
    TP_RETURN_NOT_OK(backup_->BeginCheckpoint(1));
    backup_written_[0] = true;
    next_backup_ = 1;
    return Status::OK();
  }
  checkpoint_seq_ = 1;
  const uint64_t gen = log_->NextFreshGeneration();
  TP_RETURN_NOT_OK(log_->BeginGeneration(gen));
  TP_RETURN_NOT_OK(log_->BeginSegment(0, tick_, /*full_flush=*/true, n));
  for (ObjectId o = 0; o < n; ++o) {
    TP_RETURN_NOT_OK(log_->AppendObject(o, state_.ObjectData(o)));
  }
  TP_RETURN_NOT_OK(log_->CommitSegment());
  // Every stale generation leaves the shard directory now (into history
  // when a record references it), whatever number it reached.
  TP_RETURN_NOT_OK(RetireLogGenerationsBefore(gen));
  next_log_gen_ = gen + 1;
  log_started_ = true;
  // The resumed state is durable: record it as this incarnation's base
  // generation (skipped when the previous timeline already holds a
  // generation at this tick).
  if (history_ == nullptr) return Status::OK();
  return history_->RecordLogGeneration(
      log_->current_generation(), log_->current_generation_base_tick(),
      tick_, log_->current_generation_bytes());
}

Status Engine::RetireLogGenerationsBefore(uint64_t gen) {
  return history_ != nullptr ? history_->RetireLogGenerations(gen)
                             : log_->DropGenerationsBefore(gen);
}

Status Engine::OpenStores() {
  TP_RETURN_NOT_OK(EnsureDirectory(config_.dir));
  if (traits_.disk == DiskOrganization::kDoubleBackup) {
    // One backend per engine: only the writer thread submits image
    // writes, so a single bounded queue is the whole pipeline. (The log
    // organization appends through its own FileWriter.)
    io_backend_ = IoBackend::Create();
    TP_ASSIGN_OR_RETURN(
        backup_, BackupStore::Open(config_.dir, config_.layout, config_.fsync,
                                   io_backend_.get()));
  } else {
    TP_ASSIGN_OR_RETURN(
        log_, LogStore::Open(config_.dir, config_.layout, config_.fsync));
  }
  if (config_.retention.enabled) {
    TP_ASSIGN_OR_RETURN(history_,
                        ShardHistory::Open(config_.dir, config_.layout,
                                           config_.retention, config_.fsync));
  }
  return Status::OK();
}

Status Engine::StartLogicalLogAndWriter() {
  // Creating the logical log TRUNCATES any previous one: from this point
  // the checkpoint store is the only durable source for pre-resume ticks
  // (see the ordering note in OpenResumed).
  TP_ASSIGN_OR_RETURN(logical_,
                      LogicalLog::Create(LogicalLogPath(config_.dir),
                                         config_.logical_sync_every));
  writer_ = std::thread([this] { WriterMain(); });
  return Status::OK();
}

Engine::~Engine() {
  if (!shut_down_) {
    // Best effort; errors are reported through Shutdown in normal use.
    (void)Shutdown();
  }
}

void Engine::BeginTick() {
  TP_CHECK(!in_tick_ && !shut_down_);
  in_tick_ = true;
}

void Engine::ApplyUpdate(uint32_t cell, int32_t value) {
  TP_DCHECK(in_tick_);
  TP_DCHECK(cell < config_.layout.num_cells());
  HandleUpdate(config_.layout.ObjectOfCell(cell));
  state_.WriteCell(cell, value);
  tick_updates_.push_back(CellUpdate{cell, value});
  ++metrics_.updates;
}

void Engine::HandleUpdate(ObjectId object) {
  // Naive-Snapshot: no per-update work at all (Table 2: No-op).
  if (traits_.kind == AlgorithmKind::kNaiveSnapshot) return;

  if (traits_.dirty_only) {
    if (traits_.disk == DiskOrganization::kDoubleBackup) {
      dirty_[0].Set(object);
      dirty_[1].Set(object);
    } else {
      dirty_[0].Set(object);
    }
  }

  if (!active_job_ || !active_job_->cou_mode) return;
  const bool member =
      active_job_->all_objects || write_set_.Test(object);
  if (!member || copied_.Test(object)) return;

  // First touch of an unflushed member: save the pre-image before the
  // update lands. The bit may flip while we wait for the lock (the writer
  // reached the object first); re-check under the lock.
  const auto t0 = Clock::now();
  {
    ObjectLockGuard guard(&locks_, object);
    if (!copied_.Test(object)) {
      state_.CopyObjectTo(object,
                          aux_.data() + object * config_.layout.object_size);
      copied_.Set(object);
      ++metrics_.cou_copies;
    }
  }
  tick_cou_seconds_ += SecondsSince(t0);
}

Status Engine::EndTick() {
  TP_CHECK(in_tick_);
  in_tick_ = false;

  if (!injected_end_tick_error_.ok()) {
    // Fail before the logical append and the tick advance: this tick's
    // updates are lost and the engine freezes at the current tick (a later
    // Shutdown/SimulateCrash still works).
    Status injected = std::move(injected_end_tick_error_);
    injected_end_tick_error_ = Status::OK();
    tick_updates_.clear();
    tick_cou_seconds_ = 0.0;
    return injected;
  }

  // Group-commit the tick's logical updates.
  TP_RETURN_NOT_OK(logical_->AppendTick(tick_, tick_updates_));
  tick_updates_.clear();

  double pause = 0.0;
  if (!crashed_.load(std::memory_order_acquire)) {
    if (active_job_ && job_done_.load(std::memory_order_acquire)) {
      TP_RETURN_NOT_OK(writer_status_);
      FinalizeJob();
    }
    const bool cut_now = cut_checkpoint_requested_.exchange(
        false, std::memory_order_acq_rel);
    if (cut_now) {
      // Consistent-cut checkpoint: unlike the deferrable manual request,
      // the cut MUST cover exactly this tick. Drain whatever flush is
      // still in flight, then start the cut checkpoint at this tick.
      const auto stall_start = Clock::now();
      if (active_job_) {
        WaitForJobDone();
        TP_RETURN_NOT_OK(writer_status_);
        FinalizeJob();
      }
      TP_ASSIGN_OR_RETURN(pause, StartCheckpoint(/*cut=*/true));
      last_start_tick_ = tick_;
      // StartCheckpoint took the tick-T snapshot (the COW rule -- eager
      // copy or cleared copy-bits), so the image's content is already
      // decided; the write itself completes on the writer thread and is
      // finalized at a later tick boundary. The mutator-visible stall is
      // the drain + snapshot only -- never the disk.
      cut_stall_seconds_ = SecondsSince(stall_start);
      pause = cut_stall_seconds_;
      // Publish the ack: invalidate the stamp, write the payload, re-stamp.
      cut_ack_tick_.store(kNoCut, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_release);
      cut_ack_seq_.store(active_job_->seq, std::memory_order_relaxed);
      cut_ack_stall_.store(cut_stall_seconds_, std::memory_order_relaxed);
      TP_SCHED_FUZZ_POINT();
      cut_ack_tick_.store(tick_, std::memory_order_release);
    }
    const bool interval_elapsed =
        checkpoint_seq_ == 0 ||
        tick_ >= last_start_tick_ + config_.checkpoint_interval_ticks;
    if (!cut_now && !active_job_) {
      // Consume the manual request atomically only when a checkpoint can
      // actually start: a request racing in from another thread is either
      // claimed by this exchange or stays pending for the next EndTick,
      // never silently dropped.
      const bool want_start =
          config_.manual_checkpoints
              ? checkpoint_requested_.exchange(false,
                                               std::memory_order_acq_rel)
              : interval_elapsed;
      if (want_start) {
        TP_ASSIGN_OR_RETURN(pause, StartCheckpoint());
        last_start_tick_ = tick_;
      }
    }
  }

  metrics_.tick_overhead.Add(tick_cou_seconds_ + pause);
  tick_cou_seconds_ = 0.0;
  ++tick_;
  return Status::OK();
}

StatusOr<double> Engine::StartCheckpoint(bool cut) {
  TP_CHECK(!active_job_.has_value());
  Job job;
  job.seq = checkpoint_seq_++;
  job.start_tick = tick_;
  job.consistent_ticks = tick_ + 1;  // effects of ticks [0, tick_] included
  job.cut = cut;
  job.full_flush =
      traits_.partial_redo && (job.seq % config_.full_flush_period == 0);

  if (traits_.disk == DiskOrganization::kDoubleBackup) {
    job.backup_index = next_backup_;
    next_backup_ ^= 1;
  }
  const bool first_image = traits_.disk == DiskOrganization::kDoubleBackup
                               ? !backup_written_[job.backup_index]
                               : !log_started_;
  job.all_objects = !traits_.dirty_only || job.full_flush || first_image;
  job.cou_mode = !traits_.eager_copy || job.full_flush;

  const uint64_t n = config_.layout.num_objects();
  if (job.all_objects) {
    job.object_count = n;
    if (traits_.dirty_only) {
      // The full write covers every pending dirty object of this target.
      if (traits_.disk == DiskOrganization::kDoubleBackup) {
        dirty_[job.backup_index].ClearAll();
      } else {
        dirty_[0].ClearAll();
      }
    }
  } else {
    AtomicBitMap& source = traits_.disk == DiskOrganization::kDoubleBackup
                               ? dirty_[job.backup_index]
                               : dirty_[0];
    source.ExchangeInto(&write_set_);
    job.object_count = write_set_.CountSet();
  }

  if (traits_.disk == DiskOrganization::kDoubleBackup) {
    backup_written_[job.backup_index] = true;
  } else {
    if (job.all_objects) {
      job.log_gen = next_log_gen_++;
      job.new_generation = true;
    } else {
      TP_CHECK(next_log_gen_ > 0);
      job.log_gen = next_log_gen_ - 1;
    }
    log_started_ = true;
  }

  // Copy-To-Memory: the synchronous pause of eager algorithms.
  double pause = 0.0;
  if (!job.cou_mode) {
    const auto t0 = Clock::now();
    if (job.all_objects) {
      std::memcpy(aux_.data(), state_.data(), state_.buffer_bytes());
    } else {
      const uint64_t object_size = config_.layout.object_size;
      for (uint64_t o = 0; o < n; ++o) {
        if (!write_set_.Test(o)) continue;
        // Coalesce contiguous dirty runs into single memcpys.
        uint64_t end = o + 1;
        while (end < n && write_set_.Test(end)) ++end;
        std::memcpy(aux_.data() + o * object_size,
                    state_.ObjectData(o), (end - o) * object_size);
        o = end - 1;
      }
    }
    pause = SecondsSince(t0);
  } else {
    copied_.ClearAll();
  }
  job.sync_seconds = pause;

  active_job_ = job;
  job_done_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_pending_ = true;
  }
  cv_.notify_one();
  return pause;
}

void Engine::FinalizeJob() {
  TP_CHECK(active_job_.has_value());
  EngineCheckpointRecord record;
  record.seq = active_job_->seq;
  record.start_tick = active_job_->start_tick;
  record.consistent_ticks = active_job_->consistent_ticks;
  record.all_objects = active_job_->all_objects;
  record.full_flush = active_job_->full_flush;
  record.cut = active_job_->cut;
  record.cut_stall_seconds = cut_stall_seconds_;
  cut_stall_seconds_ = 0.0;
  record.objects_written = active_job_->object_count;
  record.bytes_written =
      active_job_->object_count * config_.layout.object_size;
  record.sync_seconds = active_job_->sync_seconds;
  record.async_seconds = job_async_seconds_;
  metrics_.checkpoints.push_back(record);
  active_job_.reset();
  job_done_.store(false, std::memory_order_release);
}

void Engine::WriterMain() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return job_pending_ || writer_exit_; });
      if (!job_pending_) return;  // exit requested, nothing in flight
      job = *active_job_;
      job_pending_ = false;
    }
    const auto t0 = Clock::now();
    const Status status = ExecuteJob(job);
    job_async_seconds_ = SecondsSince(t0);
    {
      // Publish under mu_ so a mutator blocked in WaitForJobDone re-checks
      // its predicate under the same lock and can never miss this notify.
      std::lock_guard<std::mutex> lock(mu_);
      if (writer_status_.ok() && !status.ok() &&
          !crashed_.load(std::memory_order_acquire)) {
        writer_status_ = status;
      }
      job_done_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    checkpoints_finished_.store(job.seq + 1, std::memory_order_release);
    checkpoints_finished_.notify_all();
  }
}

void Engine::WaitForJobDone() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock,
           [this] { return job_done_.load(std::memory_order_acquire); });
}

std::optional<Engine::CutAck> Engine::CutAckAt(uint64_t cut_tick) const {
  if (cut_ack_tick_.load(std::memory_order_acquire) != cut_tick) {
    return std::nullopt;
  }
  const CutAck ack{cut_ack_seq_.load(std::memory_order_relaxed),
                   cut_ack_stall_.load(std::memory_order_relaxed)};
  // Re-check the stamp after the payload: a rewrite that began in between
  // invalidated it first, so an unchanged stamp means an untorn ack.
  std::atomic_thread_fence(std::memory_order_acquire);
  if (cut_ack_tick_.load(std::memory_order_relaxed) != cut_tick) {
    return std::nullopt;
  }
  return ack;
}

Status Engine::WaitForCheckpoint(uint64_t seq) const {
  for (uint64_t finished = checkpoints_finished(); finished <= seq;
       finished = checkpoints_finished()) {
    checkpoints_finished_.wait(finished, std::memory_order_acquire);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return writer_status_;
}

const uint8_t* Engine::CouSource(ObjectId object, uint8_t* staging) {
  const uint64_t object_size = config_.layout.object_size;
  if (copied_.Test(object)) {
    // Pre-image saved by the mutator; stable once the bit is visible.
    return aux_.data() + object * object_size;
  }
  ObjectLockGuard guard(&locks_, object);
  if (copied_.Test(object)) {
    return aux_.data() + object * object_size;
  }
  // Copy the live object under the lock, *then* publish the bit: a mutator
  // seeing the bit set may write cells freely without tearing this image.
  state_.CopyObjectTo(object, staging);
  copied_.Set(object);
  return staging;
}

Status Engine::ExecuteJob(const Job& job) {
  auto crashed = [this] {
    return crashed_.load(std::memory_order_relaxed);
  };

  if (traits_.disk == DiskOrganization::kDoubleBackup) {
    // Header invalidate, in-place runs, wait + data fsync, header commit:
    // a crash anywhere in between leaves this image invalid and the
    // sibling intact.
    const int backup_index = job.backup_index;
    TP_RETURN_NOT_OK(backup_->BeginCheckpoint(backup_index));
    TP_RETURN_NOT_OK(WriteCheckpointObjects(
        job, io_backend_.get(),
        [this, backup_index](ObjectId first, const uint8_t* data,
                             uint64_t count) {
          return backup_->WriteRange(backup_index, first, data, count);
        }));
    uint32_t state_crc = 0;
    if (config_.checksum_state && !job.cou_mode && job.all_objects) {
      state_crc = Crc32(aux_.data(), state_.buffer_bytes());
    }
    if (crashed()) return Status::Internal("crash injected");
    return backup_->FinishCheckpoint(backup_index, job.seq,
                                     job.consistent_ticks, state_crc);
  }

  // Log organization. Appends are torn-safe (trailing segment CRC) and
  // synchronous: each run is consumed before the emit returns, so the
  // session needs no backend and a single buffer.
  if (job.new_generation) {
    TP_RETURN_NOT_OK(log_->BeginGeneration(job.log_gen));
  }
  TP_RETURN_NOT_OK(log_->BeginSegment(job.seq, job.consistent_ticks,
                                      job.all_objects, job.object_count));
  Status status = WriteCheckpointObjects(
      job, /*backend=*/nullptr,
      [this](ObjectId first, const uint8_t* data,
             uint64_t count) -> StatusOr<IoTicket> {
        TP_RETURN_NOT_OK(log_->AppendRun(first, data, count));
        return IoTicket{0};
      });
  if (status.ok() && crashed()) status = Status::Internal("crash injected");
  if (!status.ok()) {
    log_->AbortSegment();
    return status;
  }
  TP_RETURN_NOT_OK(log_->CommitSegment());
  if (job.new_generation) {
    TP_RETURN_NOT_OK(RetireLogGenerationsBefore(job.log_gen));
  }
  if (history_ == nullptr) return Status::OK();
  // Retention: the committed segment is the generation. History references
  // the LogStore's own file, scanned through this consistent tick.
  return history_->RecordLogGeneration(
      job.log_gen, log_->current_generation_base_tick(), job.consistent_ticks,
      log_->current_generation_bytes());
}

Status Engine::WriteCheckpointObjects(const Job& job, IoBackend* backend,
                                      CheckpointWriteSession::EmitRun emit) {
  const uint64_t n = config_.layout.num_objects();
  const uint64_t object_size = config_.layout.object_size;
  std::vector<uint8_t> staging(object_size);
  // Objects are gathered into the session's group buffers (the COW point:
  // after Add returns, the mutator may overwrite the source).
  CheckpointWriteSession session(object_size, backend, std::move(emit));
  for (uint64_t o = 0; o < n; ++o) {
    if (!job.all_objects && !write_set_.Test(o)) continue;
    if (crashed_.load(std::memory_order_relaxed)) {
      return Status::Internal("crash injected");
    }
    // Eager jobs read the snapshot in aux_; copy-on-update jobs fetch the
    // live object under its lock (Write-Objects vs Write-Copies).
    const uint8_t* src = job.cou_mode ? CouSource(o, staging.data())
                                      : aux_.data() + o * object_size;
    TP_RETURN_NOT_OK(session.Add(o, src));
  }
  return session.Finish();
}

Status Engine::CompletePendingCheckpoint() {
  // Wait for the writer to finish the in-flight job and fold its record
  // into metrics; a no-op when nothing is in flight.
  TP_CHECK(!in_tick_);
  if (crashed_.load(std::memory_order_acquire)) return writer_status_;
  if (!active_job_) return writer_status_;
  WaitForJobDone();
  TP_RETURN_NOT_OK(writer_status_);
  FinalizeJob();
  return Status::OK();
}

Status Engine::Shutdown() {
  if (shut_down_) return Status::OK();
  shut_down_ = true;
  // Drain the in-flight checkpoint (unless crashed).
  if (active_job_ && !crashed_.load(std::memory_order_acquire)) {
    WaitForJobDone();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer_exit_ = true;
  }
  cv_.notify_one();
  if (writer_.joinable()) writer_.join();
  if (active_job_ && job_done_.load(std::memory_order_acquire) &&
      writer_status_.ok() && !crashed_.load(std::memory_order_acquire)) {
    FinalizeJob();
  }
  // logical_ is null when construction failed before the log was created
  // (the destructor still runs Shutdown).
  if (logical_ != nullptr) {
    TP_RETURN_NOT_OK(logical_->Close());
  }
  return writer_status_;
}

Status Engine::SimulateCrash() { return SimulateCrashImpl(false); }

Status Engine::SimulateCrashLosingUnsyncedLog() {
  return SimulateCrashImpl(true);
}

Status Engine::SimulateCrashImpl(bool lose_unsynced_log) {
  TP_CHECK(!shut_down_);
  crashed_.store(true, std::memory_order_release);
  shut_down_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer_exit_ = true;
  }
  cv_.notify_one();
  if (writer_.joinable()) writer_.join();
  // The dead writer's generation file is closed now: the successor that
  // resumes this directory may retire it, and a buffered write flushed by
  // this engine's destructor would then land in the retired file.
  const Status closed = log_ != nullptr ? log_->Close() : Status::OK();
  // The logical log survives to the last durable group commit; in this
  // harness a plain SimulateCrash syncs the tail on close, the hard
  // variant drops everything after the last group commit instead.
  const Status logical = lose_unsynced_log
                             ? logical_->CloseLosingUnsyncedTail()
                             : logical_->Close();
  return closed.ok() ? logical : closed;
}

}  // namespace tickpoint
