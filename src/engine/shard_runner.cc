#include "engine/shard_runner.h"

#include <atomic>
#include <chrono>

#include "util/sched_fuzz.h"

namespace tickpoint {

namespace {

/// Wait-loop pacing: spin briefly (the other thread is usually mid-batch
/// and will free a slot or push within microseconds), then yield a few
/// times, then tell the caller to park on its futex word. Parking matters
/// beyond idle-CPU hygiene: on few cores a polling waiter steals the very
/// timeslices the thread it waits on needs.
class Backoff {
 public:
  /// One cheap wait step. Returns true while still in the spin/yield
  /// phase; false once the caller should block on std::atomic::wait.
  bool Spin() {
    TP_SCHED_FUZZ_POINT();
    if (rounds_ < kSpinRounds) {
      ++rounds_;
      return true;
    }
    if (rounds_ < kSpinRounds + kYieldRounds) {
      ++rounds_;
      std::this_thread::yield();
      return true;
    }
    return false;
  }

 private:
  /// Busy-spinning only helps when the peer can run on another core; on a
  /// single hardware thread it burns exactly the timeslice the peer needs,
  /// so go straight to yield there.
  static inline const int kSpinRounds =
      std::thread::hardware_concurrency() > 1 ? 32 : 0;
  static constexpr int kYieldRounds = 2;

  int rounds_ = 0;
};

}  // namespace

ShardRunner::ShardRunner(uint32_t shard_id, std::unique_ptr<Engine> engine,
                         uint64_t max_queue_ticks,
                         CheckpointObserver observer)
    : shard_id_(shard_id),
      engine_(std::move(engine)),
      observer_(std::move(observer)),
      mailbox_(static_cast<size_t>(max_queue_ticks)),
      mark_samples_(static_cast<size_t>(max_queue_ticks) + 2) {
  TP_CHECK(engine_ != nullptr);
  TP_CHECK(max_queue_ticks > 0);
  PublishMarks();
  thread_ = std::thread([this] { ThreadMain(); });
}

ShardRunner::~ShardRunner() { Stop(); }

std::optional<uint64_t> ShardRunner::MarksAt(uint64_t boundary) const {
  const MarkSample& sample = mark_samples_[boundary % mark_samples_.size()];
  if (sample.boundary.load(std::memory_order_acquire) != boundary) {
    return std::nullopt;
  }
  const uint64_t marks = sample.marks.load(std::memory_order_relaxed);
  // Re-check the stamp after the count: a rewrite that began in between
  // invalidated it first, so an unchanged stamp means an untorn count.
  std::atomic_thread_fence(std::memory_order_acquire);
  if (sample.boundary.load(std::memory_order_relaxed) != boundary) {
    return std::nullopt;
  }
  return marks;
}

void ShardRunner::PublishMarks() {
  const uint64_t boundary = engine_->current_tick();
  MarkSample& sample = mark_samples_[boundary % mark_samples_.size()];
  sample.boundary.store(MarkSample::kUnstamped, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  sample.marks.store(engine_->CumulativeDirtyMarks(),
                     std::memory_order_relaxed);
  sample.boundary.store(boundary, std::memory_order_release);
  marks_boundary_.store(boundary, std::memory_order_release);
}

void ShardRunner::SubmitTick(ShardTickBatch batch) {
  TP_CHECK(!stop_.load(std::memory_order_relaxed));
  // Backpressure: bound how far the fleet can run ahead of a slow shard.
  // TryPush fails only while the ring holds max_queue_ticks batches; the
  // wait parks on the completion count (every completion was preceded by
  // the pop that frees a slot), re-trying the push after reading it so a
  // pop in that window cannot be missed.
  Backoff backoff;
  while (!mailbox_.TryPush(std::move(batch))) {
    if (backoff.Spin()) continue;
    const uint32_t seen = slots_signal_.load(std::memory_order_acquire);
    if (mailbox_.TryPush(std::move(batch))) break;
    slots_signal_.wait(seen, std::memory_order_acquire);
  }
  ++ticks_submitted_;
  submit_signal_.fetch_add(1, std::memory_order_release);
  submit_signal_.notify_one();
}

Status ShardRunner::Drain() {
  // Announce the target, then wait on the drain generation: the consumer
  // notifies it exactly once, when the completion count reaches the
  // target, so the producer does not wake (and burn the core) on every
  // intermediate completion. The seq_cst store of the target before the
  // seq_cst completion re-check pairs with the consumer's completion bump
  // before its target read -- one side of that Dekker handshake always
  // observes the other.
  const uint64_t target = ticks_submitted_;
  drain_target_.store(target, std::memory_order_seq_cst);
  Backoff backoff;
  for (;;) {
    if (ticks_completed_.load(std::memory_order_seq_cst) >= target) break;
    if (backoff.Spin()) continue;
    const uint32_t seen = drain_gen_.load(std::memory_order_acquire);
    if (ticks_completed_.load(std::memory_order_seq_cst) >= target) break;
    drain_gen_.wait(seen, std::memory_order_acquire);
  }
  // Disarm so steady-state completions skip the target check's notify
  // (0 is never a live target: a zero-submission drain never waits).
  drain_target_.store(0, std::memory_order_relaxed);
  return status();
}

void ShardRunner::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  // Wake a consumer parked on an empty mailbox so it can observe stop_.
  submit_signal_.fetch_add(1, std::memory_order_release);
  submit_signal_.notify_one();
  thread_.join();
}

Status ShardRunner::status() const {
  if (!has_error_.load(std::memory_order_acquire)) return Status::OK();
  return first_error_;
}

void ShardRunner::ThreadMain() {
  Backoff backoff;
  for (;;) {
    ShardTickBatch batch;
    while (!mailbox_.TryPop(&batch)) {
      // Drain the mailbox before honoring stop: Stop() is a barrier, not
      // an abort (SimulateCrash relies on every shard reaching the fleet
      // tick before the crash lands). The producer sets stop_ only after
      // its last push, so one more pop attempt after seeing stop_ decides
      // emptiness exactly.
      if (stop_.load(std::memory_order_acquire)) {
        if (!mailbox_.TryPop(&batch)) return;
        break;
      }
      if (backoff.Spin()) continue;
      // Park until the producer pushes or stops: the mailbox is re-tried
      // after reading the signal, so a push (which bumps the signal
      // afterwards) in that window either satisfies the retry or makes
      // the wait return immediately.
      const uint32_t seen = submit_signal_.load(std::memory_order_acquire);
      if (mailbox_.TryPop(&batch)) break;
      if (stop_.load(std::memory_order_acquire)) continue;
      submit_signal_.wait(seen, std::memory_order_acquire);
    }
    backoff = Backoff();
    // The pop above freed a ring slot; wake a full-mailbox SubmitTick now
    // rather than a whole batch-processing later. notify_one: the facade
    // thread is the only producer, so at most one waiter exists.
    slots_signal_.fetch_add(1, std::memory_order_release);
    slots_signal_.notify_one();
    ProcessBatch(batch);
    const uint64_t completed =
        ticks_completed_.fetch_add(1, std::memory_order_seq_cst) + 1;
    // Dekker partner of Drain: the completion bump (seq_cst RMW) precedes
    // the target read, so a drain that armed its target before our bump
    // is seen here, and one that armed it after re-reads our completion.
    const uint64_t target = drain_target_.load(std::memory_order_seq_cst);
    if (target != 0 && completed >= target) {
      drain_gen_.fetch_add(1, std::memory_order_release);
      drain_gen_.notify_one();
    }
  }
}

void ShardRunner::ProcessBatch(const ShardTickBatch& batch) {
  // After the sticky error the engine is frozen at its failure tick;
  // discard (but account for) later batches so Drain/Stop terminate.
  if (has_error_.load(std::memory_order_acquire)) return;
  // Replica hosting first: trim at the committed cut (strictly older than
  // this tick), then append the peers' deltas for this tick. Runs before
  // the shard's own tick so a crash barrier that stops after batch N
  // leaves every hosted replica consistent through N as well.
  if (batch.trim_replicas_through != ShardTickBatch::kNoReplicaTrim) {
    for (auto& buffer : replicas_) {
      buffer->TrimThrough(batch.trim_replicas_through);
    }
  }
  for (const ShardTickBatch::ReplicaDelta& delta : batch.replica_updates) {
    ReplicaBuffer* buffer = replica(delta.partition);
    TP_DCHECK(buffer != nullptr);
    if (buffer != nullptr) buffer->Append(batch.tick, delta.updates);
  }
  engine_->BeginTick();
  for (const CellUpdate& update : batch.updates) {
    engine_->ApplyUpdate(update.cell, update.value);
  }
  if (batch.cut_checkpoint) {
    engine_->RequestCutCheckpoint();
  } else if (batch.start_checkpoint) {
    engine_->ScheduleCheckpoint();
  }
  const Status status = engine_->EndTick();
  if (!status.ok()) {
    // Write the payload, then release the flag: status() readers acquire
    // the flag before touching first_error_.
    first_error_ = status;
    has_error_.store(true, std::memory_order_release);
    return;
  }
  PublishMarks();
  if (!observer_) return;
  const auto& records = engine_->metrics().checkpoints;
  // EndTick finalizes drained checkpoints; report the new records (they
  // finished during this tick's end).
  while (checkpoints_reported_ < records.size()) {
    observer_(shard_id_, records[checkpoints_reported_], batch.tick);
    ++checkpoints_reported_;
  }
}

}  // namespace tickpoint
