// CheckpointWriteSession: the staging half of the checkpoint pipeline.
//
// The writer used to hand the stores one object at a time; a session
// instead gathers the dirty pass's objects into large page-aligned group
// buffers and emits them as contiguous runs, so the store layer sees a few
// big writes (one in-place write per run for BackupStore, one appended
// record run for LogStore) instead of thousands of small ones.
//
// Memory contract: the session owns a small fixed ring of group buffers,
// mapped on first use and never more than ring_depth() of them. An
// emitted run points INTO a ring buffer, and the emit callback returns
// the IoBackend ticket of the write that consumes it. A buffer is refilled
// only after the ticket of its last run has completed, so an async write
// never reads bytes the next run is copying in. The ring depth is the
// backend's queue depth: one buffer when the emit is synchronous (null
// backend, e.g. LogStore appends, or the sync backend), a few when writes
// complete off-thread. The destructor drains the backend, so an error or
// crash-injection path that abandons a checkpoint mid-flight cannot free
// a buffer under a pending write.
#ifndef TICKPOINT_ENGINE_CHECKPOINT_SESSION_H_
#define TICKPOINT_ENGINE_CHECKPOINT_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "model/layout.h"
#include "util/io_backend.h"
#include "util/status.h"

namespace tickpoint {

class CheckpointWriteSession {
 public:
  /// Receives one coalesced run: `count` objects starting at id `first`,
  /// packed contiguously at `data` (count * object_size bytes). Returns
  /// the ticket of the backend write reading `data`, or 0 when the bytes
  /// were consumed before returning; `data` stays untouched until that
  /// ticket completes.
  using EmitRun = std::function<StatusOr<IoTicket>(
      ObjectId first, const uint8_t* data, uint64_t count)>;

  /// Group buffers default to 256 KiB -- large enough that a full image
  /// flush is a few dozen submissions, small enough that a fragmented
  /// dirty set wastes little slack.
  static constexpr uint64_t kDefaultGroupBufferBytes = 256 * 1024;

  /// `backend` completes the tickets the emit callback returns; null when
  /// the emit consumes every run synchronously (it must then return 0).
  CheckpointWriteSession(uint64_t object_size, IoBackend* backend,
                         EmitRun emit,
                         uint64_t group_buffer_bytes = kDefaultGroupBufferBytes);
  ~CheckpointWriteSession();

  CheckpointWriteSession(const CheckpointWriteSession&) = delete;
  CheckpointWriteSession& operator=(const CheckpointWriteSession&) = delete;

  /// Snapshots one object into the current group buffer. Consecutive ids
  /// extend the open run; a gap (or a full buffer) flushes it. This is the
  /// copy-on-write point: after Add returns, the mutator may overwrite the
  /// source freely. May block until the next ring buffer's writes finish,
  /// and returns their sticky write error if any failed.
  Status Add(ObjectId object, const void* data);

  /// Flushes the open run and waits until every emitted run's write has
  /// completed; returns the backend's sticky write status.
  Status Finish();

  uint64_t runs_emitted() const { return runs_emitted_; }
  uint64_t objects_added() const { return objects_added_; }
  /// Buffers in the ring: the most it will ever allocate.
  uint32_t ring_depth() const { return ring_depth_; }
  /// Buffers allocated so far (never more than ring_depth()).
  size_t buffers_allocated() const { return ring_.size(); }

 private:
  Status FlushRun();
  /// Points cursor_ at a buffer with room for at least one object, moving
  /// to the next ring slot (and waiting for its writes) when the current
  /// one is full.
  Status EnsureBufferSpace();

  struct Unmap {
    uint64_t bytes;
    void operator()(uint8_t* p) const;
  };
  struct Slot {
    std::unique_ptr<uint8_t[], Unmap> buffer;
    /// Ticket of the last run emitted from this buffer (0: none pending).
    IoTicket last_ticket = 0;
  };

  const uint64_t object_size_;
  const uint64_t buffer_bytes_;
  IoBackend* backend_;
  EmitRun emit_;
  const uint32_t ring_depth_;

  std::vector<Slot> ring_;
  size_t current_ = 0;            // ring slot being filled
  uint8_t* cursor_ = nullptr;     // next free byte in the current buffer
  uint64_t cursor_left_ = 0;      // bytes left in the current buffer
  const uint8_t* run_data_ = nullptr;
  ObjectId run_first_ = 0;
  uint64_t run_count_ = 0;
  IoTicket last_ticket_ = 0;      // newest ticket of any emitted run

  uint64_t runs_emitted_ = 0;
  uint64_t objects_added_ = 0;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_CHECKPOINT_SESSION_H_
