#include "engine/checkpoint_session.h"

#include <sys/mman.h>

#include <cstring>

namespace tickpoint {

namespace {
constexpr uint64_t kPageBytes = 4096;
}  // namespace

void CheckpointWriteSession::Unmap::operator()(uint8_t* p) const {
  ::munmap(p, bytes);
}

CheckpointWriteSession::CheckpointWriteSession(uint64_t object_size,
                                               IoBackend* backend,
                                               EmitRun emit,
                                               uint64_t group_buffer_bytes)
    : object_size_(object_size),
      // A buffer must hold at least one object; round up to whole pages.
      buffer_bytes_(((group_buffer_bytes > object_size ? group_buffer_bytes
                                                       : object_size) +
                     kPageBytes - 1) &
                    ~(kPageBytes - 1)),
      backend_(backend),
      emit_(std::move(emit)),
      ring_depth_(backend != nullptr ? backend->queue_depth() : 1) {
  TP_CHECK(object_size_ > 0);
  TP_CHECK(emit_ != nullptr);
  TP_CHECK(ring_depth_ > 0);
  ring_.reserve(ring_depth_);
}

CheckpointWriteSession::~CheckpointWriteSession() {
  // Buffers are about to die; no async write may still reference them.
  if (backend_ != nullptr) backend_->Drain();
}

Status CheckpointWriteSession::EnsureBufferSpace() {
  if (cursor_left_ >= object_size_) return Status::OK();
  const size_t next = ring_.empty() ? 0 : (current_ + 1) % ring_depth_;
  if (next == ring_.size()) {
    // Mapped, not malloc'd: the pages go back to the OS when the session
    // ends instead of lingering in whichever allocator arena the writer
    // thread happened to use.
    void* raw = ::mmap(nullptr, buffer_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    TP_CHECK(raw != MAP_FAILED);
    ring_.emplace_back();
    ring_.back().buffer = std::unique_ptr<uint8_t[], Unmap>(
        static_cast<uint8_t*>(raw), Unmap{buffer_bytes_});
  } else if (ring_[next].last_ticket != 0) {
    TP_RETURN_NOT_OK(backend_->WaitFor(ring_[next].last_ticket));
    ring_[next].last_ticket = 0;
  }
  current_ = next;
  cursor_ = ring_[next].buffer.get();
  cursor_left_ = buffer_bytes_;
  return Status::OK();
}

Status CheckpointWriteSession::Add(ObjectId object, const void* data) {
  const bool extends = run_count_ > 0 && object == run_first_ + run_count_ &&
                       cursor_left_ >= object_size_;
  if (!extends) {
    TP_RETURN_NOT_OK(FlushRun());
    TP_RETURN_NOT_OK(EnsureBufferSpace());
    run_data_ = cursor_;
    run_first_ = object;
  }
  std::memcpy(cursor_, data, object_size_);
  cursor_ += object_size_;
  cursor_left_ -= object_size_;
  ++run_count_;
  ++objects_added_;
  return Status::OK();
}

Status CheckpointWriteSession::FlushRun() {
  if (run_count_ == 0) return Status::OK();
  // The open run always lives in the current slot: a full buffer flushes
  // the run before EnsureBufferSpace moves on.
  auto ticket_or = emit_(run_first_, run_data_, run_count_);
  run_count_ = 0;
  run_data_ = nullptr;
  TP_RETURN_NOT_OK(ticket_or.status());
  const IoTicket ticket = ticket_or.value();
  TP_CHECK(ticket == 0 || backend_ != nullptr);
  if (ticket != 0) {
    ring_[current_].last_ticket = ticket;
    last_ticket_ = ticket;
  }
  ++runs_emitted_;
  return Status::OK();
}

Status CheckpointWriteSession::Finish() {
  TP_RETURN_NOT_OK(FlushRun());
  return last_ticket_ != 0 ? backend_->WaitFor(last_ticket_) : Status::OK();
}

}  // namespace tickpoint
