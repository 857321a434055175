#include "util/io_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

// Defined by the build system only when BOTH liburing's header and its
// library were found (header-only presence would compile but fail to link).
#ifdef TICKPOINT_HAVE_LIBURING
#include <liburing.h>
#endif

namespace tickpoint {

const char* IoBackendKindName(IoBackendKind kind) {
  switch (kind) {
    case IoBackendKind::kSync:
      return "sync";
    case IoBackendKind::kAsync:
      return "async";
  }
  return "unknown";
}

StatusOr<IoBackendKind> ParseIoBackendKind(const std::string& name) {
  if (name == "sync") return IoBackendKind::kSync;
  if (name == "async") return IoBackendKind::kAsync;
  return Status::InvalidArgument("unknown io backend: " + name);
}

IoBackendKind DefaultIoBackendKind() {
  static const IoBackendKind kind = [] {
    const char* env = std::getenv("TP_IO_BACKEND");
    if (env != nullptr) {
      auto parsed = ParseIoBackendKind(env);
      if (parsed.ok()) return parsed.value();
    }
    return IoBackendKind::kSync;
  }();
  return kind;
}

IoFile::~IoFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status IoFile::OpenForUpdate(const std::string& path) {
  TP_RETURN_NOT_OK(Close());
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IOError("open failed: " + path + ": " +
                           std::strerror(errno));
  }
  path_ = path;
  return Status::OK();
}

Status IoFile::WriteAt(uint64_t offset, const void* data, uint64_t length) {
  if (!is_open()) return Status::FailedPrecondition("file not open");
  const uint8_t* cursor = static_cast<const uint8_t*>(data);
  uint64_t remaining = length;
  while (remaining > 0) {
    const ssize_t written =
        ::pwrite(fd_, cursor, remaining, static_cast<off_t>(offset));
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite failed: " + path_ + ": " +
                             std::strerror(errno));
    }
    cursor += written;
    offset += static_cast<uint64_t>(written);
    remaining -= static_cast<uint64_t>(written);
  }
  return Status::OK();
}

Status IoFile::Sync() {
  if (!is_open()) return Status::FailedPrecondition("file not open");
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync failed: " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status IoFile::Truncate(uint64_t length) {
  if (!is_open()) return Status::FailedPrecondition("file not open");
  if (::ftruncate(fd_, static_cast<off_t>(length)) != 0) {
    return Status::IOError("ftruncate failed: " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status IoFile::Close() {
  if (!is_open()) return Status::OK();
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) {
    return Status::IOError("close failed: " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

namespace {

/// Submit == complete: the write happens on the submitting thread. This is
/// the crash-sweep baseline -- every byte a test observes on disk was
/// written before the submitting call returned, exactly like the
/// pre-pipeline stores.
class SyncIoBackend : public IoBackend {
 public:
  IoBackendKind kind() const override { return IoBackendKind::kSync; }
  uint32_t queue_depth() const override { return 1; }

  IoTicket SubmitWrite(IoFile* file, uint64_t offset, const void* data,
                       uint64_t length) override {
    if (first_error_.ok()) {
      const Status status = file->WriteAt(offset, data, length);
      if (!status.ok()) first_error_ = status;
    }
    return ++submitted_;
  }

  Status WaitFor(IoTicket) override { return first_error_; }
  Status Drain() override { return first_error_; }

 private:
  IoTicket submitted_ = 0;
  Status first_error_;
};

/// One writer thread draining a bounded request deque. Completions happen
/// in submission order, so the completed-count doubles as the frontier.
/// After the sticky first error the worker stops touching the disk but
/// keeps advancing the frontier, so waiters terminate and see the error.
class ThreadIoBackend : public IoBackend {
 public:
  explicit ThreadIoBackend(uint32_t max_in_flight)
      : max_in_flight_(max_in_flight > 0 ? max_in_flight : 1),
        worker_([this] { WorkerMain(); }) {}

  ~ThreadIoBackend() override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      exit_ = true;
    }
    cv_worker_.notify_one();
    worker_.join();
  }

  IoBackendKind kind() const override { return IoBackendKind::kAsync; }
  uint32_t queue_depth() const override {
    return static_cast<uint32_t>(max_in_flight_);
  }

  IoTicket SubmitWrite(IoFile* file, uint64_t offset, const void* data,
                       uint64_t length) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_submitter_.wait(
        lock, [this] { return submitted_ - completed_ < max_in_flight_; });
    queue_.push_back(Request{file, offset, data, length});
    const IoTicket ticket = ++submitted_;
    cv_worker_.notify_one();
    return ticket;
  }

  Status WaitFor(IoTicket ticket) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_submitter_.wait(lock, [&] { return completed_ >= ticket; });
    return first_error_;
  }

  Status Drain() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_submitter_.wait(lock, [this] { return completed_ >= submitted_; });
    return first_error_;
  }

 private:
  struct Request {
    IoFile* file;
    uint64_t offset;
    const void* data;
    uint64_t length;
  };

  void WorkerMain() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_worker_.wait(lock, [this] { return !queue_.empty() || exit_; });
      if (queue_.empty() && exit_) return;
      const Request request = queue_.front();
      queue_.pop_front();
      Status status;
      if (first_error_.ok()) {
        // The pwrite runs unlocked: submitters must be able to queue (and
        // waiters to park) while the disk is busy.
        lock.unlock();
        status = request.file->WriteAt(request.offset, request.data,
                                       request.length);
        lock.lock();
      }
      if (first_error_.ok() && !status.ok()) first_error_ = status;
      ++completed_;
      cv_submitter_.notify_all();
    }
  }

  const uint64_t max_in_flight_;
  std::mutex mu_;
  std::condition_variable cv_worker_;
  std::condition_variable cv_submitter_;
  std::deque<Request> queue_;
  uint64_t submitted_ = 0;  // guarded by mu_
  uint64_t completed_ = 0;  // guarded by mu_
  Status first_error_;      // guarded by mu_
  bool exit_ = false;       // guarded by mu_
  std::thread worker_;
};

#ifdef TICKPOINT_HAVE_LIBURING

/// Kernel-submitted writes through io_uring. CQEs may complete out of
/// submission order, so each SQE carries its ticket as user_data and the
/// frontier only advances over a dense prefix of completed tickets:
/// WaitFor(t) returns once every write up to t has completed, which is
/// what a writer recycling its buffers needs. At most `max_in_flight`
/// tickets sit past the frontier, so a window of that many flags suffices.
class UringIoBackend : public IoBackend {
 public:
  explicit UringIoBackend(uint32_t max_in_flight)
      : max_in_flight_(max_in_flight > 0 ? max_in_flight : 1),
        done_(max_in_flight_, 0) {
    ring_ok_ = io_uring_queue_init(max_in_flight_, &ring_, 0) == 0;
  }

  ~UringIoBackend() override {
    Drain();
    if (ring_ok_) io_uring_queue_exit(&ring_);
  }

  IoBackendKind kind() const override { return IoBackendKind::kAsync; }
  uint32_t queue_depth() const override {
    return static_cast<uint32_t>(max_in_flight_);
  }

  IoTicket SubmitWrite(IoFile* file, uint64_t offset, const void* data,
                       uint64_t length) override {
    if (!ring_ok_) {
      if (first_error_.ok()) {
        first_error_ = Status::IOError("io_uring_queue_init failed");
      }
      return ++submitted_;
    }
    while (submitted_ - frontier_ >= max_in_flight_) ReapOne();
    struct io_uring_sqe* sqe = io_uring_get_sqe(&ring_);
    while (sqe == nullptr) {
      ReapOne();
      sqe = io_uring_get_sqe(&ring_);
    }
    io_uring_prep_write(sqe, file->fd(), data, static_cast<unsigned>(length),
                        offset);
    const IoTicket ticket = ++submitted_;
    sqe->user_data = ticket;
    io_uring_submit(&ring_);
    return ticket;
  }

  Status WaitFor(IoTicket ticket) override {
    while (ring_ok_ && frontier_ < ticket && frontier_ < submitted_) {
      ReapOne();
    }
    return first_error_;
  }

  Status Drain() override { return WaitFor(submitted_); }

 private:
  void ReapOne() {
    struct io_uring_cqe* cqe = nullptr;
    if (io_uring_wait_cqe(&ring_, &cqe) != 0 || cqe == nullptr) return;
    if (cqe->res < 0 && first_error_.ok()) {
      first_error_ =
          Status::IOError(std::string("io_uring write failed: ") +
                          std::strerror(-cqe->res));
    }
    const IoTicket ticket = cqe->user_data;
    io_uring_cqe_seen(&ring_, cqe);
    done_[ticket % max_in_flight_] = 1;
    while (frontier_ < submitted_ && done_[(frontier_ + 1) % max_in_flight_]) {
      done_[(frontier_ + 1) % max_in_flight_] = 0;
      ++frontier_;
    }
  }

  const uint64_t max_in_flight_;
  struct io_uring ring_;
  bool ring_ok_ = false;
  uint64_t submitted_ = 0;
  /// Every ticket <= frontier_ has completed.
  uint64_t frontier_ = 0;
  /// done_[t % max_in_flight_]: ticket t (past the frontier) completed.
  std::vector<char> done_;
  Status first_error_;
};

#endif  // TICKPOINT_HAVE_LIBURING

}  // namespace

std::unique_ptr<IoBackend> IoBackend::Create(IoBackendKind kind,
                                             uint32_t max_in_flight) {
  if (kind == IoBackendKind::kSync) {
    return std::make_unique<SyncIoBackend>();
  }
#ifdef TICKPOINT_HAVE_LIBURING
  return std::make_unique<UringIoBackend>(max_in_flight);
#else
  return std::make_unique<ThreadIoBackend>(max_in_flight);
#endif
}

}  // namespace tickpoint
