#include "util/io_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

namespace tickpoint {

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

}  // namespace

std::unique_ptr<IoBackend> IoBackend::Create(uint32_t max_in_flight) {
  return std::make_unique<ThreadIoBackend>(max_in_flight);
}

}  // namespace tickpoint
