// Pluggable write backends for the checkpoint pipeline (ROADMAP item 1).
//
// The checkpoint stores used to push every byte through a buffered
// FileWriter on whichever thread happened to flush; the write pipeline
// instead submits positional writes to an IoBackend and waits for them at
// explicit barriers, so the same store code runs synchronously (pwrite on
// the submitting thread -- the crash-sweep baseline) or asynchronously
// (io_uring when the build has liburing, otherwise a writer thread) with a
// bounded in-flight depth. FileWriter (util/io.h) remains the right tool
// for manifests, logical logs, and the checkpoint log's appends; IoBackend
// exists for the bulk image data path.
#ifndef TICKPOINT_UTIL_IO_BACKEND_H_
#define TICKPOINT_UTIL_IO_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace tickpoint {

/// Which implementation Create() builds. A runtime knob, deliberately NOT
/// persisted in any manifest: the on-disk format is identical under both
/// backends, so the same directory can be written async and recovered sync
/// (and every crash sweep runs against both).
enum class IoBackendKind {
  /// pwrite on the submitting thread; SubmitWrite completes before it
  /// returns and WaitFor only reports the sticky status.
  kSync,
  /// Bounded submission queue drained off-thread (io_uring or a writer
  /// thread); SubmitWrite returns once queued.
  kAsync,
};

const char* IoBackendKindName(IoBackendKind kind);

/// Parses "sync"/"async" (InvalidArgument otherwise).
StatusOr<IoBackendKind> ParseIoBackendKind(const std::string& name);

/// Process-wide default, read once: TP_IO_BACKEND=sync|async, else kSync.
IoBackendKind DefaultIoBackendKind();

/// Unbuffered positional file over a raw descriptor: pwrite needs no
/// shared stream position, so writes for one file may be issued from any
/// backend thread without coordination.
class IoFile {
 public:
  IoFile() = default;
  ~IoFile();

  IoFile(const IoFile&) = delete;
  IoFile& operator=(const IoFile&) = delete;

  /// Opens `path` read/write without truncation, creating it if needed.
  Status OpenForUpdate(const std::string& path);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  int fd() const { return fd_; }

  /// Full-length positional write (loops over short pwrites).
  Status WriteAt(uint64_t offset, const void* data, uint64_t length);
  /// fsync to stable storage.
  Status Sync();
  /// Truncates the file to `length` bytes.
  Status Truncate(uint64_t length);
  Status Close();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Tickets are handed out in submission order and form a monotonic
/// completion frontier: WaitFor(t) guarantees every write submitted with a
/// ticket <= t is complete (implementations may conservatively wait for
/// later submissions too).
using IoTicket = uint64_t;

class IoBackend {
 public:
  /// Builds the backend for `kind`. `max_in_flight` bounds the async
  /// submission queue; SubmitWrite blocks while that many writes are
  /// already queued (the bounded-depth contract -- a runaway checkpoint
  /// cannot buffer the whole image in the queue).
  static std::unique_ptr<IoBackend> Create(IoBackendKind kind,
                                           uint32_t max_in_flight = 8);

  virtual ~IoBackend() = default;

  virtual IoBackendKind kind() const = 0;

  /// How many submitted writes may be outstanding at once: 1 for kSync
  /// (a submission completes before it returns), the queue bound for
  /// kAsync. Writers size their buffer rings by it.
  virtual uint32_t queue_depth() const = 0;

  /// Queues `length` bytes at `data` for `file` at `offset` and returns
  /// the write's ticket. The caller must keep both `data` and `file` valid
  /// until a WaitFor/Drain covers the ticket. Write errors are sticky and
  /// surface from WaitFor/Drain, never from SubmitWrite.
  virtual IoTicket SubmitWrite(IoFile* file, uint64_t offset,
                               const void* data, uint64_t length) = 0;

  /// Blocks until the frontier covers `ticket`; returns the sticky first
  /// write error.
  virtual Status WaitFor(IoTicket ticket) = 0;

  /// Barrier over every submission so far.
  virtual Status Drain() = 0;
};

}  // namespace tickpoint

#endif  // TICKPOINT_UTIL_IO_BACKEND_H_
