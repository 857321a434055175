// On-disk checkpoint organizations (paper Section 3.2, "Data organization
// on disk").
//
// BackupStore -- the double-backup organization of Salem & Garcia-Molina:
// two in-place images; checkpoints alternate between them so one complete,
// consistent image exists at all times. Each image file is
// [header][object 0][object 1]...; objects are written at their fixed
// offsets in increasing order (the sorted-I/O pattern). The write protocol
// is crash-safe: the header is invalidated (fsync) before any data write
// and revalidated (fsync) only after all data is durable, so a torn
// checkpoint is never eligible for recovery while the sibling image stays
// untouched. The torn-write defence is this header protocol plus the
// sibling: a crash anywhere inside a checkpoint leaves the target image
// invalid, and recovery restores the sibling and replays the logical log.
//
// Checkpoint data reaches the image through an IoBackend: the writer
// submits each group-buffer run straight to its in-place offset (WriteRange)
// and FinishCheckpoint waits for every submitted run before the data
// fsync. The protocol is therefore: invalidate the header + fsync, submit
// the runs, wait, fsync the data, write the header + fsync.
//
// LogStore -- the log organization of the partial-redo family: checkpoints
// are appended as self-validating segments. A full flush starts a new log
// generation; once it commits, older generations are deleted (this bounds
// the log read-back at recovery to C incremental segments plus one full
// flush, the paper's (k*C + n) model). Restore reads that generation once,
// front to back, so recovery pays exactly the (k*C + n) term: each segment
// is checksummed over large block reads and then applied from the same
// bounded buffer. Appends are torn-safe by the trailing segment CRC.
#ifndef TICKPOINT_ENGINE_CHECKPOINT_STORE_H_
#define TICKPOINT_ENGINE_CHECKPOINT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/state_table.h"
#include "model/layout.h"
#include "util/io.h"
#include "util/io_backend.h"
#include "util/status.h"

namespace tickpoint {

/// Metadata describing one complete on-disk image.
struct ImageInfo {
  bool valid = false;
  uint64_t seq = 0;              // checkpoint sequence number
  uint64_t consistent_tick = 0;  // state is consistent as of this tick's end
  uint32_t state_crc = 0;        // 0 = not recorded
};

/// The double-backup store: files backup0.img and backup1.img under `dir`.
class BackupStore {
 public:
  /// Crash-injection hooks: the named boundary returns an injected error
  /// instead of proceeding (after draining any in-flight writes), leaving
  /// the disk exactly as a crash there would. Each fires once, at the
  /// first time the store reaches it after being armed.
  enum class StageCrashPoint {
    kNone = 0,
    /// After the durable header invalidate, before any data write.
    kAfterBegin,
    /// After the first run landed in place, the rest abandoned.
    kAfterFirstRun,
    /// After the data fsync, before the header commit.
    kAfterDataSync,
  };

  /// Opens both backup files sized for `layout`. `backend` routes
  /// WriteRange (null: the store owns a private synchronous backend). A
  /// writable open creates the directory and the image files, and deletes
  /// the doublewrite region older versions left beside them. With
  /// `writable` false (recovery, inspection) the open creates and deletes
  /// nothing, and only Inspect/ReadAll may be used.
  static StatusOr<std::unique_ptr<BackupStore>> Open(
      const std::string& dir, const StateLayout& layout, bool fsync_enabled,
      IoBackend* backend = nullptr, bool writable = true);

  /// Bare filename of backup image `index` ("backup0.img"/"backup1.img") --
  /// the single owner of the naming rule.
  static std::string ImageFileName(int index);

  /// Invalidates backup `index`'s header durably; must precede data writes.
  Status BeginCheckpoint(int index);

  /// Submits `count` consecutive objects starting at `first` from `data`
  /// to their in-place offsets through the backend and returns the write's
  /// ticket. `data` must stay valid until that ticket completes (at the
  /// latest, until FinishCheckpoint returns). Write errors are sticky and
  /// surface from the backend's WaitFor and from FinishCheckpoint.
  StatusOr<IoTicket> WriteRange(int index, ObjectId first, const void* data,
                                uint64_t count);

  /// Makes the image durable and valid: wait for every submitted run,
  /// fsync data, then write + fsync the header. `state_crc` may be 0
  /// (unchecked).
  Status FinishCheckpoint(int index, uint64_t seq, uint64_t consistent_tick,
                          uint32_t state_crc);

  /// Reads and validates backup `index`'s header. A missing file is an
  /// invalid image.
  StatusOr<ImageInfo> Inspect(int index);

  /// Sequentially reads the whole image into `out`. If the header recorded
  /// a state CRC, verifies it.
  Status ReadAll(int index, StateTable* out);

  const std::string& path(int index) const;

  /// Arms a one-shot crash at `point` (tests only).
  void SetStageCrashPointForTest(StageCrashPoint point) {
    stage_crash_point_ = point;
  }

 private:
  BackupStore(const StateLayout& layout, bool fsync_enabled);
  /// fds have no userspace buffer, so only fsync_enabled_ matters.
  Status MakeDurable(int index);
  /// True (once) when the armed crash point is `point`, after draining the
  /// backend so every submitted write has landed; the caller then returns
  /// the injected error.
  bool TakeCrashPoint(StageCrashPoint point);

  StateLayout layout_;
  bool fsync_enabled_;
  std::string paths_[2];
  IoFile files_[2];

  /// Write routing. backend_ points at the engine-owned backend, or at
  /// owned_backend_ when the caller supplied none.
  IoBackend* backend_ = nullptr;
  std::unique_ptr<IoBackend> owned_backend_;
  StageCrashPoint stage_crash_point_ = StageCrashPoint::kNone;
};

/// One segment inside a log generation (for inspection/tests).
struct SegmentInfo {
  uint64_t seq = 0;
  uint64_t consistent_tick = 0;
  uint64_t object_count = 0;
  bool full_flush = false;
};

/// The append-only checkpoint log, organized in generations.
class LogStore {
 public:
  /// Discovers the generations under `dir`. Creates nothing: the first
  /// BeginGeneration makes the directory, so recovery and inspection can
  /// open a store without touching the disk.
  static StatusOr<std::unique_ptr<LogStore>> Open(const std::string& dir,
                                                  const StateLayout& layout,
                                                  bool fsync_enabled);

  /// True if the bare filename `name` is a generation file ("log-N.img"),
  /// storing N in *gen -- the single owner of the naming rule, shared by
  /// the open-time scan, the stale sweeps, and Engine's fresh-open wipe.
  static bool ParseGenerationFileName(const std::string& name, uint64_t* gen);

  /// Starts generation `gen` (creates/truncates log-<gen>.img). Must be
  /// followed by a full-flush segment.
  Status BeginGeneration(uint64_t gen);

  /// Starts appending a segment of exactly `object_count` objects to the
  /// current generation.
  Status BeginSegment(uint64_t seq, uint64_t consistent_tick, bool full_flush,
                      uint64_t object_count);
  /// Appends one object record to the open segment.
  Status AppendObject(ObjectId object, const void* data);
  /// Appends `count` records for consecutive ids starting at `first`, with
  /// payloads packed contiguously at `data` -- one buffered write per
  /// group-buffer run instead of two per object.
  Status AppendRun(ObjectId first, const void* data, uint64_t count);
  /// Seals the segment (trailing CRC) and makes it durable. All declared
  /// objects must have been appended.
  Status CommitSegment();
  /// Abandons an open segment (crash injection); the torn bytes remain.
  void AbortSegment();

  /// Deletes generation files with gen < `gen` in a small window behind it
  /// (generations advance one at a time in normal operation).
  Status DropGenerationsBefore(uint64_t gen);

  /// Deletes EVERY generation file with gen < `gen`, via a full directory
  /// scan. The resume bootstrap uses this to retire stale pre-crash
  /// generations wholesale, whatever numbers they reached.
  Status DropAllGenerationsBefore(uint64_t gen);

  /// First generation number strictly above every generation file found on
  /// disk when the store was opened (0 for a fresh directory): what a
  /// resumed engine must claim so its bootstrap outranks stale state.
  uint64_t NextFreshGeneration() const {
    return found_disk_generations_ ? current_gen_ + 1 : 0;
  }

  /// Restores the newest recoverable image: picks the highest generation
  /// whose full flush is intact and consistent no later than
  /// `max_consistent_tick`, applies its valid segments with consistent
  /// tick <= the bound in order, and reports the consistent tick reached.
  /// A torn or CRC-failing segment ends the generation like a torn tail.
  /// `out` must be zero/any state; it is fully overwritten by the full
  /// flush, and left cleared on NotFound. The bound (default: none) is how
  /// cut recovery rewinds past checkpoints newer than the cut.
  StatusOr<ImageInfo> Restore(StateTable* out,
                              uint64_t max_consistent_tick = UINT64_MAX);

  /// Lists the valid segments of generation `gen` (tests/inspection).
  StatusOr<std::vector<SegmentInfo>> ListSegments(uint64_t gen);

  uint64_t current_generation() const { return current_gen_; }

 private:
  LogStore(std::string dir, const StateLayout& layout, bool fsync_enabled);
  Status MakeDurable(FileWriter* writer);

  std::string GenPath(uint64_t gen) const;
  /// Walks a generation file once, segment by segment, stopping at the
  /// first torn or CRC-failing one. With `out` null, lists every valid
  /// segment. Otherwise applies and lists the segments with consistent tick
  /// <= `max_consistent_tick`, and lists nothing when the first segment is
  /// not a complete full flush within that bound. Corruption when a
  /// checksummed segment names an object id out of range.
  StatusOr<std::vector<SegmentInfo>> ScanGeneration(
      uint64_t gen, StateTable* out,
      uint64_t max_consistent_tick = UINT64_MAX);

  std::string dir_;
  StateLayout layout_;
  bool fsync_enabled_;
  uint64_t current_gen_ = 0;
  bool found_disk_generations_ = false;
  bool gen_open_ = false;
  FileWriter writer_;
  uint64_t append_offset_ = 0;
  // Open-segment accounting.
  bool segment_open_ = false;
  uint32_t segment_crc_ = 0;
  uint64_t segment_objects_declared_ = 0;
  uint64_t segment_objects_written_ = 0;
  /// Reused serialization buffer for AppendRun records.
  std::vector<uint8_t> run_buf_;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_CHECKPOINT_STORE_H_
