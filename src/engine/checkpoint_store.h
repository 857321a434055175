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
// untouched.
//
// The staged pipeline (ROADMAP item 1) layers a doublewrite guard on top
// of that contract: a staged checkpoint submits its group-buffer runs
// through an IoBackend into the CRC'd doublewrite region first, seals it,
// and only then lands the runs in place -- so a torn in-place batch is
// *repaired* by replay on the next open, not merely kept from mattering by
// the invalid header. The plain WriteRange path remains for bootstrap
// writes and tests; both paths preserve the header protocol unchanged.
//
// LogStore -- the log organization of the partial-redo family: checkpoints
// are appended as self-validating segments. A full flush starts a new log
// generation; once it commits, older generations are deleted (this bounds
// the log read-back at recovery to C incremental segments plus one full
// flush, the paper's (k*C + n) model). Restore reads that generation once,
// front to back, so recovery pays exactly the (k*C + n) term: each segment
// is checksummed over large block reads and then applied from the same
// bounded buffer. Appends are already torn-safe (the trailing segment CRC),
// so staged runs append as before -- no doublewrite.
#ifndef TICKPOINT_ENGINE_CHECKPOINT_STORE_H_
#define TICKPOINT_ENGINE_CHECKPOINT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/doublewrite.h"
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

/// The double-backup store: files backup0.img and backup1.img under `dir`,
/// plus the doublewrite region (paths::DoublewriteFileName).
class BackupStore {
 public:
  /// Crash-injection hooks for the staged pipeline: the named boundary
  /// returns an injected error instead of proceeding (after draining any
  /// in-flight writes), leaving the disk exactly as a crash there would.
  enum class StageCrashPoint {
    kNone = 0,
    /// After the header invalidate, before any doublewrite staging.
    kAfterBegin,
    /// After the first run's doublewrite chunk, before the seal fsync
    /// (the region may hold a torn batch).
    kAfterFirstStage,
    /// After the doublewrite seal, before any in-place write (replay must
    /// complete the batch).
    kAfterSeal,
    /// After the first in-place run landed, the rest abandoned (the torn
    /// in-place batch replay repairs).
    kAfterFirstApply,
  };

  /// Opens (creating if needed) both backup files sized for `layout`.
  /// `backend` routes the staged pipeline's writes (null: the store owns a
  /// private synchronous backend). `replay_doublewrite` applies and then
  /// discards any batch left in the doublewrite region -- pass false only
  /// for read-only inspection, which must not mutate a crash image; the
  /// staged API is unavailable then.
  static StatusOr<std::unique_ptr<BackupStore>> Open(
      const std::string& dir, const StateLayout& layout, bool fsync_enabled,
      IoBackend* backend = nullptr, bool replay_doublewrite = true);

  /// Bare filename of backup image `index` ("backup0.img"/"backup1.img") --
  /// the single owner of the naming rule.
  static std::string ImageFileName(int index);

  /// Invalidates backup `index`'s header; must precede data writes.
  Status BeginCheckpoint(int index);

  /// Writes `count` consecutive objects starting at `first` from `data`.
  /// The direct (unstaged) path: bootstrap images and tests.
  Status WriteRange(int index, ObjectId first, const void* data,
                    uint64_t count);

  // Staged pipeline: Begin -> Stage* -> SealAndApply -> FinishCheckpoint.

  /// BeginCheckpoint + opens a doublewrite batch for image `index`.
  Status BeginStagedCheckpoint(int index);

  /// Stages one group-buffer run (`count` objects from id `first`) into
  /// the doublewrite region. `data` must stay valid until
  /// SealAndApplyStaged or AbandonStaged returns (the session contract).
  Status StageRun(int index, ObjectId first, const void* data,
                  uint64_t count);

  /// Seals the doublewrite region (fsync), then lands every staged run at
  /// its in-place offset. After this, FinishCheckpoint revalidates the
  /// header exactly as in the unstaged protocol.
  Status SealAndApplyStaged(int index);

  /// Abandons an open staged batch (error/crash paths): drains in-flight
  /// writes so callers may free run buffers; on-disk bytes stay torn.
  void AbandonStaged();

  /// Makes the image durable and valid: fsync data, then write + fsync the
  /// header. `state_crc` may be 0 (unchecked).
  Status FinishCheckpoint(int index, uint64_t seq, uint64_t consistent_tick,
                          uint32_t state_crc);

  /// Reads and validates backup `index`'s header.
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
  /// Flush semantics of the old FileWriter path are free with fds (no
  /// userspace buffer); durability still honors fsync_enabled_.
  Status MakeDurable(int index);
  /// True (once) when the armed crash point is `point`; the caller then
  /// abandons the batch and returns the injected error.
  bool TakeCrashPoint(StageCrashPoint point);

  StateLayout layout_;
  bool fsync_enabled_;
  std::string paths_[2];
  IoFile files_[2];

  /// Write routing. backend_ points at the engine-owned backend, or at
  /// owned_backend_ when the caller supplied none.
  IoBackend* backend_ = nullptr;
  std::unique_ptr<IoBackend> owned_backend_;
  /// Null when opened with replay_doublewrite=false (inspection).
  std::unique_ptr<DoublewriteRegion> dw_;

  struct StagedRun {
    ObjectId first = 0;
    const uint8_t* data = nullptr;
    uint64_t count = 0;
  };
  std::vector<StagedRun> staged_;
  int staged_index_ = -1;
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
