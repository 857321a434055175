// The logical log (paper Section 3.1): "we log all user actions at each
// tick and replay the ticks to recover. This allows us to recover to the
// precise tick at which a failure occurred."
//
// Each tick appends one self-validating record carrying the cell updates of
// that tick. Group commit is per tick (configurable): the record is fsynced
// every `sync_every` ticks, trading a bounded window of lost ticks for
// fewer syncs. Replay applies records after a checkpoint's consistent tick
// to roll the restored state forward to the crash tick.
#ifndef TICKPOINT_ENGINE_LOGICAL_LOG_H_
#define TICKPOINT_ENGINE_LOGICAL_LOG_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/state_table.h"
#include "util/io.h"
#include "util/status.h"

namespace tickpoint {

/// One logical update: a cell and its new value. (A production MMO would
/// log the user *command*; the trace-driven workloads of the paper's
/// validation are already expressed as cell updates.)
struct CellUpdate {
  uint32_t cell = 0;
  int32_t value = 0;

  bool operator==(const CellUpdate&) const = default;
};

/// Append-side handle.
class LogicalLog {
 public:
  /// Opens `path` for appending, truncating any previous content.
  /// `sync_every` = N > 0: fsync after every N-th tick record.
  static StatusOr<std::unique_ptr<LogicalLog>> Create(const std::string& path,
                                                      uint64_t sync_every);

  /// Appends the updates of `tick`. Ticks must be appended in order.
  Status AppendTick(uint64_t tick, std::span<const CellUpdate> updates);

  /// Forces everything appended so far to stable storage.
  Status Sync();
  Status Close();

  /// Crash-injection close: makes the log look as it would after an OS
  /// crash that lost everything past the last group-commit sync. Closes
  /// the file without a final sync, then truncates it back to the last
  /// synced byte plus a partial-record fragment of whatever followed, so
  /// recovery must both stop at the synced prefix and discard a torn tail.
  Status CloseLosingUnsyncedTail();

  uint64_t ticks_appended() const { return ticks_appended_; }
  uint64_t bytes_appended() const { return writer_.bytes_written(); }
  /// Ticks covered by the last group-commit sync.
  uint64_t synced_ticks() const { return synced_ticks_; }

 private:
  LogicalLog(uint64_t sync_every) : sync_every_(sync_every) {}

  void MarkSynced() {
    synced_ticks_ = ticks_appended_;
    synced_bytes_ = writer_.bytes_written();
  }

  FileWriter writer_;
  uint64_t sync_every_;
  uint64_t ticks_appended_ = 0;
  uint64_t synced_ticks_ = 0;
  uint64_t synced_bytes_ = 0;

 public:
  // ---- Recovery side (static: operates on a closed log file) ----

  /// Outcome of a replay pass.
  struct ReplayStats {
    uint64_t records_applied = 0;
    uint64_t last_tick = 0;  // valid only when records_applied > 0
  };

  /// Replays records with tick in [from_tick, up_to_tick] onto `table`.
  /// Pass UINT64_MAX as `up_to_tick` to replay to the durable end. A torn
  /// tail (crash mid-record) terminates replay cleanly.
  static StatusOr<ReplayStats> Replay(const std::string& path,
                                      uint64_t from_tick, uint64_t up_to_tick,
                                      StateTable* table);

  /// Scans the log and returns the number of intact tick records.
  static StatusOr<uint64_t> CountDurableTicks(const std::string& path);

  /// Tick range covered by a log file's intact records.
  struct RangeStats {
    uint64_t records = 0;
    uint64_t first_tick = 0;  // valid only when records > 0
    uint64_t last_tick = 0;   // valid only when records > 0
  };

  /// Scans the log and reports the first/last intact tick.
  static StatusOr<RangeStats> ScanRange(const std::string& path);

  /// The tick of the log's first intact record, UINT64_MAX when it holds
  /// none. Reads only that record.
  static StatusOr<uint64_t> FirstTick(const std::string& path);

  /// Copies intact records with tick in [from_tick, up_to_tick] from
  /// `path` onto `writer`, re-serialized in the on-disk record format (so
  /// the destination file replays with LogicalLog::Replay). The history
  /// subsystem archives live-log slices into retention segments with this.
  static StatusOr<RangeStats> CopyRecords(const std::string& path,
                                          uint64_t from_tick,
                                          uint64_t up_to_tick,
                                          FileWriter* writer);
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_LOGICAL_LOG_H_
