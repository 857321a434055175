// Point-in-time recovery history (WiredTiger's staged checkpoint +
// history store shape): under a RetentionPolicy, checkpoints become
// *generations* instead of being retired. History runs only on the log
// organization (Partial-Redo and Copy-on-Update-Partial-Redo), whose
// checkpoints it can reference where the LogStore wrote them; the
// double-backup organization overwrites its images in place and refuses
// retention (CheckRetention). A generation is one of two kinds:
//
//   log    "log-G.img scanned through C": a log-organization checkpoint is
//          its LogStore generation file read up to consistent tick C. No
//          copy is written; the history references the store's own file.
//          Once a newer full flush retires G, the file is cut back to its
//          own full flush (base tick B): a restore loads that and replays
//          the logical log over [B, C), which the history keeps;
//   zero   the birth state at tick 0, recorded without a file.
//
// Each shard keeps, inside `<shard>/history/`:
//
//   log-<G>.img    the full flush of a superseded LogStore generation
//                  that some log record still references, renamed here
//                  from the shard directory when a newer full flush
//                  retired it and cut back to that first segment (a record
//                  whose generation is still live references the shard
//                  directory's file: readers look here first, then there);
//   seg-<id>.log   an archived slice of a previous incarnation's logical
//                  log, byte-identical to the live logical.log record
//                  format (LogicalLog::Replay works on it unchanged);
//   index.bin      the CRC'd HistoryIndex (version 2) mapping tick ranges
//                  to generations and segments.
//
// Retention counts bases, not records: a base is what a restore loads
// before it replays the logical log. A zero generation is its own base;
// the records of one LogStore generation share its full flush. Each
// retained log generation costs one full flush whatever number of
// checkpoints it holds, so the disk a window needs does not depend on how
// the checkpoints fell between full flushes.
//
// The index is the source of truth. Every mutation follows the same
// crash-atomic protocol: new payload files are written and fsynced FIRST,
// then the index is rewritten via tmp + rename + directory fsync. A crash
// at any step leaves an intact index (old or new); files the index does
// not reference are orphans from the interrupted step, swept on the next
// writable open and ignored by read-only opens. A generation file is
// deleted once no record references it. Superseded LogStore generations
// never stay in the shard directory, where LogStore::Restore could pick a
// stale one after a resume: they move here or are deleted. A CRC-torn
// index can therefore only mean real partial-write corruption -- readers
// surface Corruption and point-in-time recovery falls back to latest
// recovery.
//
// Tick convention (identical to the checkpoint stores): a generation's
// `consistent_tick` C means the image contains the effects of ticks
// [0, C). "Recover to end of tick T" = load a generation with C <= T + 1,
// replay logical records for ticks [C, T], resume at T + 1.
#ifndef TICKPOINT_ENGINE_HISTORY_H_
#define TICKPOINT_ENGINE_HISTORY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "engine/state_table.h"
#include "model/layout.h"
#include "util/status.h"

namespace tickpoint {

struct CompactionStats;

/// How much history a shard retains. Persisted in the v4 fleet manifest so
/// the writer and every post-crash reader agree on the window. Enabled only
/// with a log-organization algorithm (CheckRetention).
struct RetentionPolicy {
  /// Off (the default): checkpoints retire as before, no history dir.
  bool enabled = false;
  /// Keep the generations of at most this many bases (the newest always
  /// survives): the zero generation is one base, and all records of one
  /// LogStore generation share one.
  uint64_t max_generations = 4;
  /// Additionally drop generations whose consistent tick trails the newest
  /// by more than this many ticks. 0 = bounded by max_generations only.
  uint64_t max_retained_ticks = 0;

  bool Valid() const { return !enabled || max_generations >= 1; }
  bool operator==(const RetentionPolicy&) const = default;
};

/// InvalidArgument when `policy` is invalid, or enabled with a
/// double-backup algorithm: history keeps only LogStore generations, so a
/// Copy-on-Update user who wants point-in-time recovery runs
/// kCopyOnUpdatePartialRedo. Every open path calls this before it touches
/// the disk.
Status CheckRetention(const RetentionPolicy& policy, AlgorithmKind algorithm);

/// In-memory form of index.bin.
struct HistoryIndex {
  struct Generation {
    /// On disk as uint32; 0 is the image kind of older writers, which a
    /// reader reports as Corruption.
    enum class Kind : uint32_t { kLog = 1, kZero = 2 };
    uint64_t seq = 0;
    uint64_t consistent_tick = 0;  // effects of ticks [0, C) included
    /// kLog: bytes of log-<log_gen>.img through C while G is live, through
    /// its full flush once retired; kZero: 0.
    uint64_t bytes = 0;
    Kind kind = Kind::kLog;
    uint64_t log_gen = 0;  // kLog only: the LogStore generation G
    /// kLog only: the consistent tick of G's full flush.
    uint64_t log_base_tick = 0;
    bool operator==(const Generation&) const = default;

    /// Tick the payload alone restores: G's full flush for kLog (the
    /// logical log bridges [base_tick, C)), 0 for kZero.
    uint64_t base_tick() const {
      return kind == Kind::kLog ? log_base_tick : consistent_tick;
    }
  };
  struct Segment {
    uint64_t id = 0;
    uint64_t first_tick = 0;  // ticks covered: [first_tick, last_tick]
    uint64_t last_tick = 0;
    uint64_t bytes = 0;  // on-disk size of seg-<id>.log
    bool operator==(const Segment&) const = default;
  };

  uint64_t next_generation_seq = 0;
  uint64_t next_segment_id = 0;
  uint64_t compactions_run = 0;
  std::vector<Generation> generations;  // ascending seq (and tick)
  std::vector<Segment> segments;        // ascending first_tick

  /// Total referenced payload bytes (generations + segments). Log records
  /// share their generation file: each file counts once, at the longest
  /// prefix any record references.
  uint64_t TotalBytes() const;

  /// True if some kLog record references LogStore generation `log_gen`.
  bool ReferencesLog(uint64_t log_gen) const;

  /// True if `a` and `b` restore from the same base (records of one
  /// LogStore generation).
  static bool SharesBase(const Generation& a, const Generation& b);

  /// Number of distinct bases the generations restore from: what
  /// RetentionPolicy::max_generations bounds.
  uint64_t Bases() const;
};

/// The restorable tick window advertised by one shard's history: every
/// tick T in [low_tick, high_tick] satisfies RecoverToTick (recovery.h).
struct HistoryWindow {
  bool any = false;
  uint64_t low_tick = 0;
  uint64_t high_tick = 0;
};

/// Crash-injection points for the archival/compaction protocol sweeps.
/// Each fires once, after the named step completed (the disk holds exactly
/// what a crash there would leave), as Internal("crash injected").
enum class HistoryCrashPoint {
  kNone = 0,
  /// Retirement: one referenced LogStore generation renamed into history/,
  /// not yet cut back to its full flush; the rest of the retirement, its
  /// directory fsyncs and its index commit not done.
  kAfterRetireRename,
  /// Archival: segment file durable, index not yet rewritten.
  kAfterSegmentFile,
  /// Index rewrite: tmp file durable, rename not done.
  kAfterIndexTmp,
  /// Index rewrite: rename done, directory fsync + file deletes not done.
  kAfterIndexRename,
  /// Compaction: straddling segment rewritten under its new id, index not
  /// yet repointed at it.
  kAfterRewriteSegmentFile,
  /// Compaction: new index committed, expired files not yet deleted.
  kBeforeCompactionDeletes,
};

/// Writer-side handle on one shard's history directory. Owned by the
/// Engine when retention is enabled; all methods run on one thread at a
/// time (the engine calls them from the writer thread after checkpoint
/// completion, and from the open path before the writer starts).
class ShardHistory {
 public:
  /// Opens (creating if needed) `<shard_dir>/history`, loads the index
  /// (empty when none exists yet), and sweeps orphaned payload files left
  /// by an interrupted archival or compaction. A torn index is reset. The
  /// caller has validated `policy` (CheckRetention).
  static StatusOr<std::unique_ptr<ShardHistory>> Open(
      const std::string& shard_dir, const StateLayout& layout,
      const RetentionPolicy& policy, bool fsync);

  // ---- Read-only side (recovery, tickpoint_inspect): never mutates. ----

  /// Reads and validates index.bin. NotFound when the shard has no history
  /// directory or index; Corruption when the index is torn.
  static StatusOr<HistoryIndex> ReadIndex(const std::string& shard_dir);

  /// Loads generation `seq` of the shard's index into `out` and returns
  /// its consistent tick, whatever its kind: a log generation whose file
  /// stops short of C is brought to C by replaying the history's segments
  /// and the live logical.log. NotFound when the index has no such
  /// generation, Corruption when C cannot be reached.
  static StatusOr<uint64_t> ReadGenerationImage(const std::string& shard_dir,
                                                uint64_t seq,
                                                StateTable* out);

  /// Loads `generation`'s payload into `out` and returns the tick it
  /// reached: a zero generation clears `out` and reaches 0, a log
  /// generation is scanned as far as its file goes up to C and reaches a
  /// tick in [base_tick(), C]. The caller replays the logical log from the
  /// returned tick. Corruption when the payload reaches no tick in range.
  static StatusOr<uint64_t> LoadGeneration(
      const std::string& shard_dir, const HistoryIndex::Generation& generation,
      StateTable* out);

  /// The shard's restorable window: generations in `index` plus archived
  /// segments plus the shard's live logical.log. Chooses the oldest
  /// generation from which logical coverage is contiguous, so every tick
  /// inside the window really is restorable.
  static StatusOr<HistoryWindow> ComputeWindow(const std::string& shard_dir,
                                               const HistoryIndex& index);

  // ---- Writer side. ----

  /// Records "LogStore generation `log_gen` scanned through C" as a new
  /// generation whose file holds `bytes` through C and whose full flush is
  /// consistent at `base_tick`, then compacts under the policy (one call
  /// per completed checkpoint keeps disk self-bounded). Writes no payload:
  /// the committed segment is the generation. Recording a tick at or below
  /// the newest generation's is a no-op (a crash-retried resume), for
  /// both kinds.
  Status RecordLogGeneration(uint64_t log_gen, uint64_t base_tick,
                             uint64_t consistent_tick, uint64_t bytes);

  /// Records the zeroed birth state at tick 0, without a file, then
  /// compacts.
  Status RecordZeroGeneration();

  /// Retires every LogStore generation below `log_gen` in the shard
  /// directory: a referenced one is renamed into history/ and cut back to
  /// its full flush (its records then replay the logical log from there),
  /// the rest are deleted. Called once generation `log_gen`'s full flush
  /// is durable.
  Status RetireLogGenerations(uint64_t log_gen);

  /// Archives the intact records of `live_log_path` with tick in
  /// (last archived tick, up_to_tick] as a new segment. Called by
  /// Engine::OpenResumed BEFORE the live log is truncated; idempotent
  /// across a crash-retry (the re-run archives the same clamp). A no-op
  /// when the range is empty.
  Status ArchiveLiveLog(const std::string& live_log_path,
                        uint64_t up_to_tick);

  /// Retires the divergent future at a resume: drops generations with
  /// consistent tick > first_tick and trims/drops segment records with
  /// tick >= first_tick. After a point-in-time resume the old timeline
  /// past the resume point must never shadow the new one.
  Status TruncateAbove(uint64_t first_tick);

  /// Applies the retention policy: folds expired generations and deletes/
  /// rewrites the segments that no surviving generation needs. Stats are
  /// optional.
  Status Compact(CompactionStats* stats);

  const HistoryIndex& index() const { return index_; }
  const RetentionPolicy& policy() const { return policy_; }
  uint64_t compactions_run() const { return index_.compactions_run; }

  /// Arms a one-shot crash at `point` (tests only).
  void SetCrashPointForTest(HistoryCrashPoint point) {
    crash_point_ = point;
  }

 private:
  ShardHistory(std::string shard_dir, const StateLayout& layout,
               const RetentionPolicy& policy, bool fsync)
      : shard_dir_(std::move(shard_dir)),
        layout_(layout),
        policy_(policy),
        fsync_(fsync) {}

  /// Appends `generation` under the next seq, commits the index and
  /// compacts; a no-op when its tick does not advance the history.
  Status Append(HistoryIndex::Generation generation);
  /// Commits `index_` durably: tmp write (+fsync), rename, dir fsync.
  Status WriteIndex();
  /// Commits `next` as the index, then deletes `doomed` and every history
  /// log generation `next` no longer references.
  Status CommitAndDelete(HistoryIndex next, std::vector<std::string> doomed);
  /// Deletes payload files the index no longer references.
  Status SweepOrphans();
  /// True (once) when the armed crash point is `point`.
  bool TakeCrashPoint(HistoryCrashPoint point) {
    if (crash_point_ != point) return false;
    crash_point_ = HistoryCrashPoint::kNone;
    return true;
  }

  std::string shard_dir_;
  StateLayout layout_;
  RetentionPolicy policy_;
  bool fsync_ = true;
  HistoryIndex index_;
  HistoryCrashPoint crash_point_ = HistoryCrashPoint::kNone;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_HISTORY_H_
