// Point-in-time recovery: log-organization checkpoint generations,
// logical-log history retention, and bounded compaction. Five layers under
// test:
//
//   1. PlanCompaction -- the pure retention policy over a HistoryIndex;
//   2. the ShardHistory crash-atomic protocol -- archival, compaction, and
//      truncation swept with a one-shot injected crash after every durable
//      step, each followed by a writable reopen (orphan sweep) and a retry
//      that must converge on the no-crash outcome;
//   3. the fleet manifest retention extension (round-trip,
//      forged-invalid rejection);
//   4. Fleet::RecoverToTick / RestorableWindow end to end -- every tick in
//      the advertised window restores to a state byte-equal to the
//      deterministic reference (and digest-equal to the golden battle for
//      the game workload), under both log-organization algorithms, across
//      resume epochs, and degrading to latest recovery when a shard's
//      index is torn;
//   5. the refusal of retention on the double-backup organization, before
//      any open path touches the disk.
#include "engine/history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/checkpoint_store.h"
#include "engine/compactor.h"
#include "engine/fleet.h"
#include "engine/fleet_manifest.h"
#include "engine/logical_log.h"
#include "engine/mutator.h"
#include "engine/paths.h"
#include "engine/recovery.h"
#include "engine/sharded_engine.h"
#include "fleet_test_util.h"
#include "game/shard_adapter.h"
#include "util/crc32.h"
#include "util/io.h"

namespace tickpoint {
namespace {

// ---- 1. PlanCompaction: pure policy ----

/// A log record that is its own base: LogStore generation `seq`, whose
/// full flush is consistent at `tick`.
HistoryIndex::Generation Gen(uint64_t seq, uint64_t tick, uint64_t bytes) {
  return {seq, tick, bytes, HistoryIndex::Generation::Kind::kLog, seq, tick};
}
HistoryIndex::Segment Seg(uint64_t id, uint64_t first, uint64_t last,
                          uint64_t bytes) {
  return {id, first, last, bytes};
}

TEST(CompactorPlanTest, NoOpUnderBudget) {
  HistoryIndex index;
  index.generations = {Gen(0, 0, 100), Gen(1, 5, 100)};
  index.segments = {Seg(0, 0, 4, 50)};
  RetentionPolicy policy;
  policy.enabled = true;
  policy.max_generations = 4;
  const CompactionPlan plan = PlanCompaction(index, policy);
  EXPECT_TRUE(plan.NoOp());
  EXPECT_EQ(plan.window_base, 0u);
}

TEST(CompactorPlanTest, DropsOldestBeyondMaxGenerations) {
  HistoryIndex index;
  index.generations = {Gen(0, 0, 100), Gen(1, 5, 100), Gen(2, 10, 100),
                       Gen(3, 15, 100)};
  // Segment wholly below the new base, one straddling it, one above.
  index.segments = {Seg(0, 0, 4, 50), Seg(1, 5, 12, 50), Seg(2, 13, 20, 50)};
  RetentionPolicy policy;
  policy.enabled = true;
  policy.max_generations = 2;
  const CompactionPlan plan = PlanCompaction(index, policy);
  EXPECT_EQ(plan.window_base, 10u);  // oldest survivor is C=10
  EXPECT_EQ(plan.drop_generations, (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(plan.drop_segments, (std::vector<uint64_t>{0}));
  EXPECT_EQ(plan.rewrite_segments, (std::vector<uint64_t>{1}));
}

TEST(CompactorPlanTest, RecordsOfOneLogGenerationShareOneBase) {
  // Log records restore from their LogStore generation's full flush, so
  // the count bound keeps whole generations: two bases here are log 2
  // (records at 20, 22) and log 1 (records at 10, 12, 14), and the
  // window base is log 1's full flush at 10, not its first record's tick.
  using Kind = HistoryIndex::Generation::Kind;
  HistoryIndex index;
  index.generations = {{0, 0, 0, Kind::kZero},
                       {1, 12, 100, Kind::kLog, 1, 10},
                       {2, 14, 100, Kind::kLog, 1, 10},
                       {3, 20, 100, Kind::kLog, 2, 20},
                       {4, 22, 100, Kind::kLog, 2, 20}};
  index.segments = {Seg(0, 0, 9, 50), Seg(1, 10, 25, 50)};
  EXPECT_EQ(index.Bases(), 3u);
  RetentionPolicy policy;
  policy.enabled = true;
  policy.max_generations = 2;
  const CompactionPlan plan = PlanCompaction(index, policy);
  EXPECT_EQ(plan.drop_generations, (std::vector<uint64_t>{0}));
  EXPECT_EQ(plan.window_base, 10u);
  EXPECT_EQ(plan.drop_segments, (std::vector<uint64_t>{0}));
  EXPECT_TRUE(plan.rewrite_segments.empty());

  policy.max_generations = 1;
  const CompactionPlan newest = PlanCompaction(index, policy);
  EXPECT_EQ(newest.drop_generations, (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_EQ(newest.window_base, 20u);
}

TEST(CompactorPlanTest, TickBoundDropsTrailersButNeverTheNewest) {
  HistoryIndex index;
  index.generations = {Gen(0, 0, 100), Gen(1, 40, 100), Gen(2, 100, 100)};
  RetentionPolicy policy;
  policy.enabled = true;
  policy.max_generations = 10;  // count alone would keep everything
  policy.max_retained_ticks = 30;
  const CompactionPlan plan = PlanCompaction(index, policy);
  // floor = 100 - 30 = 70: C=0 and C=40 trail it, C=100 survives.
  EXPECT_EQ(plan.drop_generations, (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(plan.window_base, 100u);

  // Even a bound of zero ticks never drops the newest generation.
  policy.max_retained_ticks = 1;
  const CompactionPlan aggressive = PlanCompaction(index, policy);
  EXPECT_EQ(aggressive.drop_generations, (std::vector<uint64_t>{0, 1}));
}

// ---- 2. ShardHistory protocol: crash-at-every-step sweeps ----

/// Every file in the shard's history/ is index.bin or a payload `index`
/// references: a retired log generation or a segment.
void ExpectOnlyReferencedHistoryFiles(const std::string& shard_dir,
                                      const HistoryIndex& index) {
  for (const auto& entry :
       std::filesystem::directory_iterator(paths::HistoryDir(shard_dir))) {
    const std::string name = entry.path().filename().string();
    uint64_t id = 0;
    bool referenced = name == "index.bin";
    if (paths::ParseLogGenerationFileName(name, &id)) {
      referenced = index.ReferencesLog(id);
    } else if (paths::ParseHistorySegmentFileName(name, &id)) {
      for (const auto& seg : index.segments) {
        referenced |= seg.id == id;
      }
    }
    EXPECT_TRUE(referenced) << "unreferenced file survived the sweep: "
                            << name;
  }
}

class HistoryProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    dir_ = (std::filesystem::temp_directory_path() / ("tp_history_" + name))
               .string();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(EnsureDirectory(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  StateLayout layout_ = StateLayout::Small(64, 4);

  /// A fresh shard-like directory for one sweep iteration.
  std::string FreshShardDir(int i) {
    const std::string shard = dir_ + "/case-" + std::to_string(i);
    std::filesystem::remove_all(shard);
    EXPECT_TRUE(EnsureDirectory(shard).ok());
    return shard;
  }

  StateTable MakeState(uint32_t salt) {
    StateTable table(layout_);
    for (uint32_t c = 0; c < 16; ++c) {
      table.WriteCell(c, static_cast<int32_t>(salt * 31 + c));
    }
    return table;
  }

  /// Writes a live logical.log covering ticks [first, last].
  void WriteLiveLog(const std::string& shard_dir, uint64_t first,
                    uint64_t last) {
    auto log_or = LogicalLog::Create(paths::LogicalLogPath(shard_dir), 1);
    ASSERT_TRUE(log_or.ok()) << log_or.status().ToString();
    for (uint64_t t = first; t <= last; ++t) {
      const CellUpdate update{static_cast<uint32_t>(t % 16),
                              static_cast<int32_t>(t * 7)};
      ASSERT_TRUE(log_or.value()->AppendTick(t, {&update, 1}).ok());
    }
    ASSERT_TRUE(log_or.value()->Close().ok());
  }

  StatusOr<std::unique_ptr<ShardHistory>> OpenHistory(
      const std::string& shard_dir, uint64_t max_generations) {
    RetentionPolicy policy;
    policy.enabled = true;
    policy.max_generations = max_generations;
    return ShardHistory::Open(shard_dir, layout_, policy, /*fsync=*/false);
  }

  /// Full referential-integrity check: the index reads back clean, every
  /// referenced payload file exists and validates, and (after a writable
  /// reopen swept orphans) nothing unreferenced is left behind.
  void VerifyIntegrity(const std::string& shard_dir) {
    auto index_or = ShardHistory::ReadIndex(shard_dir);
    ASSERT_TRUE(index_or.ok()) << index_or.status().ToString();
    const HistoryIndex& index = index_or.value();
    for (const auto& gen : index.generations) {
      StateTable table(layout_);
      auto tick_or =
          ShardHistory::ReadGenerationImage(shard_dir, gen.seq, &table);
      ASSERT_TRUE(tick_or.ok())
          << "gen " << gen.seq << ": " << tick_or.status().ToString();
      EXPECT_EQ(tick_or.value(), gen.consistent_tick);
    }
    const std::string history_dir = paths::HistoryDir(shard_dir);
    for (const auto& seg : index.segments) {
      auto range_or = LogicalLog::ScanRange(
          history_dir + "/" + paths::HistorySegmentFileName(seg.id));
      ASSERT_TRUE(range_or.ok())
          << "seg " << seg.id << ": " << range_or.status().ToString();
      EXPECT_EQ(range_or.value().first_tick, seg.first_tick);
      EXPECT_EQ(range_or.value().last_tick, seg.last_tick);
    }
    ExpectOnlyReferencedHistoryFiles(shard_dir, index);
  }

  /// The state of a log generation written by WriteLogGeneration(salt,
  /// tick) after `increments` of its incremental segments: MakeState(salt)
  /// with the WriteLiveLog updates of ticks [tick, tick + increments).
  StateTable LogState(uint32_t salt, uint64_t tick, uint64_t increments) {
    StateTable table = MakeState(salt);
    for (uint64_t t = tick; t < tick + increments; ++t) {
      table.WriteCell(static_cast<uint32_t>(t % 16),
                      static_cast<int32_t>(t * 7));
    }
    return table;
  }

  /// Writes LogStore generation `gen` into `shard_dir`: a full flush of
  /// MakeState(salt) consistent at `tick`, then `increments` one-object
  /// segments consistent at tick + 1, tick + 2, ... (the object every
  /// WriteLiveLog update lands in). Returns the file's bytes through each
  /// segment.
  std::vector<uint64_t> WriteLogGeneration(const std::string& shard_dir,
                                           uint64_t gen, uint32_t salt,
                                           uint64_t tick,
                                           uint64_t increments) {
    std::vector<uint64_t> bytes;
    auto store_or = LogStore::Open(shard_dir, layout_, /*fsync=*/false);
    EXPECT_TRUE(store_or.ok());
    LogStore& store = *store_or.value();
    StateTable state = MakeState(salt);
    EXPECT_TRUE(store.BeginGeneration(gen).ok());
    EXPECT_TRUE(
        store.BeginSegment(gen * 100, tick, true, layout_.num_objects()).ok());
    EXPECT_TRUE(store.AppendRun(0, state.data(), layout_.num_objects()).ok());
    EXPECT_TRUE(store.CommitSegment().ok());
    bytes.push_back(store.current_generation_bytes());
    for (uint64_t i = 1; i <= increments; ++i) {
      state = LogState(salt, tick, i);
      EXPECT_TRUE(store.BeginSegment(gen * 100 + i, tick + i, false, 1).ok());
      EXPECT_TRUE(store.AppendObject(0, state.ObjectData(0)).ok());
      EXPECT_TRUE(store.CommitSegment().ok());
      bytes.push_back(store.current_generation_bytes());
    }
    return bytes;
  }

  /// Writes LogStore generation `gen` as a lone full flush of
  /// MakeState(salt) consistent at `tick`, retires the generations below it
  /// as the engine does once a full flush is durable, and records it.
  Status RecordFullFlush(ShardHistory* history, const std::string& shard_dir,
                         uint64_t gen, uint32_t salt, uint64_t tick) {
    const std::vector<uint64_t> bytes =
        WriteLogGeneration(shard_dir, gen, salt, tick, 0);
    TP_RETURN_NOT_OK(history->RetireLogGenerations(gen));
    return history->RecordLogGeneration(gen, tick, tick, bytes[0]);
  }

  /// The LogStore generation numbers present in `dir`.
  static std::vector<uint64_t> LogFilesIn(const std::string& dir) {
    std::vector<uint64_t> gens;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      uint64_t gen = 0;
      if (paths::ParseLogGenerationFileName(entry.path().filename().string(),
                                            &gen)) {
        gens.push_back(gen);
      }
    }
    std::sort(gens.begin(), gens.end());
    return gens;
  }

  std::string dir_;
};

TEST_F(HistoryProtocolTest, GenerationsRoundTripThroughTheIndex) {
  const std::string shard = FreshShardDir(0);
  auto history_or = OpenHistory(shard, 4);
  ASSERT_TRUE(history_or.ok()) << history_or.status().ToString();
  ShardHistory& history = *history_or.value();
  const StateTable b = MakeState(2);
  ASSERT_TRUE(RecordFullFlush(&history, shard, 0, 1, 5).ok());
  ASSERT_TRUE(RecordFullFlush(&history, shard, 1, 2, 10).ok());
  // Re-recording an already-archived consistent tick is an idempotent
  // no-op (the crash-retry path depends on it).
  const uint64_t bytes_b = history.index().generations[1].bytes;
  ASSERT_TRUE(history.RecordLogGeneration(1, 10, 10, bytes_b).ok());
  ASSERT_EQ(history.index().generations.size(), 2u);

  auto index_or = ShardHistory::ReadIndex(shard);
  ASSERT_TRUE(index_or.ok());
  ASSERT_EQ(index_or->generations.size(), 2u);
  StateTable readback(layout_);
  auto tick_or = ShardHistory::ReadGenerationImage(
      shard, index_or->generations[1].seq, &readback);
  ASSERT_TRUE(tick_or.ok()) << tick_or.status().ToString();
  EXPECT_EQ(tick_or.value(), 10u);
  EXPECT_TRUE(readback.ContentEquals(b));
  VerifyIntegrity(shard);
}

TEST_F(HistoryProtocolTest, RecordGenerationCrashSweep) {
  // A log record writes no payload file, so the index commit is the whole
  // protocol: its two crash points.
  const HistoryCrashPoint points[] = {HistoryCrashPoint::kAfterIndexTmp,
                                      HistoryCrashPoint::kAfterIndexRename};
  int i = 0;
  for (const HistoryCrashPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    const std::string shard = FreshShardDir(i++);
    const StateTable b = MakeState(2);
    uint64_t bytes_b = 0;
    {
      auto history_or = OpenHistory(shard, 4);
      ASSERT_TRUE(history_or.ok());
      ShardHistory& history = *history_or.value();
      ASSERT_TRUE(RecordFullFlush(&history, shard, 0, 1, 5).ok());
      bytes_b = WriteLogGeneration(shard, 1, 2, 10, 0)[0];
      history.SetCrashPointForTest(point);
      EXPECT_EQ(history.RecordLogGeneration(1, 10, 10, bytes_b).code(),
                StatusCode::kInternal);
    }
    // The index on disk is intact (old or new); a writable reopen sweeps
    // whatever the interrupted step left and the retry converges.
    auto reopened_or = OpenHistory(shard, 4);
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
    ASSERT_TRUE(
        reopened_or.value()->RecordLogGeneration(1, 10, 10, bytes_b).ok());
    ASSERT_EQ(reopened_or.value()->index().generations.size(), 2u);
    EXPECT_EQ(reopened_or.value()->index().generations[1].consistent_tick,
              10u);
    StateTable readback(layout_);
    auto tick_or = ShardHistory::ReadGenerationImage(
        shard, reopened_or.value()->index().generations[1].seq, &readback);
    ASSERT_TRUE(tick_or.ok());
    EXPECT_TRUE(readback.ContentEquals(b));
    VerifyIntegrity(shard);
  }
}

TEST_F(HistoryProtocolTest, ArchiveLiveLogCrashSweep) {
  const HistoryCrashPoint points[] = {HistoryCrashPoint::kAfterSegmentFile,
                                      HistoryCrashPoint::kAfterIndexTmp,
                                      HistoryCrashPoint::kAfterIndexRename};
  int i = 0;
  for (const HistoryCrashPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    const std::string shard = FreshShardDir(i++);
    WriteLiveLog(shard, 5, 9);
    const std::string live = paths::LogicalLogPath(shard);
    {
      auto history_or = OpenHistory(shard, 4);
      ASSERT_TRUE(history_or.ok());
      ShardHistory& history = *history_or.value();
      ASSERT_TRUE(RecordFullFlush(&history, shard, 0, 1, 5).ok());
      history.SetCrashPointForTest(point);
      EXPECT_EQ(history.ArchiveLiveLog(live, 9).code(),
                StatusCode::kInternal);
    }
    auto reopened_or = OpenHistory(shard, 4);
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
    // Idempotent retry: either the crashed attempt committed the segment
    // (re-run archives nothing) or it did not (re-run archives [5, 9]).
    ASSERT_TRUE(reopened_or.value()->ArchiveLiveLog(live, 9).ok());
    ASSERT_EQ(reopened_or.value()->index().segments.size(), 1u);
    EXPECT_EQ(reopened_or.value()->index().segments[0].first_tick, 5u);
    EXPECT_EQ(reopened_or.value()->index().segments[0].last_tick, 9u);
    VerifyIntegrity(shard);
  }
}

TEST_F(HistoryProtocolTest, CompactionCrashSweep) {
  const HistoryCrashPoint points[] = {
      HistoryCrashPoint::kAfterRewriteSegmentFile,
      HistoryCrashPoint::kAfterIndexTmp, HistoryCrashPoint::kAfterIndexRename,
      HistoryCrashPoint::kBeforeCompactionDeletes};
  int i = 0;
  for (const HistoryCrashPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    const std::string shard = FreshShardDir(i++);
    WriteLiveLog(shard, 0, 14);
    const std::string live = paths::LogicalLogPath(shard);
    {
      // Build four generations and two segments under a policy loose
      // enough that nothing compacts during setup.
      auto history_or = OpenHistory(shard, 4);
      ASSERT_TRUE(history_or.ok());
      ShardHistory& history = *history_or.value();
      ASSERT_TRUE(history.RecordZeroGeneration().ok());
      ASSERT_TRUE(history.ArchiveLiveLog(live, 4).ok());
      ASSERT_TRUE(RecordFullFlush(&history, shard, 0, 1, 5).ok());
      ASSERT_TRUE(history.ArchiveLiveLog(live, 12).ok());
      ASSERT_TRUE(RecordFullFlush(&history, shard, 1, 2, 10).ok());
      ASSERT_TRUE(RecordFullFlush(&history, shard, 2, 3, 15).ok());
      ASSERT_EQ(history.index().generations.size(), 4u);
      ASSERT_EQ(history.index().segments.size(), 2u);
    }
    // Tighten to two generations: base becomes C=10, segment [0,4] must
    // drop, segment [5,12] must be rewritten to [10,12] under a new id,
    // and the retired log-0.img goes with its only record.
    auto tight_or = OpenHistory(shard, 2);
    ASSERT_TRUE(tight_or.ok());
    tight_or.value()->SetCrashPointForTest(point);
    EXPECT_EQ(tight_or.value()->Compact(nullptr).code(),
              StatusCode::kInternal);

    auto reopened_or = OpenHistory(shard, 2);
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
    ASSERT_TRUE(reopened_or.value()->Compact(nullptr).ok());
    const HistoryIndex& index = reopened_or.value()->index();
    ASSERT_EQ(index.generations.size(), 2u);
    EXPECT_EQ(index.generations[0].consistent_tick, 10u);
    EXPECT_EQ(index.generations[1].consistent_tick, 15u);
    ASSERT_EQ(index.segments.size(), 1u);
    EXPECT_EQ(index.segments[0].first_tick, 10u);
    EXPECT_EQ(index.segments[0].last_tick, 12u);
    VerifyIntegrity(shard);
    // The post-compaction window is exactly as advertised: base C=10
    // serves tick 9, and segment + live coverage reaches tick 14.
    auto window_or = ShardHistory::ComputeWindow(shard, index);
    ASSERT_TRUE(window_or.ok());
    ASSERT_TRUE(window_or->any);
    EXPECT_EQ(window_or->low_tick, 9u);
    EXPECT_EQ(window_or->high_tick, 14u);
  }
}

TEST_F(HistoryProtocolTest, TruncateAboveCrashSweep) {
  const HistoryCrashPoint points[] = {
      HistoryCrashPoint::kAfterRewriteSegmentFile,
      HistoryCrashPoint::kAfterIndexTmp, HistoryCrashPoint::kAfterIndexRename,
      HistoryCrashPoint::kBeforeCompactionDeletes};
  int i = 0;
  for (const HistoryCrashPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    const std::string shard = FreshShardDir(i++);
    WriteLiveLog(shard, 0, 9);
    const std::string live = paths::LogicalLogPath(shard);
    {
      auto history_or = OpenHistory(shard, 8);
      ASSERT_TRUE(history_or.ok());
      ShardHistory& history = *history_or.value();
      ASSERT_TRUE(history.RecordZeroGeneration().ok());
      ASSERT_TRUE(RecordFullFlush(&history, shard, 0, 1, 5).ok());
      ASSERT_TRUE(history.ArchiveLiveLog(live, 9).ok());
      ASSERT_TRUE(RecordFullFlush(&history, shard, 1, 2, 10).ok());
    }
    // Resume at tick 6: generation C=10 is the divergent future, segment
    // [0,9] must be trimmed back to [0,5].
    auto history_or = OpenHistory(shard, 8);
    ASSERT_TRUE(history_or.ok());
    history_or.value()->SetCrashPointForTest(point);
    EXPECT_EQ(history_or.value()->TruncateAbove(6).code(),
              StatusCode::kInternal);

    auto reopened_or = OpenHistory(shard, 8);
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
    ASSERT_TRUE(reopened_or.value()->TruncateAbove(6).ok());
    const HistoryIndex& index = reopened_or.value()->index();
    ASSERT_EQ(index.generations.size(), 2u);
    EXPECT_EQ(index.generations[1].consistent_tick, 5u);
    ASSERT_EQ(index.segments.size(), 1u);
    EXPECT_EQ(index.segments[0].first_tick, 0u);
    EXPECT_EQ(index.segments[0].last_tick, 5u);
    VerifyIntegrity(shard);
  }
}

TEST_F(HistoryProtocolTest, TornIndexIsCorruptionForReadersResetForWriters) {
  const std::string shard = FreshShardDir(0);
  {
    auto history_or = OpenHistory(shard, 4);
    ASSERT_TRUE(history_or.ok());
    ASSERT_TRUE(RecordFullFlush(history_or.value().get(), shard, 0, 1, 5).ok());
  }
  const std::string index_path = paths::HistoryIndexPath(shard);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(index_path, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(index_path, bytes).ok());

  // Readers surface Corruption (point-in-time recovery then falls back).
  EXPECT_EQ(ShardHistory::ReadIndex(shard).status().code(),
            StatusCode::kCorruption);
  // The writer-side open resets the history (the live stores stay the
  // authority) and starts a fresh, usable index.
  auto reopened_or = OpenHistory(shard, 4);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  EXPECT_TRUE(reopened_or.value()->index().generations.empty());
  ASSERT_TRUE(RecordFullFlush(reopened_or.value().get(), shard, 1, 2, 7).ok());
  VerifyIntegrity(shard);
}

TEST_F(HistoryProtocolTest,
       ImageKindRecordIsCorruptionForReadersResetForWriters) {
  // Kind 0 was the image generation of double-backup retention, which no
  // longer exists. An index carrying one, CRC intact, is Corruption like a
  // torn index: readers fall back to latest, a writable open resets.
  const std::string shard = FreshShardDir(0);
  {
    auto history_or = OpenHistory(shard, 4);
    ASSERT_TRUE(history_or.ok());
    ASSERT_TRUE(RecordFullFlush(history_or.value().get(), shard, 0, 1, 5).ok());
  }
  ASSERT_TRUE(ShardHistory::ReadIndex(shard).ok());
  // index.bin: a 48-byte header, then 48-byte generation records whose
  // uint32 kind sits at offset 40, then segments and a trailing CRC32.
  const std::string index_path = paths::HistoryIndexPath(shard);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(index_path, &bytes).ok());
  constexpr size_t kKindOffset = 48 + 40;
  uint32_t kind = 0;
  std::memcpy(&kind, &bytes[kKindOffset], sizeof(kind));
  ASSERT_EQ(kind, static_cast<uint32_t>(HistoryIndex::Generation::Kind::kLog));
  kind = 0;
  std::memcpy(&bytes[kKindOffset], &kind, sizeof(kind));
  bytes.resize(bytes.size() - sizeof(uint32_t));
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  ASSERT_TRUE(WriteStringToFile(index_path, bytes).ok());

  EXPECT_EQ(ShardHistory::ReadIndex(shard).status().code(),
            StatusCode::kCorruption);
  auto reopened_or = OpenHistory(shard, 4);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  EXPECT_TRUE(reopened_or.value()->index().generations.empty());
  ASSERT_TRUE(RecordFullFlush(reopened_or.value().get(), shard, 1, 2, 7).ok());
  VerifyIntegrity(shard);
}

TEST_F(HistoryProtocolTest, LogGenerationsAreReferencedNotCopied) {
  const std::string shard = FreshShardDir(0);
  const std::vector<uint64_t> bytes0 = WriteLogGeneration(shard, 0, 1, 5, 2);
  WriteLiveLog(shard, 5, 12);
  auto history_or = OpenHistory(shard, 2);
  ASSERT_TRUE(history_or.ok()) << history_or.status().ToString();
  ShardHistory& history = *history_or.value();
  ASSERT_TRUE(history.RecordZeroGeneration().ok());
  ASSERT_TRUE(history.RecordLogGeneration(0, 5, 5, bytes0[0]).ok());
  ASSERT_TRUE(history.RecordLogGeneration(0, 5, 7, bytes0[2]).ok());
  // No payload was written: the records name the live generation file,
  // which stays where the LogStore wrote it, and it counts once.
  EXPECT_TRUE(LogFilesIn(paths::HistoryDir(shard)).empty());
  EXPECT_EQ(history.index().TotalBytes(), bytes0[2]);

  // Each kind loads exactly at its tick: the zero state, and the shared
  // file scanned through 5 (the full flush alone) and through 7.
  StateTable table(layout_);
  const auto& gens = history.index().generations;
  ASSERT_EQ(gens.size(), 3u);
  EXPECT_EQ(gens[0].kind, HistoryIndex::Generation::Kind::kZero);
  table.WriteCell(3, 99);
  ASSERT_EQ(ShardHistory::ReadGenerationImage(shard, gens[0].seq, &table)
                .value(),
            0u);
  EXPECT_TRUE(table.ContentEquals(StateTable(layout_)));
  ASSERT_EQ(ShardHistory::ReadGenerationImage(shard, gens[1].seq, &table)
                .value(),
            5u);
  EXPECT_TRUE(table.ContentEquals(LogState(1, 5, 0)));
  ASSERT_EQ(ShardHistory::ReadGenerationImage(shard, gens[2].seq, &table)
                .value(),
            7u);
  EXPECT_TRUE(table.ContentEquals(LogState(1, 5, 2)));
  const HistoryIndex::Generation at_7 = gens[2];

  // Generation 2 is a new base: with two bases retained, the zero state
  // goes. Its full flush retires generation 0 into history/, cut back to
  // its full flush; a superseded generation no record references is
  // deleted instead.
  WriteLogGeneration(shard, 1, 2, 8, 0);
  const std::vector<uint64_t> bytes2 = WriteLogGeneration(shard, 2, 3, 10, 2);
  ASSERT_TRUE(history.RecordLogGeneration(2, 10, 10, bytes2[0]).ok());
  EXPECT_EQ(history.index().generations.size(), 3u);
  ASSERT_TRUE(history.RetireLogGenerations(2).ok());
  EXPECT_EQ(LogFilesIn(shard), (std::vector<uint64_t>{2}));
  EXPECT_EQ(LogFilesIn(paths::HistoryDir(shard)), (std::vector<uint64_t>{0}));
  const std::string retired =
      paths::HistoryDir(shard) + "/" + paths::LogGenerationFileName(0);
  EXPECT_EQ(std::filesystem::file_size(retired), bytes0[0]);
  EXPECT_EQ(history.index().TotalBytes(), bytes0[0] + bytes2[0]);

  // The record at 7 now loads its base at 5 and replays ticks 5 and 6.
  auto loaded_or = ShardHistory::LoadGeneration(shard, at_7, &table);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  EXPECT_EQ(loaded_or.value(), 5u);
  ASSERT_EQ(ShardHistory::ReadGenerationImage(shard, at_7.seq, &table).value(),
            7u);
  EXPECT_TRUE(table.ContentEquals(LogState(1, 5, 2)));
  VerifyIntegrity(shard);

  // A logical log that stops short of the record's tick is Corruption, and
  // so is a retired file cut below its full flush.
  WriteLiveLog(shard, 5, 5);
  EXPECT_EQ(ShardHistory::ReadGenerationImage(shard, at_7.seq, &table)
                .status()
                .code(),
            StatusCode::kCorruption);
  WriteLiveLog(shard, 5, 12);
  std::filesystem::resize_file(retired, bytes0[0] - 8);
  EXPECT_EQ(ShardHistory::ReadGenerationImage(shard, at_7.seq, &table)
                .status()
                .code(),
            StatusCode::kCorruption);

  // Records sharing generation 2 add no base; generation 3 does, so
  // generation 0's records are dropped and its file goes too.
  ASSERT_TRUE(history.RecordLogGeneration(2, 10, 11, bytes2[1]).ok());
  ASSERT_TRUE(history.RecordLogGeneration(2, 10, 12, bytes2[2]).ok());
  EXPECT_TRUE(history.index().ReferencesLog(0));
  const std::vector<uint64_t> bytes3 = WriteLogGeneration(shard, 3, 4, 13, 0);
  ASSERT_TRUE(history.RetireLogGenerations(3).ok());
  ASSERT_TRUE(history.RecordLogGeneration(3, 13, 13, bytes3[0]).ok());
  EXPECT_FALSE(history.index().ReferencesLog(0));
  EXPECT_EQ(history.index().generations.size(), 4u);
  EXPECT_EQ(LogFilesIn(paths::HistoryDir(shard)), (std::vector<uint64_t>{2}));
  VerifyIntegrity(shard);
}

TEST_F(HistoryProtocolTest, RetireCrashSweep) {
  // A full flush of generation 1 retires generation 0 (rename into
  // history/, cut back to its full flush, index commit) and then commits
  // its own record. A crash after any step leaves every referenced
  // generation loadable, and the writable reopen + retry converges on the
  // no-crash outcome.
  const HistoryCrashPoint points[] = {HistoryCrashPoint::kAfterRetireRename,
                                      HistoryCrashPoint::kAfterIndexTmp,
                                      HistoryCrashPoint::kAfterIndexRename};
  int i = 0;
  for (const HistoryCrashPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    const std::string shard = FreshShardDir(i++);
    const std::vector<uint64_t> bytes0 = WriteLogGeneration(shard, 0, 1, 5, 2);
    const std::vector<uint64_t> bytes1 = WriteLogGeneration(shard, 1, 2, 8, 0);
    WriteLiveLog(shard, 5, 8);
    {
      auto history_or = OpenHistory(shard, 4);
      ASSERT_TRUE(history_or.ok());
      ShardHistory& history = *history_or.value();
      ASSERT_TRUE(history.RecordLogGeneration(0, 5, 5, bytes0[0]).ok());
      ASSERT_TRUE(history.RecordLogGeneration(0, 5, 7, bytes0[2]).ok());
      history.SetCrashPointForTest(point);
      Status status = history.RetireLogGenerations(1);
      if (status.ok()) {
        status = history.RecordLogGeneration(1, 8, 8, bytes1[0]);
      }
      EXPECT_EQ(status.code(), StatusCode::kInternal);
    }
    // Before the retry, whatever the crash left is readable.
    {
      auto index_or = ShardHistory::ReadIndex(shard);
      ASSERT_TRUE(index_or.ok()) << index_or.status().ToString();
      StateTable table(layout_);
      for (const auto& gen : index_or->generations) {
        auto tick_or =
            ShardHistory::ReadGenerationImage(shard, gen.seq, &table);
        ASSERT_TRUE(tick_or.ok()) << tick_or.status().ToString();
        EXPECT_EQ(tick_or.value(), gen.consistent_tick);
      }
    }
    auto reopened_or = OpenHistory(shard, 4);
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
    ShardHistory& history = *reopened_or.value();
    ASSERT_TRUE(history.RetireLogGenerations(1).ok());
    ASSERT_TRUE(history.RecordLogGeneration(1, 8, 8, bytes1[0]).ok());
    EXPECT_EQ(LogFilesIn(shard), (std::vector<uint64_t>{1}));
    EXPECT_EQ(LogFilesIn(paths::HistoryDir(shard)),
              (std::vector<uint64_t>{0}));
    EXPECT_EQ(std::filesystem::file_size(paths::HistoryDir(shard) + "/" +
                                         paths::LogGenerationFileName(0)),
              bytes0[0]);
    const auto& gens = history.index().generations;
    ASSERT_EQ(gens.size(), 3u);
    EXPECT_EQ(gens[1].bytes, bytes0[0]);
    const StateTable expected[] = {LogState(1, 5, 0), LogState(1, 5, 2),
                                   LogState(2, 8, 0)};
    for (size_t g = 0; g < gens.size(); ++g) {
      StateTable table(layout_);
      auto tick_or =
          ShardHistory::ReadGenerationImage(shard, gens[g].seq, &table);
      ASSERT_TRUE(tick_or.ok()) << tick_or.status().ToString();
      EXPECT_TRUE(table.ContentEquals(expected[g])) << "generation " << g;
    }
    VerifyIntegrity(shard);
  }
}

TEST_F(HistoryProtocolTest, UnreferencedLogGenerationsAreSweptOnOpen) {
  // A compaction that committed its index but crashed before deleting a
  // retired generation leaves an orphan; the writable open removes it.
  const std::string shard = FreshShardDir(0);
  {
    auto history_or = OpenHistory(shard, 4);
    ASSERT_TRUE(history_or.ok());
    ASSERT_TRUE(history_or.value()->RecordZeroGeneration().ok());
  }
  const std::vector<uint64_t> bytes = WriteLogGeneration(shard, 3, 1, 5, 0);
  std::filesystem::rename(
      shard + "/" + paths::LogGenerationFileName(3),
      paths::HistoryDir(shard) + "/" + paths::LogGenerationFileName(3));
  auto reopened_or = OpenHistory(shard, 4);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  EXPECT_TRUE(LogFilesIn(paths::HistoryDir(shard)).empty());
  VerifyIntegrity(shard);
}

// ---- 3. The manifest retention extension ----

class HistoryManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    dir_ = (std::filesystem::temp_directory_path() / ("tp_histman_" + name))
               .string();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(EnsureDirectory(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  FleetManifest Sample() {
    FleetManifest manifest;
    manifest.config.num_shards = 2;
    manifest.assignment = {0, 1};
    manifest.config.shard.layout = StateLayout::Small(256, 10);
    manifest.config.shard.algorithm = AlgorithmKind::kCopyOnUpdatePartialRedo;
    manifest.config.replica_peer = {1, 0};
    return manifest;
  }

  std::string dir_;
};

TEST_F(HistoryManifestTest, RetentionRoundTripsThroughTheManifest) {
  FleetManifest written = Sample();
  written.config.shard.retention.enabled = true;
  written.config.shard.retention.max_generations = 5;
  written.config.shard.retention.max_retained_ticks = 40;
  ASSERT_TRUE(WriteFleetManifest(dir_, written, /*fsync=*/false).ok());
  auto read_or = ReadFleetManifestFile(paths::FleetManifestPath(dir_, 0));
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  EXPECT_EQ(read_or->config.shard.retention, written.config.shard.retention);
}

TEST_F(HistoryManifestTest, ForgedInvalidRetentionIsCorruption) {
  // retention enabled with max_generations == 0 cannot be produced by the
  // writer; a forged file carrying it (CRC fixed up) must be rejected by
  // validation, not acted on.
  ASSERT_TRUE(WriteFleetManifest(dir_, Sample(), /*fsync=*/false).ok());
  const std::string path = paths::FleetManifestPath(dir_, 0);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  const size_t ext_off = bytes.size() - 4 - 24;
  const uint64_t zero_generations = 0;
  const uint8_t enabled = 1;
  std::memcpy(&bytes[ext_off], &zero_generations, sizeof(zero_generations));
  std::memcpy(&bytes[ext_off + 16], &enabled, sizeof(enabled));
  bytes.resize(bytes.size() - 4);
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  EXPECT_EQ(ReadFleetManifestFile(path).status().code(),
            StatusCode::kCorruption);
}

// ---- 4. Fleet-level point-in-time recovery ----

StateLayout ShardLayout() { return StateLayout::Small(256, 10); }

constexpr uint64_t kUpdatesPerTick = 60;

class FleetPitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_pit_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ShardedEngineConfig Config(
      uint32_t num_shards,
      AlgorithmKind algorithm = AlgorithmKind::kCopyOnUpdatePartialRedo) {
    ShardedEngineConfig config;
    config.shard.layout = ShardLayout();
    config.shard.algorithm = algorithm;
    config.shard.dir = dir_;
    config.shard.fsync = false;  // simulated crashes: page cache is durable
    config.shard.full_flush_period = 3;
    config.shard.retention.enabled = true;
    config.shard.retention.max_generations = 3;
    config.num_shards = num_shards;
    config.checkpoint_period_ticks = 5;
    return config;
  }

  /// Drives `ticks` fleet ticks of the deterministic workload, with every
  /// value offset by `salt` (a nonzero salt makes a resumed timeline
  /// observably diverge from the original -- the workload is otherwise a
  /// pure function of the tick). Appends the post-tick fleet state to
  /// `per_tick` for later byte-comparison against restores.
  void RunTicks(ShardedEngine* engine, uint64_t ticks, int32_t salt,
                std::vector<StateTable>* reference,
                std::vector<std::vector<StateTable>>* per_tick) {
    const uint64_t num_cells = ShardLayout().num_cells();
    if (reference->empty()) {
      for (uint32_t i = 0; i < engine->num_shards(); ++i) {
        reference->emplace_back(ShardLayout());
      }
    }
    for (uint64_t t = 0; t < ticks; ++t) {
      const uint64_t tick = engine->current_tick();
      engine->BeginTick();
      for (uint32_t shard = 0; shard < engine->num_shards(); ++shard) {
        for (uint64_t i = 0; i < kUpdatesPerTick; ++i) {
          const uint32_t cell = WorkloadCell(shard, tick, i, num_cells);
          const int32_t value = WorkloadValue(tick, cell, i) + salt;
          engine->ApplyUpdate(shard, cell, value);
          (*reference)[shard].WriteCell(cell, value);
        }
      }
      ASSERT_TRUE(engine->EndTick().ok());
      if (per_tick != nullptr) {
        if (per_tick->size() <= tick) per_tick->resize(tick + 1);
        (*per_tick)[tick] = SnapshotTables(*reference);
      }
    }
  }

  /// Restores the fleet to `tick` and byte-compares every shard against
  /// the recorded post-tick snapshot.
  void ExpectRestoreMatches(
      uint64_t tick, const std::vector<std::vector<StateTable>>& per_tick) {
    SCOPED_TRACE("restore to tick " + std::to_string(tick));
    auto restored_or = Fleet::RecoverToTick(dir_, tick);
    ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
    ASSERT_TRUE(restored_or->at_requested_tick())
        << "tick " << tick << " fell back to latest recovery";
    EXPECT_EQ(restored_or->resume_tick(), tick + 1);
    EXPECT_EQ(restored_or->result().target.tick, tick);
    ASSERT_LT(tick, per_tick.size());
    for (uint32_t i = 0; i < restored_or->tables().size(); ++i) {
      EXPECT_TRUE(restored_or->tables()[i].ContentEquals(per_tick[tick][i]))
          << "shard " << i << " at tick " << tick;
    }
  }

  /// Every shard keeps only files its history index references: history/
  /// holds referenced log generations and segments, and the shard
  /// directory at most the live log generation.
  void ExpectOnlyReferencedFiles(uint32_t num_shards) {
    for (uint32_t i = 0; i < num_shards; ++i) {
      SCOPED_TRACE("shard " + std::to_string(i));
      const std::string shard = paths::ShardDir(dir_, i);
      auto index_or = ShardHistory::ReadIndex(shard);
      ASSERT_TRUE(index_or.ok()) << index_or.status().ToString();
      ExpectOnlyReferencedHistoryFiles(shard, index_or.value());
      // A crash may leave a torn newer generation beside the live one, but
      // nothing older than the newest intact full flush.
      std::vector<uint64_t> gens;
      for (const auto& entry : std::filesystem::directory_iterator(shard)) {
        uint64_t gen = 0;
        if (paths::ParseLogGenerationFileName(
                entry.path().filename().string(), &gen)) {
          gens.push_back(gen);
        }
      }
      std::sort(gens.begin(), gens.end());
      auto store_or = LogStore::Open(shard, ShardLayout(), /*fsync=*/false);
      ASSERT_TRUE(store_or.ok());
      while (gens.size() > 1) {
        auto segments_or = store_or.value()->ListSegments(gens.back());
        if (segments_or.ok() && !segments_or->empty() &&
            segments_or->front().full_flush) {
          break;
        }
        gens.pop_back();
      }
      EXPECT_LE(gens.size(), 1u)
          << "a superseded log generation stayed in the shard directory";
    }
  }

  std::string dir_;
};

/// Both log-organization algorithms, whose generation files history
/// references: Partial-Redo copies eagerly, Copy-on-Update-Partial-Redo
/// copies on update.
const AlgorithmKind kLogAlgorithms[] = {
    AlgorithmKind::kPartialRedo, AlgorithmKind::kCopyOnUpdatePartialRedo};

/// A gtest-safe instance name: the algorithm's short name, '-' -> '_'.
std::string AlgorithmParamName(AlgorithmKind algorithm) {
  std::string name = GetTraits(algorithm).short_name;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class FleetPitOrganizationTest
    : public FleetPitTest,
      public ::testing::WithParamInterface<AlgorithmKind> {};

TEST_P(FleetPitOrganizationTest, EveryTickInTheWindowRestoresExactly) {
  const auto config = Config(3, GetParam());
  // How many checkpoints a fixed tick count completes depends on writer
  // timing, so the fleet ticks until compaction has dropped every shard's
  // birth generation (consistent tick 0), bounded far above what an
  // unslowed run needs.
  constexpr uint64_t kMaxTicks = 400;
  const auto birth_generations_dropped = [&] {
    for (uint32_t i = 0; i < 3; ++i) {
      auto index_or = ShardHistory::ReadIndex(paths::ShardDir(dir_, i));
      if (!index_or.ok() || index_or->generations.empty() ||
          index_or->generations.front().consistent_tick == 0) {
        return false;
      }
    }
    return true;
  };
  uint64_t ticks = 0;
  std::vector<StateTable> reference;
  std::vector<std::vector<StateTable>> per_tick;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    while (!birth_generations_dropped()) {
      ASSERT_LT(ticks, kMaxTicks) << "compaction never dropped a generation";
      RunTicks(&fleet_or.value()->engine(), 1, 0, &reference, &per_tick);
      ++ticks;
    }
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  ExpectOnlyReferencedFiles(3);

  auto window_or = Fleet::RestorableWindow(dir_);
  ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
  ASSERT_TRUE(window_or->any);
  EXPECT_EQ(window_or->high_tick, ticks - 1);
  // Compaction dropped the oldest generations: the window genuinely
  // starts after tick zero, so the sweep exercises both boundaries
  // non-trivially.
  EXPECT_GT(window_or->low_tick, 0u);

  for (uint64_t tick = window_or->low_tick; tick <= window_or->high_tick;
       ++tick) {
    ExpectRestoreMatches(tick, per_tick);
  }

  // Beyond the newest tick no source can reach the target: the fleet
  // degrades to latest recovery, never half-applies.
  {
    auto fallback_or = Fleet::RecoverToTick(dir_, window_or->high_tick + 10);
    ASSERT_TRUE(fallback_or.ok()) << fallback_or.status().ToString();
    EXPECT_FALSE(fallback_or->at_requested_tick());
    for (uint32_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(fallback_or->tables()[i].ContentEquals(reference[i]))
          << "shard " << i << " (fallback must equal latest recovery)";
    }
  }
  // Below the window the guarantee lapses but the outcome must still be
  // sound: either an exact landing (the live stores happened to retain
  // enough -- the window is a floor, not a ceiling) or a clean fleet-wide
  // fallback to latest.
  {
    const uint64_t below = window_or->low_tick - 1;
    auto below_or = Fleet::RecoverToTick(dir_, below);
    ASSERT_TRUE(below_or.ok()) << below_or.status().ToString();
    for (uint32_t i = 0; i < 3; ++i) {
      const StateTable& expected = below_or->at_requested_tick()
                                       ? per_tick[below][i]
                                       : reference[i];
      EXPECT_TRUE(below_or->tables()[i].ContentEquals(expected))
          << "shard " << i;
    }
  }
}

TEST_F(FleetPitTest, WindowHoldsAtEveryCrashTick) {
  // Crash-at-every-phase sweep: whatever tick the fleet dies at -- before
  // the first periodic checkpoint, right after one, mid-period, after
  // compaction kicked in -- every tick the window advertises restores
  // exactly.
  for (const uint64_t crash_ticks : {2u, 6u, 11u, 17u}) {
    SCOPED_TRACE("crash after " + std::to_string(crash_ticks) + " ticks");
    std::filesystem::remove_all(dir_);
    const auto config = Config(2);
    std::vector<StateTable> reference;
    std::vector<std::vector<StateTable>> per_tick;
    {
      auto fleet_or = Fleet::Create(dir_, config);
      ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
      RunTicks(&fleet_or.value()->engine(), crash_ticks, 0, &reference,
               &per_tick);
      ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
    }
    auto window_or = Fleet::RestorableWindow(dir_);
    ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
    ASSERT_TRUE(window_or->any);
    EXPECT_EQ(window_or->high_tick, crash_ticks - 1);
    for (uint64_t tick = window_or->low_tick; tick <= window_or->high_tick;
         ++tick) {
      ExpectRestoreMatches(tick, per_tick);
    }
  }
}

TEST_P(FleetPitOrganizationTest, ResumeStartsANewEpochAndRetiresTheOldFuture) {
  const auto config = Config(2, GetParam());
  constexpr uint64_t kFirstRun = 18;
  constexpr uint64_t kSecondRun = 8;
  std::vector<StateTable> reference;
  std::vector<std::vector<StateTable>> original_timeline;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    RunTicks(&fleet_or.value()->engine(), kFirstRun, 0, &reference,
             &original_timeline);
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  auto window_or = Fleet::RestorableWindow(dir_);
  ASSERT_TRUE(window_or.ok());
  ASSERT_TRUE(window_or->any);
  const uint64_t resume_at = (window_or->low_tick + window_or->high_tick) / 2;
  ASSERT_LT(resume_at, kFirstRun - 1);

  // Land on the past, resume as a new epoch, and run a SALTED workload so
  // the new timeline observably diverges from the old one's future.
  std::vector<std::vector<StateTable>> new_timeline;
  uint64_t old_epoch = 0, new_epoch = 0;
  {
    auto restored_or = Fleet::RecoverToTick(dir_, resume_at);
    ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
    ASSERT_TRUE(restored_or->at_requested_tick());
    old_epoch = restored_or->manifest().epoch;
    std::vector<StateTable> resumed_reference =
        SnapshotTables(restored_or->tables());
    auto fleet_or = restored_or->Resume();
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    new_epoch = fleet_or.value()->epoch();
    EXPECT_EQ(fleet_or.value()->engine().current_tick(), resume_at + 1);
    new_timeline.resize(resume_at + 1);
    RunTicks(&fleet_or.value()->engine(), kSecondRun, /*salt=*/1000,
             &resumed_reference, &new_timeline);
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  EXPECT_EQ(new_epoch, old_epoch + 1)
      << "a point-in-time resume must commit a new fleet epoch";
  ExpectOnlyReferencedFiles(2);

  // Extend the original (unsalted) timeline deterministically past its
  // crash point: what the retired future WOULD have produced at the ticks
  // the new timeline re-ran.
  while (original_timeline.size() <= resume_at + kSecondRun) {
    const uint64_t tick = original_timeline.size();
    std::vector<StateTable> next = SnapshotTables(original_timeline.back());
    MirrorWorkloadTick(tick, kUpdatesPerTick, &next);
    original_timeline.push_back(std::move(next));
  }

  // Restores after the resume point land on the NEW timeline...
  auto after_or = Fleet::RecoverToTick(dir_, resume_at + kSecondRun);
  ASSERT_TRUE(after_or.ok()) << after_or.status().ToString();
  ASSERT_TRUE(after_or->at_requested_tick());
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(after_or->tables()[i].ContentEquals(
        new_timeline[resume_at + kSecondRun][i]))
        << "shard " << i;
    // ...and the retired original future can never shadow it: the old
    // timeline ran these same ticks with different (unsalted) values.
    EXPECT_FALSE(after_or->tables()[i].ContentEquals(
        original_timeline[resume_at + kSecondRun][i]))
        << "shard " << i << " restored the retired timeline";
  }

  // Restores BEFORE the resume point still work across the epoch bump
  // (the shared past is one history), and the whole window stays honest.
  auto resumed_window_or = Fleet::RestorableWindow(dir_);
  ASSERT_TRUE(resumed_window_or.ok());
  ASSERT_TRUE(resumed_window_or->any);
  EXPECT_EQ(resumed_window_or->high_tick, resume_at + kSecondRun);
  if (resumed_window_or->low_tick < resume_at) {
    auto before_or =
        Fleet::RecoverToTick(dir_, resumed_window_or->low_tick);
    ASSERT_TRUE(before_or.ok()) << before_or.status().ToString();
    ASSERT_TRUE(before_or->at_requested_tick());
    for (uint32_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(before_or->tables()[i].ContentEquals(
          original_timeline[resumed_window_or->low_tick][i]))
          << "shard " << i;
    }
  }
}

TEST_P(FleetPitOrganizationTest, TornHistoryIndexFallsBackToLatestRecovery) {
  // A resume in the middle truncates the live logs and retires the stale
  // live log generations into history/, so ticks BEFORE the resume point
  // are reachable only through the history subsystem -- exactly the
  // regime where a torn index must degrade cleanly.
  const auto config = Config(2, GetParam());
  constexpr uint64_t kFirstRun = 14;
  std::vector<StateTable> reference;
  std::vector<std::vector<StateTable>> per_tick;
  {
    auto fleet_or = Fleet::Create(dir_, config);
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    RunTicks(&fleet_or.value()->engine(), kFirstRun, 0, &reference, &per_tick);
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  {
    auto recovered_or = Fleet::Recover(dir_);
    ASSERT_TRUE(recovered_or.ok()) << recovered_or.status().ToString();
    auto fleet_or = recovered_or->Resume();
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    RunTicks(&fleet_or.value()->engine(), 4, 0, &reference, &per_tick);
    ASSERT_TRUE(fleet_or.value()->SimulateCrash().ok());
  }
  auto window_or = Fleet::RestorableWindow(dir_);
  ASSERT_TRUE(window_or.ok());
  ASSERT_TRUE(window_or->any);
  ASSERT_LT(window_or->low_tick, kFirstRun - 1);
  const uint64_t target = (window_or->low_tick + (kFirstRun - 1)) / 2;

  // Sanity: with an intact index this pre-resume tick restores exactly
  // (through a history generation + archived segments, not the live log).
  ExpectRestoreMatches(target, per_tick);

  // Tear shard 0's index: a CRC failure there means real corruption, and
  // the whole-fleet restore must degrade to consistent latest recovery
  // rather than half-apply one shard's history.
  const std::string index_path =
      paths::HistoryIndexPath(paths::ShardDir(dir_, 0));
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(index_path, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(index_path, bytes).ok());

  EXPECT_FALSE(Fleet::RestorableWindow(dir_).value().any);
  auto fallback_or = Fleet::RecoverToTick(dir_, target);
  ASSERT_TRUE(fallback_or.ok()) << fallback_or.status().ToString();
  EXPECT_FALSE(fallback_or->at_requested_tick());
  EXPECT_EQ(fallback_or->result().target.tick, target);
  for (uint32_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(fallback_or->tables()[i].ContentEquals(reference[i]))
        << "shard " << i;
  }
}

TEST_P(FleetPitOrganizationTest, DiskStaysBoundedAcrossCompactionCycles) {
  // The bounded-compaction acceptance: cycle run -> clean shutdown ->
  // reopen (each reopen archives the live log into a history segment, so
  // segments accumulate too) and assert at every quiesced boundary that
  // the index-referenced history bytes stay under a budget INDEPENDENT of
  // how long the fleet has run. Scaled up by TP_HISTORY_SOAK_TICKS for
  // the nightly soak.
  uint64_t total_ticks = 60;
  if (const char* soak = std::getenv("TP_HISTORY_SOAK_TICKS")) {
    total_ticks = std::max<uint64_t>(std::strtoull(soak, nullptr, 10), 20);
  }
  const auto config = Config(2, GetParam());
  const StateLayout layout = ShardLayout();
  // Per retained base, its LogStore generation file, counted once however
  // many records share it -- one full flush plus at most
  // full_flush_period - 1 increments, none larger than the full flush
  // (segment header and CRC fit in 64 bytes). Plus the archived-log slack
  // the retained tick window can reference (a constant: compaction
  // truncates segments below the window base).
  const uint64_t file_bytes =
      config.shard.full_flush_period *
      (64 + layout.num_objects() * (sizeof(uint64_t) + layout.object_size));
  const uint64_t budget =
      config.shard.retention.max_generations * file_bytes + 16 * 1024;

  std::vector<StateTable> reference;
  uint64_t max_observed_bytes = 0;
  bool first_cycle = true;
  for (uint64_t done = 0; done < total_ticks;
       done += config.checkpoint_period_ticks) {
    StatusOr<std::unique_ptr<Fleet>> fleet_or =
        first_cycle ? Fleet::Create(dir_, config) : Fleet::Open(dir_);
    first_cycle = false;
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    RunTicks(&fleet_or.value()->engine(), config.checkpoint_period_ticks, 0,
             &reference, nullptr);
    ASSERT_TRUE(fleet_or.value()->Shutdown().ok());
    for (uint32_t i = 0; i < 2; ++i) {
      auto index_or = ShardHistory::ReadIndex(paths::ShardDir(dir_, i));
      ASSERT_TRUE(index_or.ok()) << index_or.status().ToString();
      const uint64_t bytes = index_or->TotalBytes();
      max_observed_bytes = std::max(max_observed_bytes, bytes);
      EXPECT_LE(bytes, budget)
          << "shard " << i << " after "
          << done + config.checkpoint_period_ticks
          << " ticks: history grew past the retention budget";
      EXPECT_LE(index_or->Bases(), config.shard.retention.max_generations);
    }
    ExpectOnlyReferencedFiles(2);
  }
  for (uint32_t i = 0; i < 2; ++i) {
    auto index_or = ShardHistory::ReadIndex(paths::ShardDir(dir_, i));
    ASSERT_TRUE(index_or.ok());
    EXPECT_GE(index_or->compactions_run, 3u)
        << "shard " << i << ": the soak must cover >= 3 compaction cycles";
  }
  EXPECT_GT(max_observed_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(LogAlgorithms, FleetPitOrganizationTest,
                         ::testing::ValuesIn(kLogAlgorithms),
                         [](const auto& info) {
                           return AlgorithmParamName(info.param);
                         });

TEST_F(FleetPitTest, RestoredBattleDigestsEqualTheGoldenReplay) {
  // The game-layer oracle: RecoverToTick(T) must digest-equal a golden
  // (never-crashed) replay stopped at T, for every engine tick in the
  // window. End of engine tick T = T + 1 engine ticks executed =
  // golden[T] (engine tick 0 is the bulk load).
  game::GameShardAdapterConfig config;
  config.zone_world.num_units = 64;
  config.zone_world.map_size = 256;
  config.zone_world.bucket_shift = 5;
  config.zone_world.spawn_radius = 100;
  config.zone_world.seed = 777;
  config.engine = Config(2);
  constexpr uint64_t kEngineTicks = 12;
  const auto golden = game::GameShardAdapter::GoldenZoneDigests(
      config, kEngineTicks - 1);

  {
    auto adapter_or = game::GameShardAdapter::Open(config);
    ASSERT_TRUE(adapter_or.ok()) << adapter_or.status().ToString();
    ASSERT_TRUE(adapter_or.value()->RunTicks(kEngineTicks).ok());
    ASSERT_TRUE(adapter_or.value()->fleet()->SimulateCrash().ok());
  }

  auto window_or = Fleet::RestorableWindow(dir_);
  ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
  ASSERT_TRUE(window_or->any);
  EXPECT_EQ(window_or->high_tick, kEngineTicks - 1);
  for (uint64_t tick = window_or->low_tick; tick <= window_or->high_tick;
       ++tick) {
    SCOPED_TRACE("engine tick " + std::to_string(tick));
    auto restored_or = Fleet::RecoverToTick(dir_, tick);
    ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
    ASSERT_TRUE(restored_or->at_requested_tick());
    for (uint32_t z = 0; z < 2; ++z) {
      EXPECT_EQ(game::TableStateDigest(restored_or->tables()[z],
                                       config.zone_world.num_units),
                golden[tick][z])
          << "zone " << z << " diverged from the golden replay";
    }
  }
}

// ---- 5. Retention refuses the double-backup organization ----

/// Every regular file under `dir`, by path relative to it, with its bytes.
std::map<std::string, std::string> FilesUnder(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::string bytes;
    EXPECT_TRUE(ReadFileToString(entry.path().string(), &bytes).ok());
    files[std::filesystem::relative(entry.path(), dir).string()] = bytes;
  }
  return files;
}

/// The double-backup algorithms: their images are overwritten in place, so
/// history has nothing to reference and retention is InvalidArgument.
/// (Dribble-and-Copy-on-Update writes the log, like Partial-Redo.)
const AlgorithmKind kDoubleBackupAlgorithms[] = {
    AlgorithmKind::kNaiveSnapshot, AlgorithmKind::kAtomicCopyDirty,
    AlgorithmKind::kCopyOnUpdate};

class RetentionRefusalTest : public ::testing::TestWithParam<AlgorithmKind> {
 protected:
  void SetUp() override {
    std::string name(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_refuse_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ShardedEngineConfig FleetConfig(bool retention) const {
    ShardedEngineConfig config;
    config.shard.layout = ShardLayout();
    config.shard.algorithm = GetParam();
    config.shard.fsync = false;
    config.shard.retention.enabled = retention;
    config.num_shards = 2;
    config.checkpoint_period_ticks = 4;
    return config;
  }

  EngineConfig ShardConfig(bool retention) const {
    EngineConfig config;
    config.layout = ShardLayout();
    config.algorithm = GetParam();
    config.dir = dir_;
    config.fsync = false;
    config.retention.enabled = retention;
    return config;
  }

  std::string dir_;
};

TEST_P(RetentionRefusalTest, FleetCreateRefusesBeforeTouchingTheRoot) {
  auto fleet_or = Fleet::Create(dir_, FleetConfig(/*retention=*/true));
  EXPECT_EQ(fleet_or.status().code(), StatusCode::kInvalidArgument)
      << fleet_or.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(dir_));
}

TEST_P(RetentionRefusalTest, ExistingFleetRootKeepsItsManifests) {
  // A fleet without retention, with a committed cut, shut down cleanly.
  {
    auto fleet_or = Fleet::Create(dir_, FleetConfig(/*retention=*/false));
    ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
    Fleet& fleet = *fleet_or.value();
    auto cut_or = fleet.RequestConsistentCut();
    ASSERT_TRUE(cut_or.ok()) << cut_or.status().ToString();
    const uint64_t num_cells = ShardLayout().num_cells();
    while (fleet.engine().current_tick() <= cut_or.value()) {
      const uint64_t tick = fleet.engine().current_tick();
      fleet.BeginTick();
      for (uint32_t p = 0; p < fleet.num_partitions(); ++p) {
        for (uint64_t i = 0; i < kUpdatesPerTick; ++i) {
          const uint32_t cell = WorkloadCell(p, tick, i, num_cells);
          fleet.ApplyUpdate(p, cell, WorkloadValue(tick, cell, i));
        }
      }
      ASSERT_TRUE(fleet.EndTick().ok());
    }
    ASSERT_TRUE(fleet.CommitConsistentCut().ok());
    ASSERT_TRUE(fleet.Shutdown().ok());
  }
  ASSERT_TRUE(FileExists(paths::FleetManifestPath(dir_, 0)));
  ASSERT_TRUE(FileExists(paths::CutManifestPath(dir_)));
  const auto before = FilesUnder(dir_);

  // Create never clobbers an existing root.
  EXPECT_FALSE(Fleet::Create(dir_, FleetConfig(/*retention=*/true)).ok());
  EXPECT_EQ(FilesUnder(dir_), before);

  // A manifest that records retention on this algorithm (as a writer that
  // still kept image generations left it) recovers, but the open that
  // would resume it is refused before any shard or manifest changes.
  auto manifest_or = ReadNewestFleetManifest(dir_);
  ASSERT_TRUE(manifest_or.ok()) << manifest_or.status().ToString();
  FleetManifest manifest = std::move(manifest_or).value();
  manifest.config.shard.retention.enabled = true;
  ASSERT_TRUE(WriteFleetManifest(dir_, manifest, /*fsync=*/false).ok());
  const auto with_retention = FilesUnder(dir_);
  ASSERT_TRUE(Fleet::Recover(dir_).ok());
  EXPECT_EQ(Fleet::Open(dir_).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FilesUnder(dir_), with_retention);
}

TEST_P(RetentionRefusalTest, EngineOpenLeavesAPopulatedDirectoryInPlace) {
  {
    auto engine_or = Engine::Open(ShardConfig(/*retention=*/false));
    ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    Engine& engine = *engine_or.value();
    for (uint64_t tick = 0; tick < 6; ++tick) {
      engine.BeginTick();
      for (uint64_t i = 0; i < kUpdatesPerTick; ++i) {
        const uint32_t cell =
            WorkloadCell(0, tick, i, ShardLayout().num_cells());
        engine.ApplyUpdate(cell, WorkloadValue(tick, cell, i));
      }
      ASSERT_TRUE(engine.EndTick().ok());
    }
    ASSERT_TRUE(engine.Shutdown().ok());
  }
  const auto before = FilesUnder(dir_);
  ASSERT_FALSE(before.empty());

  const EngineConfig config = ShardConfig(/*retention=*/true);
  EXPECT_EQ(Engine::Open(config).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FilesUnder(dir_), before);
  const StateTable initial(ShardLayout());
  EXPECT_EQ(Engine::OpenResumed(config, initial, 6).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FilesUnder(dir_), before);
}

INSTANTIATE_TEST_SUITE_P(DoubleBackup, RetentionRefusalTest,
                         ::testing::ValuesIn(kDoubleBackupAlgorithms),
                         [](const auto& info) {
                           return AlgorithmParamName(info.param);
                         });

}  // namespace
}  // namespace tickpoint
