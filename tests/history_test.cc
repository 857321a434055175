// Point-in-time recovery (ROADMAP item 4): checkpoint generations,
// logical-log history retention, and bounded compaction. Four layers under
// test:
//
//   1. PlanCompaction -- the pure retention policy over a HistoryIndex;
//   2. the ShardHistory crash-atomic protocol -- archival, compaction, and
//      truncation swept with a one-shot injected crash after every durable
//      step, each followed by a writable reopen (orphan sweep) and a retry
//      that must converge on the no-crash outcome;
//   3. the v4 fleet manifest retention extension (round-trip, v3 compat,
//      forged-invalid rejection);
//   4. Fleet::RecoverToTick / RestorableWindow end to end -- every tick in
//      the advertised window restores to a state byte-equal to the
//      deterministic reference (and digest-equal to the golden battle for
//      the game workload), under both IO backends, across resume epochs,
//      and degrading to latest recovery when a shard's index is torn.
#include "engine/history.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

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

HistoryIndex::Generation Gen(uint64_t seq, uint64_t tick, uint64_t bytes) {
  return {seq, tick, bytes};
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
    for (const auto& entry :
         std::filesystem::directory_iterator(history_dir)) {
      const std::string name = entry.path().filename().string();
      if (name == "index.bin") continue;
      uint64_t id = 0;
      bool referenced = false;
      if (paths::ParseHistoryGenerationFileName(name, &id)) {
        for (const auto& gen : index.generations) {
          referenced |= gen.seq == id;
        }
      } else if (paths::ParseHistorySegmentFileName(name, &id)) {
        for (const auto& seg : index.segments) {
          referenced |= seg.id == id;
        }
      }
      EXPECT_TRUE(referenced) << "unreferenced file survived the sweep: "
                              << name;
    }
  }

  std::string dir_;
};

TEST_F(HistoryProtocolTest, GenerationsRoundTripThroughTheIndex) {
  const std::string shard = FreshShardDir(0);
  auto history_or = OpenHistory(shard, 4);
  ASSERT_TRUE(history_or.ok()) << history_or.status().ToString();
  ShardHistory& history = *history_or.value();
  const StateTable a = MakeState(1), b = MakeState(2);
  ASSERT_TRUE(history.RecordGeneration(a, 5).ok());
  ASSERT_TRUE(history.RecordGeneration(b, 10).ok());
  // Re-recording an already-archived consistent tick is an idempotent
  // no-op (the crash-retry path depends on it).
  ASSERT_TRUE(history.RecordGeneration(b, 10).ok());
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
  const HistoryCrashPoint points[] = {HistoryCrashPoint::kAfterGenerationFile,
                                      HistoryCrashPoint::kAfterIndexTmp,
                                      HistoryCrashPoint::kAfterIndexRename};
  int i = 0;
  for (const HistoryCrashPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    const std::string shard = FreshShardDir(i++);
    const StateTable a = MakeState(1), b = MakeState(2);
    {
      auto history_or = OpenHistory(shard, 4);
      ASSERT_TRUE(history_or.ok());
      ASSERT_TRUE(history_or.value()->RecordGeneration(a, 5).ok());
      history_or.value()->SetCrashPointForTest(point);
      EXPECT_EQ(history_or.value()->RecordGeneration(b, 10).code(),
                StatusCode::kInternal);
    }
    // The index on disk is intact (old or new); a writable reopen sweeps
    // whatever the interrupted step left and the retry converges.
    auto reopened_or = OpenHistory(shard, 4);
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
    ASSERT_TRUE(reopened_or.value()->RecordGeneration(b, 10).ok());
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
      ASSERT_TRUE(history_or.value()->RecordGeneration(MakeState(1), 5).ok());
      history_or.value()->SetCrashPointForTest(point);
      EXPECT_EQ(history_or.value()->ArchiveLiveLog(live, 9).code(),
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
      ASSERT_TRUE(history.RecordGeneration(MakeState(0), 0).ok());
      ASSERT_TRUE(history.ArchiveLiveLog(live, 4).ok());
      ASSERT_TRUE(history.RecordGeneration(MakeState(1), 5).ok());
      ASSERT_TRUE(history.ArchiveLiveLog(live, 12).ok());
      ASSERT_TRUE(history.RecordGeneration(MakeState(2), 10).ok());
      ASSERT_TRUE(history.RecordGeneration(MakeState(3), 15).ok());
      ASSERT_EQ(history.index().generations.size(), 4u);
      ASSERT_EQ(history.index().segments.size(), 2u);
    }
    // Tighten to two generations: base becomes C=10, segment [0,4] must
    // drop, segment [5,12] must be rewritten to [10,12] under a new id.
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
      ASSERT_TRUE(history.RecordGeneration(MakeState(0), 0).ok());
      ASSERT_TRUE(history.RecordGeneration(MakeState(1), 5).ok());
      ASSERT_TRUE(history.ArchiveLiveLog(live, 9).ok());
      ASSERT_TRUE(history.RecordGeneration(MakeState(2), 10).ok());
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
    ASSERT_TRUE(history_or.value()->RecordGeneration(MakeState(1), 5).ok());
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
  ASSERT_TRUE(reopened_or.value()->RecordGeneration(MakeState(2), 7).ok());
  VerifyIntegrity(shard);
}

// ---- 3. The v4 manifest retention extension ----

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
    manifest.num_partitions = 2;
    manifest.assignment = {0, 1};
    manifest.layout = StateLayout::Small(256, 10);
    manifest.algorithm = AlgorithmKind::kCopyOnUpdate;
    return manifest;
  }

  std::string dir_;
};

TEST_F(HistoryManifestTest, RetentionRoundTripsThroughTheManifest) {
  FleetManifest written = Sample();
  written.retention.enabled = true;
  written.retention.max_generations = 5;
  written.retention.max_retained_ticks = 40;
  ASSERT_TRUE(WriteFleetManifest(dir_, written, /*fsync=*/false).ok());
  auto read_or = ReadFleetManifestFile(paths::FleetManifestPath(dir_, 0));
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  EXPECT_EQ(read_or->retention, written.retention);
}

TEST_F(HistoryManifestTest, ReadsAVersionThreeManifestWithRetentionOff) {
  // Backward compatibility: a v3 superblock (pre-retention era) is a v4
  // one minus the trailing 24-byte extension. Synthesize one by stripping
  // the extension and re-stamping version + CRC: it must read back with
  // retention off and every other field intact.
  const FleetManifest sample = Sample();
  ASSERT_TRUE(WriteFleetManifest(dir_, sample, /*fsync=*/false).ok());
  const std::string path = paths::FleetManifestPath(dir_, 0);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  constexpr size_t kRetentionExtSize = 24;
  ASSERT_GT(bytes.size(), kRetentionExtSize + 4);
  std::string v3 = bytes.substr(0, bytes.size() - kRetentionExtSize - 4);
  const uint32_t version = 3;
  std::memcpy(&v3[8], &version, sizeof(version));
  const uint32_t crc = Crc32(v3.data(), v3.size());
  v3.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  ASSERT_TRUE(WriteStringToFile(path, v3).ok());

  auto read_or = ReadFleetManifestFile(path);
  ASSERT_TRUE(read_or.ok()) << read_or.status().ToString();
  EXPECT_EQ(read_or->retention, RetentionPolicy{});
  EXPECT_FALSE(read_or->retention.enabled);
  EXPECT_EQ(read_or->num_partitions, 2u);
  EXPECT_EQ(read_or->assignment, (std::vector<uint32_t>{0, 1}));
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

  ShardedEngineConfig Config(uint32_t num_shards,
                             IoBackendKind backend = IoBackendKind::kSync) {
    ShardedEngineConfig config;
    config.shard.layout = ShardLayout();
    config.shard.algorithm = AlgorithmKind::kCopyOnUpdate;
    config.shard.dir = dir_;
    config.shard.fsync = false;  // simulated crashes: page cache is durable
    config.shard.full_flush_period = 3;
    config.shard.io_backend = backend;
    config.shard.retention.enabled = true;
    config.shard.retention.max_generations = 3;
    config.num_shards = num_shards;
    config.checkpoint_period_ticks = 5;
    config.threaded = true;
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

  std::string dir_;
};

class FleetPitBackendTest
    : public FleetPitTest,
      public ::testing::WithParamInterface<IoBackendKind> {};

TEST_P(FleetPitBackendTest, EveryTickInTheWindowRestoresExactly) {
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

INSTANTIATE_TEST_SUITE_P(BothIoBackends, FleetPitBackendTest,
                         ::testing::Values(IoBackendKind::kSync,
                                           IoBackendKind::kAsync),
                         [](const auto& info) {
                           return info.param == IoBackendKind::kSync
                                      ? "sync"
                                      : "async";
                         });

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

TEST_F(FleetPitTest, ResumeStartsANewEpochAndRetiresTheOldFuture) {
  const auto config = Config(2);
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

TEST_F(FleetPitTest, TornHistoryIndexFallsBackToLatestRecovery) {
  // A resume in the middle truncates the live logs and retires the stale
  // live images, so ticks BEFORE the resume point are reachable only
  // through the history subsystem -- exactly the regime where a torn
  // index must degrade cleanly.
  const auto config = Config(2);
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
  // (through a generation image + archived segments, not the live log).
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

TEST_F(FleetPitTest, DiskStaysBoundedAcrossCompactionCycles) {
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
  const auto config = Config(2);
  const uint64_t image_bytes = 48 + StateTable(ShardLayout()).buffer_bytes();
  // Three generation images plus the archived-log slack the retained tick
  // window can reference (a constant: compaction truncates segments below
  // the window base).
  const uint64_t budget =
      config.shard.retention.max_generations * image_bytes + 16 * 1024;

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
      EXPECT_LE(index_or->generations.size(),
                config.shard.retention.max_generations);
    }
  }
  for (uint32_t i = 0; i < 2; ++i) {
    auto index_or = ShardHistory::ReadIndex(paths::ShardDir(dir_, i));
    ASSERT_TRUE(index_or.ok());
    EXPECT_GE(index_or->compactions_run, 3u)
        << "shard " << i << ": the soak must cover >= 3 compaction cycles";
  }
  EXPECT_GT(max_observed_bytes, 0u);
}

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

}  // namespace
}  // namespace tickpoint
