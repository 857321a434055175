// Tests for the on-disk checkpoint organizations and the logical log.
#include "engine/checkpoint_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include "engine/engine.h"
#include "engine/logical_log.h"
#include "engine/mutator.h"
#include "engine/paths.h"
#include "engine/recovery.h"
#include "trace/zipf_source.h"

namespace tickpoint {
namespace {

/// The crash boundaries of the direct double-backup protocol.
constexpr BackupStore::StageCrashPoint kCrashPoints[] = {
    BackupStore::StageCrashPoint::kAfterBegin,
    BackupStore::StageCrashPoint::kAfterFirstRun,
    BackupStore::StageCrashPoint::kAfterDataSync,
};

/// Offset of object 0 in a backup image (one sector-aligned header block).
constexpr uint64_t kBackupDataOffset = 512;

/// Log segment framing: a 40-byte header, the records, a 4-byte CRC.
constexpr uint64_t kSegmentHeaderBytes = 40;
constexpr uint64_t kSegmentCrcBytes = 4;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tp_store_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    layout_ = StateLayout::Small(256, 10);  // 20 objects
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Fills a table with a recognizable pattern keyed by `salt`.
  StateTable MakeState(int32_t salt) {
    StateTable table(layout_);
    for (CellId c = 0; c < layout_.num_cells(); ++c) {
      table.WriteCell(c, static_cast<int32_t>(c) * 31 + salt);
    }
    return table;
  }

  // Writes `state` as a full valid checkpoint of image `index` in one run.
  void WriteFullImage(BackupStore& store, int index, StateTable& state,
                      uint64_t seq, uint64_t tick) {
    ASSERT_TRUE(store.BeginCheckpoint(index).ok());
    ASSERT_TRUE(
        store.WriteRange(index, 0, state.data(), layout_.num_objects()).ok());
    ASSERT_TRUE(store.FinishCheckpoint(index, seq, tick, 0).ok());
  }

  // One checkpoint of `state` into image `index`, split into two runs the
  // way the engine submits group buffers; stops at the first error.
  Status WriteTwoRunCheckpoint(BackupStore& store, int index,
                               const StateTable& state, uint64_t seq,
                               uint64_t tick) {
    const uint64_t n = layout_.num_objects();
    const uint64_t half = n / 2;
    TP_RETURN_NOT_OK(store.BeginCheckpoint(index));
    TP_RETURN_NOT_OK(store.WriteRange(index, 0, state.data(), half).status());
    TP_RETURN_NOT_OK(
        store.WriteRange(index, half, state.ObjectData(half), n - half)
            .status());
    return store.FinishCheckpoint(index, seq, tick, 0);
  }

  EngineConfig EngineTestConfig() const {
    EngineConfig config;
    config.layout = layout_;
    config.algorithm = AlgorithmKind::kCopyOnUpdate;
    config.dir = dir_;
    config.fsync = false;  // simulated crashes: page cache is "durable"
    config.checkpoint_interval_ticks = 8;
    return config;
  }

  // Runs at least `min_ticks` ticks of a Zipf workload, and on until the
  // engine has completed two checkpoints -- one in each backup image --
  // then shuts it down. How many checkpoints a fixed tick count completes
  // depends on writer timing; the run is bounded far above what an
  // unslowed writer needs. current_tick() reports the ticks run.
  std::unique_ptr<Engine> RunEngine(const EngineConfig& config,
                                    uint64_t min_ticks) {
    constexpr uint64_t kMaxTicks = 400;
    auto engine_or = Engine::Open(config);
    if (!engine_or.ok()) return nullptr;
    Engine& engine = *engine_or.value();
    ZipfTraceConfig trace;
    trace.layout = layout_;
    trace.num_ticks = kMaxTicks;
    trace.updates_per_tick = 40;
    trace.seed = 77;
    ZipfUpdateSource source(trace);
    MutatorOptions options;
    options.max_ticks = min_ticks;
    for (;;) {
      if (!RunWorkload(&engine, &source, options).ok()) return nullptr;
      if (engine.metrics().checkpoints.size() >= 2 ||
          options.max_ticks >= kMaxTicks) {
        break;
      }
      options.skip_ticks = options.max_ticks;
      options.max_ticks += 1;
    }
    if (!engine.Shutdown().ok()) return nullptr;
    return std::move(engine_or).value();
  }

  // Crashes the checkpoint the engine would have written next (into the
  // image with the lower seq) at `point`; reports the surviving sibling.
  void CrashNextCheckpoint(BackupStore::StageCrashPoint point,
                           ImageInfo* sibling) {
    auto store_or = BackupStore::Open(dir_, layout_, false);
    ASSERT_TRUE(store_or.ok());
    auto& store = *store_or.value();
    auto info0 = store.Inspect(0);
    auto info1 = store.Inspect(1);
    ASSERT_TRUE(info0.ok() && info1.ok());
    ASSERT_TRUE(info0->valid && info1->valid);
    const int target = info0->seq < info1->seq ? 0 : 1;
    *sibling = target == 0 ? *info1 : *info0;
    store.SetStageCrashPointForTest(point);
    StateTable junk = MakeState(99);
    ASSERT_FALSE(WriteTwoRunCheckpoint(store, target, junk, sibling->seq + 1,
                                       sibling->consistent_tick + 1)
                     .ok());
  }

  // Raw bytes of backup image `index`'s data region (past the header).
  std::string ImageDataBytes(int index) {
    std::string bytes;
    EXPECT_TRUE(
        ReadFileToString(dir_ + "/" + BackupStore::ImageFileName(index),
                         &bytes)
            .ok());
    EXPECT_GE(bytes.size(), kBackupDataOffset);
    return bytes.substr(kBackupDataOffset);
  }

  std::string dir_;
  StateLayout layout_;
};

TEST_F(StoreTest, BackupFullImageRoundTrip) {
  auto store_or = BackupStore::Open(dir_, layout_, /*fsync=*/false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(1);

  ASSERT_TRUE(store.BeginCheckpoint(0).ok());
  ASSERT_TRUE(store.WriteRange(0, 0, state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.FinishCheckpoint(0, 7, 42, state.Digest()).ok());

  auto info = store.Inspect(0);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->valid);
  EXPECT_EQ(info->seq, 7u);
  EXPECT_EQ(info->consistent_tick, 42u);

  StateTable restored(layout_);
  ASSERT_TRUE(store.ReadAll(0, &restored).ok());
  EXPECT_TRUE(restored.ContentEquals(state));
}

TEST_F(StoreTest, BackupBeginWithoutFinishIsInvalid) {
  auto store_or = BackupStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(2);
  ASSERT_TRUE(store.BeginCheckpoint(1).ok());
  ASSERT_TRUE(store.WriteRange(1, 0, state.data(), 5).ok());
  // No FinishCheckpoint: a crash here must leave the image unusable.
  auto info = store.Inspect(1);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->valid);
  StateTable restored(layout_);
  EXPECT_FALSE(store.ReadAll(1, &restored).ok());
}

TEST_F(StoreTest, BackupSiblingSurvivesRewrite) {
  auto store_or = BackupStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable old_state = MakeState(3);
  ASSERT_TRUE(store.BeginCheckpoint(0).ok());
  ASSERT_TRUE(
      store.WriteRange(0, 0, old_state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.FinishCheckpoint(0, 1, 10, 0).ok());

  // Start (and tear) a write to backup 1: backup 0 stays recoverable.
  ASSERT_TRUE(store.BeginCheckpoint(1).ok());
  ASSERT_TRUE(store.WriteRange(1, 0, old_state.data(), 3).ok());
  StateTable restored(layout_);
  ASSERT_TRUE(store.ReadAll(0, &restored).ok());
  EXPECT_TRUE(restored.ContentEquals(old_state));
}

TEST_F(StoreTest, BackupIncrementalUpdateInPlace) {
  auto store_or = BackupStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(4);
  ASSERT_TRUE(store.BeginCheckpoint(0).ok());
  ASSERT_TRUE(store.WriteRange(0, 0, state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.FinishCheckpoint(0, 1, 5, 0).ok());

  // Change two objects and write only those at their offsets.
  for (CellId c = 128; c < 256; ++c) state.WriteCell(c, -1);
  for (CellId c = 640; c < 768; ++c) state.WriteCell(c, -2);
  ASSERT_TRUE(store.BeginCheckpoint(0).ok());
  ASSERT_TRUE(store.WriteRange(0, 1, state.ObjectData(1), 1).ok());
  ASSERT_TRUE(store.WriteRange(0, 5, state.ObjectData(5), 1).ok());
  ASSERT_TRUE(store.FinishCheckpoint(0, 2, 9, state.Digest()).ok());

  StateTable restored(layout_);
  ASSERT_TRUE(store.ReadAll(0, &restored).ok());
  EXPECT_TRUE(restored.ContentEquals(state));
}

TEST_F(StoreTest, BackupStateCrcDetectsBitRot) {
  auto store_or = BackupStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(5);
  ASSERT_TRUE(store.BeginCheckpoint(0).ok());
  ASSERT_TRUE(store.WriteRange(0, 0, state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.FinishCheckpoint(0, 1, 1, state.Digest()).ok());

  // Flip one data byte on disk behind the store's back.
  {
    FileWriter vandal;
    ASSERT_TRUE(vandal.OpenForUpdate(store.path(0)).ok());
    const char evil = 0x66;
    ASSERT_TRUE(vandal.WriteAt(512 + 1000, &evil, 1).ok());
    ASSERT_TRUE(vandal.Close().ok());
  }
  StateTable restored(layout_);
  const Status status = store.ReadAll(0, &restored);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST_F(StoreTest, BackupRunsThroughASuppliedBackendRoundTrip) {
  auto backend = IoBackend::Create();
  auto store_or = BackupStore::Open(dir_, layout_, false, backend.get());
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(11);
  ASSERT_TRUE(WriteTwoRunCheckpoint(store, 0, state, 5, 50).ok());

  auto info = store.Inspect(0);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->valid);
  EXPECT_EQ(info->seq, 5u);
  StateTable restored(layout_);
  ASSERT_TRUE(store.ReadAll(0, &restored).ok());
  EXPECT_TRUE(restored.ContentEquals(state));
}

/// Every crash boundary of the direct protocol: the target image is
/// invalid afterwards and the sibling byte-identical.
TEST_F(StoreTest, BackupCrashSweepLeavesTargetInvalidAndSiblingIntact) {
  const uint64_t data_size = layout_.num_objects() * layout_.object_size;
  const uint64_t half_bytes = layout_.num_objects() / 2 * layout_.object_size;
  for (const BackupStore::StageCrashPoint point : kCrashPoints) {
    SCOPED_TRACE("crash point " + std::to_string(static_cast<int>(point)));
    std::filesystem::remove_all(dir_);
    StateTable old0 = MakeState(12);
    StateTable old1 = MakeState(13);
    StateTable next = MakeState(14);
    {
      auto backend = IoBackend::Create();
      auto store_or = BackupStore::Open(dir_, layout_, false, backend.get());
      ASSERT_TRUE(store_or.ok());
      auto& store = *store_or.value();
      WriteFullImage(store, 0, old0, 1, 10);
      WriteFullImage(store, 1, old1, 2, 20);
      store.SetStageCrashPointForTest(point);
      EXPECT_FALSE(WriteTwoRunCheckpoint(store, 0, next, 3, 30).ok());
    }
    // What reached the target before the crash: none of the new runs,
    // the first only, or both.
    const uint64_t landed =
        point == BackupStore::StageCrashPoint::kAfterBegin      ? 0
        : point == BackupStore::StageCrashPoint::kAfterFirstRun ? half_bytes
                                                                : data_size;
    const std::string target = ImageDataBytes(0);
    EXPECT_EQ(std::memcmp(target.data(), next.data(), landed), 0);
    EXPECT_EQ(std::memcmp(target.data() + landed, old0.data() + landed,
                          data_size - landed),
              0);
    auto reopened_or = BackupStore::Open(dir_, layout_, false, nullptr,
                                         /*writable=*/false);
    ASSERT_TRUE(reopened_or.ok());
    auto& reopened = *reopened_or.value();
    auto info0 = reopened.Inspect(0);
    ASSERT_TRUE(info0.ok());
    EXPECT_FALSE(info0->valid);
    EXPECT_EQ(std::memcmp(ImageDataBytes(1).data(), old1.data(), data_size),
              0);
    StateTable restored(layout_);
    ASSERT_TRUE(reopened.ReadAll(1, &restored).ok());
    EXPECT_TRUE(restored.ContentEquals(old1));
  }
}

/// The same sweep one level up: a finished engine run, then a next
/// checkpoint that crashes into the older image. Recovery restores the
/// sibling and replays the logical log from its consistent tick to
/// exactly the crash tick.
TEST_F(StoreTest, EngineRecoversTheCrashTickAtEveryCrashPoint) {
  for (const BackupStore::StageCrashPoint point : kCrashPoints) {
    SCOPED_TRACE(static_cast<int>(point));
    std::filesystem::remove_all(dir_);
    const EngineConfig config = EngineTestConfig();
    const std::unique_ptr<Engine> engine = RunEngine(config, 40);
    ASSERT_NE(engine, nullptr);
    ImageInfo sibling;
    ASSERT_NO_FATAL_FAILURE(CrashNextCheckpoint(point, &sibling));

    const uint64_t ticks_run = engine->current_tick();
    StateTable recovered(layout_);
    auto result = Recover(config, &recovered);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(recovered.ContentEquals(engine->state()));
    EXPECT_EQ(result->recovered_ticks, ticks_run);
    EXPECT_EQ(result->image_seq, sibling.seq);
    EXPECT_EQ(result->ticks_replayed, ticks_run - sibling.consistent_tick);
  }
}

/// A doublewrite region an older version left behind is ignored by
/// recovery (which creates and deletes nothing) and removed by the next
/// writable open.
TEST_F(StoreTest, StaleDoublewriteRegionIsIgnoredThenDeletedOnResume) {
  const EngineConfig config = EngineTestConfig();
  const std::unique_ptr<Engine> engine = RunEngine(config, 40);
  ASSERT_NE(engine, nullptr);
  ImageInfo sibling;
  ASSERT_NO_FATAL_FAILURE(CrashNextCheckpoint(
      BackupStore::StageCrashPoint::kAfterFirstRun, &sibling));
  const std::string stale = dir_ + "/" + paths::DoublewriteFileName();
  ASSERT_TRUE(WriteStringToFile(stale, std::string(4096, '\x5a')).ok());

  StateTable recovered(layout_);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(recovered.ContentEquals(engine->state()));
  EXPECT_EQ(result->image_seq, sibling.seq);
  EXPECT_TRUE(FileExists(stale));

  auto resumed_or =
      Engine::OpenResumed(config, recovered, result->recovered_ticks);
  ASSERT_TRUE(resumed_or.ok()) << resumed_or.status().ToString();
  EXPECT_FALSE(FileExists(stale));
  ASSERT_TRUE(resumed_or.value()->Shutdown().ok());
}

TEST_F(StoreTest, RecoveryCreatesNoDirectoryOrImage) {
  for (const AlgorithmKind kind :
       {AlgorithmKind::kCopyOnUpdate,
        AlgorithmKind::kCopyOnUpdatePartialRedo}) {
    EngineConfig config = EngineTestConfig();
    config.algorithm = kind;
    StateTable recovered(layout_);
    EXPECT_FALSE(Recover(config, &recovered).ok());
    EXPECT_FALSE(std::filesystem::exists(dir_));
  }
}

TEST_F(StoreTest, LogFullFlushAndIncrementsRestore) {
  auto store_or = LogStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(6);

  // Generation 0: full flush of the pristine state.
  ASSERT_TRUE(store.BeginGeneration(0).ok());
  ASSERT_TRUE(store.BeginSegment(0, 1, true, layout_.num_objects()).ok());
  for (ObjectId o = 0; o < layout_.num_objects(); ++o) {
    ASSERT_TRUE(store.AppendObject(o, state.ObjectData(o)).ok());
  }
  ASSERT_TRUE(store.CommitSegment().ok());

  // Two incremental segments with object changes.
  for (CellId c = 0; c < 128; ++c) state.WriteCell(c, 111);
  ASSERT_TRUE(store.BeginSegment(1, 2, false, 1).ok());
  ASSERT_TRUE(store.AppendObject(0, state.ObjectData(0)).ok());
  ASSERT_TRUE(store.CommitSegment().ok());

  for (CellId c = 1280; c < 1408; ++c) state.WriteCell(c, 222);
  ASSERT_TRUE(store.BeginSegment(2, 3, false, 1).ok());
  ASSERT_TRUE(store.AppendObject(10, state.ObjectData(10)).ok());
  ASSERT_TRUE(store.CommitSegment().ok());

  StateTable restored(layout_);
  auto image = store.Restore(&restored);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->seq, 2u);
  EXPECT_EQ(image->consistent_tick, 3u);
  EXPECT_TRUE(restored.ContentEquals(state));
}

TEST_F(StoreTest, LogTornTailIgnored) {
  auto store_or = LogStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(7);
  ASSERT_TRUE(store.BeginGeneration(0).ok());
  ASSERT_TRUE(store.BeginSegment(0, 1, true, layout_.num_objects()).ok());
  for (ObjectId o = 0; o < layout_.num_objects(); ++o) {
    ASSERT_TRUE(store.AppendObject(o, state.ObjectData(o)).ok());
  }
  ASSERT_TRUE(store.CommitSegment().ok());
  const StateTable committed = MakeState(7);

  // Torn segment: declared 3 objects, only 1 appended, never committed.
  state.WriteCell(0, -99);
  ASSERT_TRUE(store.BeginSegment(1, 2, false, 3).ok());
  ASSERT_TRUE(store.AppendObject(0, state.ObjectData(0)).ok());
  store.AbortSegment();

  StateTable restored(layout_);
  auto image = store.Restore(&restored);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->seq, 0u);
  EXPECT_TRUE(restored.ContentEquals(committed));
}

TEST_F(StoreTest, LogFallsBackToOlderGeneration) {
  auto store_or = LogStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable gen0_state = MakeState(8);
  ASSERT_TRUE(store.BeginGeneration(0).ok());
  ASSERT_TRUE(store.BeginSegment(0, 1, true, layout_.num_objects()).ok());
  for (ObjectId o = 0; o < layout_.num_objects(); ++o) {
    ASSERT_TRUE(store.AppendObject(o, gen0_state.ObjectData(o)).ok());
  }
  ASSERT_TRUE(store.CommitSegment().ok());

  // Generation 1's full flush tears mid-way (crash before commit).
  ASSERT_TRUE(store.BeginGeneration(1).ok());
  ASSERT_TRUE(store.BeginSegment(1, 9, true, layout_.num_objects()).ok());
  ASSERT_TRUE(store.AppendObject(0, gen0_state.ObjectData(0)).ok());
  store.AbortSegment();

  StateTable restored(layout_);
  auto image = store.Restore(&restored);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->consistent_tick, 1u);
  EXPECT_TRUE(restored.ContentEquals(gen0_state));
}

TEST_F(StoreTest, LogReopenDiscoversGenerations) {
  {
    auto store_or = LogStore::Open(dir_, layout_, false);
    ASSERT_TRUE(store_or.ok());
    auto& store = *store_or.value();
    StateTable state = MakeState(9);
    ASSERT_TRUE(store.BeginGeneration(3).ok());
    ASSERT_TRUE(store.BeginSegment(12, 30, true, layout_.num_objects()).ok());
    for (ObjectId o = 0; o < layout_.num_objects(); ++o) {
      ASSERT_TRUE(store.AppendObject(o, state.ObjectData(o)).ok());
    }
    ASSERT_TRUE(store.CommitSegment().ok());
  }
  // A cold open (as recovery does) must find generation 3.
  auto reopened_or = LogStore::Open(dir_, layout_, false);
  ASSERT_TRUE(reopened_or.ok());
  EXPECT_EQ(reopened_or.value()->current_generation(), 3u);
  StateTable restored(layout_);
  auto image = reopened_or.value()->Restore(&restored);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->seq, 12u);
  EXPECT_TRUE(restored.ContentEquals(MakeState(9)));
}

TEST_F(StoreTest, LogDropGenerations) {
  auto store_or = LogStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(10);
  for (uint64_t gen = 0; gen < 3; ++gen) {
    ASSERT_TRUE(store.BeginGeneration(gen).ok());
    ASSERT_TRUE(
        store.BeginSegment(gen, gen + 1, true, layout_.num_objects()).ok());
    for (ObjectId o = 0; o < layout_.num_objects(); ++o) {
      ASSERT_TRUE(store.AppendObject(o, state.ObjectData(o)).ok());
    }
    ASSERT_TRUE(store.CommitSegment().ok());
  }
  ASSERT_TRUE(store.DropGenerationsBefore(2).ok());
  EXPECT_FALSE(FileExists(dir_ + "/log-0.img"));
  EXPECT_FALSE(FileExists(dir_ + "/log-1.img"));
  EXPECT_TRUE(FileExists(dir_ + "/log-2.img"));
}

TEST_F(StoreTest, LogCorruptTailIdEndsScanAtPreviousSegment) {
  auto store_or = LogStore::Open(dir_, layout_, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  StateTable state = MakeState(11);
  ASSERT_TRUE(store.BeginGeneration(0).ok());
  ASSERT_TRUE(store.BeginSegment(0, 1, true, layout_.num_objects()).ok());
  ASSERT_TRUE(store.AppendRun(0, state.data(), layout_.num_objects()).ok());
  ASSERT_TRUE(store.CommitSegment().ok());
  state.WriteCell(0, 404);
  ASSERT_TRUE(store.BeginSegment(1, 2, false, 1).ok());
  ASSERT_TRUE(store.AppendObject(0, state.ObjectData(0)).ok());
  ASSERT_TRUE(store.CommitSegment().ok());
  StateTable expected(layout_);
  std::memcpy(expected.mutable_data(), state.data(), state.buffer_bytes());
  state.WriteCell(200, 505);
  ASSERT_TRUE(store.BeginSegment(2, 3, false, 2).ok());
  ASSERT_TRUE(store.AppendRun(1, state.ObjectData(1), 2).ok());
  ASSERT_TRUE(store.CommitSegment().ok());

  // Bit rot in the tail segment's first record id: its bytes now decode
  // to an id past the table, and its CRC no longer matches.
  const uint64_t record_bytes = sizeof(uint64_t) + layout_.object_size;
  const uint64_t tail_offset = 2 * (kSegmentHeaderBytes + kSegmentCrcBytes) +
                               (layout_.num_objects() + 1) * record_bytes;
  {
    FileWriter writer;
    ASSERT_TRUE(writer.OpenForUpdate(dir_ + "/log-0.img").ok());
    const uint64_t first_id_offset = tail_offset + kSegmentHeaderBytes;
    const uint64_t bad_id = ~uint64_t{0};
    ASSERT_TRUE(writer.WriteAt(first_id_offset, &bad_id, sizeof(bad_id)).ok());
    ASSERT_TRUE(writer.Close().ok());
  }

  // A torn tail, not a corrupt generation: the full flush and the intact
  // segment still restore.
  StateTable restored(layout_);
  auto image = store.Restore(&restored);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->seq, 1u);
  EXPECT_EQ(image->consistent_tick, 2u);
  EXPECT_TRUE(restored.ContentEquals(expected));
  auto segments = store.ListSegments(0);
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  EXPECT_EQ(segments->size(), 2u);
}

// Truncates one generation at every segment boundary (+-1 byte) and in the
// middle of every segment, and checks Restore, with and without a tick
// bound, against a reference built by applying the intact segments in
// order. The geometry puts the full flush and one incremental segment past
// the restore block size, so both the one-block and the multi-block paths
// run.
TEST_F(StoreTest, LogRestoreTruncationSweep) {
  const StateLayout layout = StateLayout::Small(27000, 10);  // 2110 objects
  const uint64_t n = layout.num_objects();
  const uint64_t record_bytes = sizeof(uint64_t) + layout.object_size;
  ASSERT_GT(n * record_bytes, uint64_t{1} << 20);
  auto store_or = LogStore::Open(dir_, layout, false);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();

  struct Segment {
    uint64_t seq;
    uint64_t tick;
    bool full_flush;
    std::vector<ObjectId> ids;
    uint64_t end = 0;  // file offset one past the segment
  };
  auto fill = [&](StateTable* table, int32_t salt) {
    for (CellId c = 0; c < layout.num_cells(); ++c) {
      table->WriteCell(c, static_cast<int32_t>(c) * 7 + salt);
    }
  };
  auto write_segment = [&](Segment* seg, const StateTable& state,
                           uint64_t* offset) {
    ASSERT_TRUE(store.BeginSegment(seg->seq, seg->tick, seg->full_flush,
                                   seg->ids.size())
                    .ok());
    for (ObjectId id : seg->ids) {
      ASSERT_TRUE(store.AppendObject(id, state.ObjectData(id)).ok());
    }
    ASSERT_TRUE(store.CommitSegment().ok());
    *offset += kSegmentHeaderBytes + seg->ids.size() * record_bytes +
               kSegmentCrcBytes;
    seg->end = *offset;
  };

  // Generation 0: a lone full flush at tick 5 -- the fallback target.
  StateTable gen0(layout);
  fill(&gen0, 1);
  std::vector<ObjectId> all(n);
  for (ObjectId o = 0; o < n; ++o) all[o] = o;
  uint64_t offset = 0;
  ASSERT_TRUE(store.BeginGeneration(0).ok());
  Segment gen0_flush{0, 5, true, all};
  write_segment(&gen0_flush, gen0, &offset);

  // Generation 1: full flush at tick 10, then incrementals of assorted
  // sizes (one larger than a block), each a snapshot of the evolving state.
  std::vector<Segment> segments;
  std::vector<StateTable> snapshots;
  StateTable state(layout);
  fill(&state, 2);
  offset = 0;
  ASSERT_TRUE(store.BeginGeneration(1).ok());
  segments.push_back(Segment{1, 10, true, all});
  const std::vector<ObjectId> big(all.begin() + 30, all.begin() + 2090);
  const std::vector<std::vector<ObjectId>> increments = {
      {3}, {0, 7, 8, 2109}, {}, big, {11, 12}};
  for (size_t k = 0; k < increments.size(); ++k) {
    segments.push_back(Segment{2 + k, 11 + k, false, increments[k]});
  }
  for (size_t k = 0; k < segments.size(); ++k) {
    for (ObjectId id : segments[k].ids) {
      state.WriteCell(id * layout.cells_per_object(),
                      static_cast<int32_t>(1000 + k));
    }
    snapshots.emplace_back(layout);
    std::memcpy(snapshots.back().mutable_data(), state.data(),
                state.buffer_bytes());
    write_segment(&segments[k], state, &offset);
  }
  const std::string gen1_path = dir_ + "/log-1.img";

  // Cut points, largest first so one file can be truncated in place.
  std::vector<uint64_t> cuts = {offset};
  uint64_t begin = 0;
  for (const Segment& seg : segments) {
    for (uint64_t cut : {seg.end - 1, seg.end + 1, (begin + seg.end) / 2}) {
      if (cut < offset) cuts.push_back(cut);
    }
    if (seg.end < offset) cuts.push_back(seg.end);
    cuts.push_back(begin + 1);
    begin = seg.end;
  }
  std::sort(cuts.rbegin(), cuts.rend());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<uint64_t> bounds = {UINT64_MAX, 4};
  for (const Segment& seg : segments) {
    bounds.push_back(seg.tick);
    bounds.push_back(seg.tick - 1);  // strictly between two segments
  }

  for (uint64_t cut : cuts) {
    std::filesystem::resize_file(gen1_path, cut);
    // The segments wholly inside the cut survive.
    size_t intact = 0;
    while (intact < segments.size() && segments[intact].end <= cut) {
      ++intact;
    }
    auto listed = store.ListSegments(1);
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    ASSERT_EQ(listed->size(), intact) << "cut " << cut;
    for (size_t k = 0; k < intact; ++k) {
      EXPECT_EQ((*listed)[k].seq, segments[k].seq);
      EXPECT_EQ((*listed)[k].consistent_tick, segments[k].tick);
      EXPECT_EQ((*listed)[k].object_count, segments[k].ids.size());
      EXPECT_EQ((*listed)[k].full_flush, segments[k].full_flush);
    }

    for (uint64_t bound : bounds) {
      SCOPED_TRACE("cut " + std::to_string(cut) + " bound " +
                   std::to_string(bound));
      size_t usable = 0;
      while (usable < intact && segments[usable].tick <= bound) ++usable;
      StateTable restored(layout);
      fill(&restored, 3);  // stale contents Restore must not leak
      auto image = store.Restore(&restored, bound);
      if (usable == 0 && bound < gen0_flush.tick) {
        // Nothing qualifies: NotFound, table left cleared.
        ASSERT_EQ(image.status().code(), StatusCode::kNotFound);
        EXPECT_TRUE(restored.ContentEquals(StateTable(layout)));
        continue;
      }
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      StateTable expected(layout);
      if (usable == 0) {
        // Newest full flush torn or past the bound: generation 0.
        for (ObjectId id : gen0_flush.ids) {
          expected.LoadObject(id, gen0.ObjectData(id));
        }
        EXPECT_EQ(image->seq, gen0_flush.seq);
        EXPECT_EQ(image->consistent_tick, gen0_flush.tick);
      } else {
        for (size_t k = 0; k < usable; ++k) {
          for (ObjectId id : segments[k].ids) {
            expected.LoadObject(id, snapshots[k].ObjectData(id));
          }
        }
        EXPECT_EQ(image->seq, segments[usable - 1].seq);
        EXPECT_EQ(image->consistent_tick, segments[usable - 1].tick);
      }
      EXPECT_TRUE(restored.ContentEquals(expected));
    }
  }
}

TEST_F(StoreTest, LogicalLogRoundTrip) {
  const std::string path = dir_ + "/logical.log";
  ASSERT_TRUE(EnsureDirectory(dir_).ok());
  {
    auto log_or = LogicalLog::Create(path, 1);
    ASSERT_TRUE(log_or.ok());
    auto& log = *log_or.value();
    std::vector<CellUpdate> t0 = {{0, 10}, {5, 50}};
    std::vector<CellUpdate> t1 = {};  // empty tick is legal
    std::vector<CellUpdate> t2 = {{0, 11}, {9, 90}};
    ASSERT_TRUE(log.AppendTick(0, t0).ok());
    ASSERT_TRUE(log.AppendTick(1, t1).ok());
    ASSERT_TRUE(log.AppendTick(2, t2).ok());
    EXPECT_EQ(log.ticks_appended(), 3u);
    ASSERT_TRUE(log.Close().ok());
  }
  auto count = LogicalLog::CountDurableTicks(path);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 3u);

  StateTable table(layout_);
  auto stats = LogicalLog::Replay(path, 0, UINT64_MAX, &table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, 3u);
  EXPECT_EQ(stats->last_tick, 2u);
  EXPECT_EQ(table.ReadCell(0), 11);  // overwritten by tick 2
  EXPECT_EQ(table.ReadCell(5), 50);
  EXPECT_EQ(table.ReadCell(9), 90);
}

TEST_F(StoreTest, LogicalLogRangeFilter) {
  const std::string path = dir_ + "/logical.log";
  ASSERT_TRUE(EnsureDirectory(dir_).ok());
  {
    auto log_or = LogicalLog::Create(path, 1);
    ASSERT_TRUE(log_or.ok());
    for (uint64_t t = 0; t < 5; ++t) {
      std::vector<CellUpdate> updates = {
          {static_cast<uint32_t>(t), static_cast<int32_t>(t + 100)}};
      ASSERT_TRUE(log_or.value()->AppendTick(t, updates).ok());
    }
    ASSERT_TRUE(log_or.value()->Close().ok());
  }
  StateTable table(layout_);
  auto stats = LogicalLog::Replay(path, 2, 3, &table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, 2u);
  EXPECT_EQ(table.ReadCell(0), 0);    // tick 0 excluded
  EXPECT_EQ(table.ReadCell(2), 102);  // tick 2 included
  EXPECT_EQ(table.ReadCell(3), 103);  // tick 3 included
  EXPECT_EQ(table.ReadCell(4), 0);    // tick 4 excluded
}

TEST_F(StoreTest, LogicalLogTornTailStopsReplay) {
  const std::string path = dir_ + "/logical.log";
  ASSERT_TRUE(EnsureDirectory(dir_).ok());
  {
    auto log_or = LogicalLog::Create(path, 1);
    ASSERT_TRUE(log_or.ok());
    std::vector<CellUpdate> updates = {{1, 5}};
    ASSERT_TRUE(log_or.value()->AppendTick(0, updates).ok());
    ASSERT_TRUE(log_or.value()->AppendTick(1, updates).ok());
    ASSERT_TRUE(log_or.value()->Close().ok());
  }
  // Truncate mid-way through the second record (simulated torn write).
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  bytes.resize(bytes.size() - 5);
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());

  StateTable table(layout_);
  auto stats = LogicalLog::Replay(path, 0, UINT64_MAX, &table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, 1u);
  EXPECT_EQ(stats->last_tick, 0u);
}

TEST_F(StoreTest, LogicalLogGroupCommitWindow) {
  const std::string path = dir_ + "/logical.log";
  ASSERT_TRUE(EnsureDirectory(dir_).ok());
  auto log_or = LogicalLog::Create(path, /*sync_every=*/4);
  ASSERT_TRUE(log_or.ok());
  std::vector<CellUpdate> updates = {{1, 5}};
  for (uint64_t t = 0; t < 10; ++t) {
    ASSERT_TRUE(log_or.value()->AppendTick(t, updates).ok());
  }
  // Records are buffered; before Close/Sync only whole group commits are
  // guaranteed durable. After Close, all 10 are.
  ASSERT_TRUE(log_or.value()->Close().ok());
  auto count = LogicalLog::CountDurableTicks(path);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 10u);
}

}  // namespace
}  // namespace tickpoint
