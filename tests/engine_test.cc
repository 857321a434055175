// End-to-end tests of the real checkpointing engine: the central property
// is that for EVERY algorithm and EVERY crash point, Recover() rebuilds
// exactly the state the engine held when it crashed.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>

#include "engine/mutator.h"
#include "engine/recovery.h"
#include "engine_test_util.h"
#include "trace/zipf_source.h"

namespace tickpoint {
namespace {

// 160 objects.
StateLayout TestLayout() { return StateLayout::Small(2048, 10); }

ZipfTraceConfig TraceConfig(uint64_t ticks, uint64_t updates_per_tick) {
  ZipfTraceConfig config;
  config.layout = TestLayout();
  config.num_ticks = ticks;
  config.updates_per_tick = updates_per_tick;
  config.theta = 0.6;
  config.seed = 1234;
  return config;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tp_engine_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name())))
               .string();
    // Parameterized test names contain '/', which breaks paths.
    for (auto& c : dir_) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / dir_).string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  EngineConfig Config(AlgorithmKind kind) {
    EngineConfig config;
    config.layout = TestLayout();
    config.algorithm = kind;
    config.dir = dir_;
    config.fsync = false;  // simulated crashes: page cache is "durable"
    config.full_flush_period = 3;
    return config;
  }

  std::string dir_;
};

TEST_F(EngineTest, RunsAndShutsDownCleanly) {
  auto engine_or = Engine::Open(Config(AlgorithmKind::kCopyOnUpdate));
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  ZipfUpdateSource source(TraceConfig(30, 200));
  auto report = RunWorkload(&engine, &source, MutatorOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ticks, 30u);
  EXPECT_FALSE(report->crashed);
  ASSERT_TRUE(engine.Shutdown().ok());
  EXPECT_EQ(engine.metrics().updates, 30u * 200u);
  // Tick 0 always starts a checkpoint and Shutdown waits for and records
  // the one in flight, so this holds however slow the writer is.
  EXPECT_GE(engine.metrics().checkpoints.size(), 1u);
}

TEST_F(EngineTest, StateMatchesReferenceExecution) {
  auto engine_or = Engine::Open(Config(AlgorithmKind::kDribble));
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  ZipfUpdateSource source(TraceConfig(25, 300));
  ASSERT_TRUE(RunWorkload(&engine, &source, MutatorOptions{}).ok());
  ASSERT_TRUE(engine.Shutdown().ok());

  StateTable reference(TestLayout());
  ApplyWorkloadToTable(&source, 25, &reference);
  EXPECT_TRUE(engine.state().ContentEquals(reference));
}

TEST_F(EngineTest, RecoverAfterCleanShutdownRebuildsFinalState) {
  const EngineConfig config = Config(AlgorithmKind::kCopyOnUpdate);
  uint32_t final_digest = 0;
  {
    auto engine_or = Engine::Open(config);
    ASSERT_TRUE(engine_or.ok());
    ZipfUpdateSource source(TraceConfig(40, 250));
    ASSERT_TRUE(RunWorkload(engine_or.value().get(), &source,
                            MutatorOptions{})
                    .ok());
    ASSERT_TRUE(engine_or.value()->Shutdown().ok());
    final_digest = engine_or.value()->state().Digest();
  }
  StateTable recovered(TestLayout());
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(recovered.Digest(), final_digest);
  EXPECT_EQ(result->recovered_ticks, 40u);
}

TEST_F(EngineTest, EarlyCrashRecoversFromLogicalLogAlone) {
  // Crash after tick 0: no checkpoint has completed. Recovery must rebuild
  // purely from the logical log on a zeroed table.
  const EngineConfig config = Config(AlgorithmKind::kNaiveSnapshot);
  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  ZipfUpdateSource source(TraceConfig(10, 100));
  MutatorOptions options;
  options.crash_after_tick = 0;
  auto report = RunWorkload(&engine, &source, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->crashed);

  StateTable recovered(TestLayout());
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->recovered_ticks, 1u);
  EXPECT_TRUE(recovered.ContentEquals(engine.state()));
}

TEST_F(EngineTest, ChecksummedSnapshotSurvivesRestore) {
  EngineConfig config = Config(AlgorithmKind::kNaiveSnapshot);
  config.checksum_state = true;
  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  ZipfUpdateSource source(TraceConfig(20, 150));
  ASSERT_TRUE(RunWorkload(&engine, &source, MutatorOptions{}).ok());
  ASSERT_TRUE(engine.Shutdown().ok());
  // Holds however slow the writer is: see RunsAndShutsDownCleanly.
  ASSERT_GE(engine.metrics().checkpoints.size(), 1u);

  StateTable recovered(TestLayout());
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->restored_from_checkpoint);
  EXPECT_TRUE(recovered.ContentEquals(engine.state()));
}

TEST_F(EngineTest, EagerCheckpointsRecordPauses) {
  auto engine_or = Engine::Open(Config(AlgorithmKind::kNaiveSnapshot));
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  ZipfUpdateSource source(TraceConfig(20, 100));
  ASSERT_TRUE(RunWorkload(&engine, &source, MutatorOptions{}).ok());
  ASSERT_TRUE(engine.Shutdown().ok());
  for (const auto& record : engine.metrics().checkpoints) {
    EXPECT_GT(record.sync_seconds, 0.0);
    EXPECT_GT(record.async_seconds, 0.0);
    EXPECT_TRUE(record.all_objects);
    EXPECT_EQ(record.objects_written, TestLayout().num_objects());
  }
  // Naive-Snapshot never copies on update.
  EXPECT_EQ(engine.metrics().cou_copies, 0u);
}

TEST_F(EngineTest, CopyOnUpdateCopiesAreBounded) {
  auto engine_or = Engine::Open(Config(AlgorithmKind::kCopyOnUpdate));
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  ZipfUpdateSource source(TraceConfig(40, 400));
  ASSERT_TRUE(RunWorkload(&engine, &source, MutatorOptions{}).ok());
  ASSERT_TRUE(engine.Shutdown().ok());
  // Per checkpoint, at most one pre-image copy per member object; across
  // the run, copies can never exceed checkpoints * objects.
  const uint64_t n = TestLayout().num_objects();
  EXPECT_LE(engine.metrics().cou_copies,
            (engine.metrics().checkpoints.size() + 1) * n);
  EXPECT_GT(engine.metrics().updates, 0u);
}

TEST_F(EngineTest, PartialRedoWritesFullFlushEveryC) {
  auto engine_or = Engine::Open(Config(AlgorithmKind::kPartialRedo));
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  // At least 60 ticks, then on until four checkpoints completed, one of
  // them a partial flush: the writer may finish fewer in 60 ticks on a
  // busy machine, and while it lags behind back-to-back ticks every
  // incremental window dirties every object. The trace length bounds the
  // run.
  ZipfUpdateSource source(TraceConfig(2000, 200));
  const auto four_done_one_partial = [&] {
    const auto& records = engine.metrics().checkpoints;
    return records.size() >= 4 &&
           std::any_of(records.begin(), records.end(), [](const auto& r) {
             return !r.full_flush &&
                    r.objects_written < TestLayout().num_objects();
           });
  };
  ASSERT_TRUE(
      RunWorkloadUntil(&engine, &source, 60, four_done_one_partial).ok());
  ASSERT_TRUE(engine.Shutdown().ok());
  ASSERT_GE(engine.metrics().checkpoints.size(), 4u);
  uint64_t prev_start = 0;
  bool some_partial = false;
  for (const auto& record : engine.metrics().checkpoints) {
    EXPECT_EQ(record.full_flush, record.seq % 3 == 0) << record.seq;
    if (!record.full_flush) {
      // An incremental flush covers the objects dirtied in
      // [prev start, this start). Interval 0 restarts checkpoints
      // back-to-back, so that window is normally a tick or two -- but on
      // a loaded machine one flush can straddle enough ticks that every
      // object is legitimately dirty, so only narrow windows must come
      // out partial.
      if (record.start_tick - prev_start <= 2) {
        EXPECT_LT(record.objects_written, TestLayout().num_objects())
            << record.seq;
      }
      some_partial |= record.objects_written < TestLayout().num_objects();
    }
    prev_start = record.start_tick;
  }
  EXPECT_TRUE(some_partial);
}

TEST_F(EngineTest, CutEndTickStampsItsAckAndTheWriterFinishesIt) {
  EngineConfig config = Config(AlgorithmKind::kCopyOnUpdate);
  config.manual_checkpoints = true;
  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  const auto run_tick = [&engine](bool cut) {
    const uint64_t tick = engine.current_tick();
    engine.BeginTick();
    engine.ApplyUpdate(static_cast<uint32_t>(tick % 10),
                       static_cast<int32_t>(tick));
    if (cut) engine.RequestCutCheckpoint();
    return engine.EndTick();
  };
  for (int t = 0; t < 3; ++t) ASSERT_TRUE(run_tick(false).ok());
  constexpr uint64_t kCutTick = 3;
  EXPECT_FALSE(engine.CutAckAt(kCutTick).has_value());
  EXPECT_EQ(engine.checkpoints_finished(), 0u);

  // The cut EndTick publishes the ack before it returns; the image is
  // durable once the writer's finished count passes the ack's seq.
  ASSERT_TRUE(run_tick(true).ok());
  const std::optional<Engine::CutAck> ack = engine.CutAckAt(kCutTick);
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(engine.CutAckAt(kCutTick - 1).has_value());
  EXPECT_FALSE(engine.CutAckAt(kCutTick + 1).has_value());
  ASSERT_TRUE(engine.WaitForCheckpoint(ack->seq).ok());
  EXPECT_GT(engine.checkpoints_finished(), ack->seq);

  // The next EndTick finalizes the record the ack names.
  ASSERT_TRUE(run_tick(false).ok());
  const auto& records = engine.metrics().checkpoints;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].cut);
  EXPECT_EQ(records[0].start_tick, kCutTick);
  EXPECT_EQ(records[0].seq, ack->seq);
  EXPECT_EQ(records[0].consistent_ticks, kCutTick + 1);
  EXPECT_EQ(records[0].cut_stall_seconds, ack->stall_seconds);
  EXPECT_GT(engine.checkpoints_finished(), records[0].seq);

  // A later cut restamps the slot with its own tick and seq.
  ASSERT_TRUE(run_tick(true).ok());
  const std::optional<Engine::CutAck> second = engine.CutAckAt(kCutTick + 2);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->seq, ack->seq + 1);
  EXPECT_FALSE(engine.CutAckAt(kCutTick).has_value());
  ASSERT_TRUE(engine.WaitForCheckpoint(second->seq).ok());
  EXPECT_GT(engine.checkpoints_finished(), second->seq);
  ASSERT_TRUE(engine.Shutdown().ok());
}

TEST_F(EngineTest, PacedRunHoldsTickRate) {
  auto engine_or = Engine::Open(Config(AlgorithmKind::kCopyOnUpdate));
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  ZipfUpdateSource source(TraceConfig(20, 50));
  MutatorOptions options;
  options.tick_hz = 200.0;  // 5 ms ticks: fast but schedulable
  options.query_reads_per_tick = 100;
  auto report = RunWorkload(&engine, &source, options);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(engine.Shutdown().ok());
  // 20 ticks at 5 ms = 100 ms minimum.
  EXPECT_GE(report->wall_seconds, 0.095);
}

// ---- The crash-recovery property, across algorithms and crash points ----

struct CrashCase {
  AlgorithmKind kind;
  uint64_t crash_tick;
};

class CrashRecoveryTest : public EngineTest,
                          public ::testing::WithParamInterface<CrashCase> {
 protected:
  void SetUp() override { EngineTest::SetUp(); }
};

TEST_P(CrashRecoveryTest, RecoveredStateEqualsStateAtCrash) {
  const CrashCase param = GetParam();
  const EngineConfig config = Config(param.kind);
  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();

  ZipfUpdateSource source(TraceConfig(40, 300));
  MutatorOptions options;
  options.crash_after_tick = param.crash_tick;
  auto report = RunWorkload(&engine, &source, options);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->crashed);

  // Reference: the same workload applied to a bare table up to the crash.
  StateTable reference(TestLayout());
  ApplyWorkloadToTable(&source, param.crash_tick + 1, &reference);
  ASSERT_TRUE(engine.state().ContentEquals(reference))
      << "engine diverged from reference before the crash";

  StateTable recovered(TestLayout());
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->recovered_ticks, param.crash_tick + 1);
  EXPECT_TRUE(recovered.ContentEquals(reference))
      << AlgorithmName(param.kind) << " crash@" << param.crash_tick
      << ": recovered state diverges";
}

std::string CrashCaseName(const ::testing::TestParamInfo<CrashCase>& info) {
  return std::string(GetTraits(info.param.kind).short_name) + "_tick" +
         std::to_string(info.param.crash_tick);
}

std::vector<CrashCase> AllCrashCases() {
  std::vector<CrashCase> cases;
  for (AlgorithmKind kind : AllAlgorithms()) {
    for (uint64_t tick : {2ull, 9ull, 23ull, 38ull}) {
      cases.push_back({kind, tick});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsAllCrashPoints, CrashRecoveryTest,
                         ::testing::ValuesIn(AllCrashCases()),
                         [](const auto& info) {
                           std::string name = CrashCaseName(info);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace tickpoint
