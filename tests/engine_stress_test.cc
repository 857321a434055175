// Concurrency stress tests: hammer the copy-on-update protocol (mutator
// saving pre-images vs writer reading live objects under per-object locks)
// and verify that every produced checkpoint is a consistent tick-boundary
// image. These are the races the paper's Olock models.
#include <gtest/gtest.h>

#include <filesystem>

#include "engine/engine.h"
#include "engine/mutator.h"
#include "engine/recovery.h"
#include "engine_test_util.h"
#include "trace/zipf_source.h"

namespace tickpoint {
namespace {

class EngineStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name = ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    for (auto& c : name) {
      if (c == '/') c = '_';
    }
    dir_ = (std::filesystem::temp_directory_path() / ("tp_stress_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// A trace that rewrites the SAME few hot objects every tick -- maximal
// contention between the mutator's pre-image copies and the writer's live
// reads, sustained across many checkpoints.
class HotspotSource : public UpdateSource {
 public:
  HotspotSource(const StateLayout& layout, uint64_t ticks,
                uint64_t updates_per_tick, uint64_t hot_cells)
      : layout_(layout),
        ticks_(ticks),
        updates_per_tick_(updates_per_tick),
        hot_cells_(hot_cells) {}

  const StateLayout& layout() const override { return layout_; }
  uint64_t num_ticks() const override { return ticks_; }
  void Reset() override { tick_ = 0; }
  bool NextTick(std::vector<TraceCell>* cells) override {
    if (tick_ >= ticks_) return false;
    ++tick_;
    cells->clear();
    for (uint64_t i = 0; i < updates_per_tick_; ++i) {
      cells->push_back(static_cast<TraceCell>((tick_ * 31 + i) % hot_cells_));
    }
    return true;
  }

 private:
  StateLayout layout_;
  uint64_t ticks_;
  uint64_t updates_per_tick_;
  uint64_t hot_cells_;
  uint64_t tick_ = 0;
};

class HotspotStressTest
    : public EngineStressTest,
      public ::testing::WithParamInterface<AlgorithmKind> {};

TEST_P(HotspotStressTest, HotObjectContentionKeepsImagesConsistent) {
  const StateLayout layout = StateLayout::Small(2048, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = GetParam();
  config.dir = dir_;
  config.fsync = false;
  config.full_flush_period = 3;

  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();

  // 2,000 updates per tick into 512 cells (4 atomic objects): the writer
  // and the mutator collide on the same objects checkpoint after
  // checkpoint. At least 120 ticks back to back, then on until two
  // checkpoints completed, which a busy machine may delay; the trace
  // length bounds the run.
  HotspotSource source(layout, 2000, 2000, 512);
  const auto two_done = [&] {
    return engine.metrics().checkpoints.size() >= 2;
  };
  auto ticks_or = RunWorkloadUntil(&engine, &source, 120, two_done);
  ASSERT_TRUE(ticks_or.ok());
  ASSERT_TRUE(engine.SimulateCrash().ok());
  ASSERT_GE(engine.metrics().checkpoints.size(), 2u);

  StateTable reference(layout);
  ApplyWorkloadToTable(&source, ticks_or.value(), &reference);
  ASSERT_TRUE(engine.state().ContentEquals(reference));

  StateTable recovered(layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(recovered.ContentEquals(reference))
      << AlgorithmName(GetParam())
      << ": hot-object contention corrupted a checkpoint image";
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, HotspotStressTest,
                         ::testing::ValuesIn(AllAlgorithms()),
                         [](const auto& info) {
                           std::string name =
                               GetTraits(info.param).short_name;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_F(EngineStressTest, ManySmallCheckpointsUnderSustainedLoad) {
  // Long run with a tiny state: dozens of complete checkpoint cycles with
  // continuous updates; final state and a post-crash recovery must both
  // match the reference.
  const StateLayout layout = StateLayout::Small(512, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = AlgorithmKind::kCopyOnUpdate;
  config.dir = dir_;
  config.fsync = false;

  // At least 400 ticks back to back, then on until ten checkpoints
  // completed, which a busy machine may delay; the trace length bounds
  // the run.
  ZipfTraceConfig trace;
  trace.layout = layout;
  trace.num_ticks = 4000;
  trace.updates_per_tick = 300;
  trace.theta = 0.9;
  trace.seed = 3;

  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  Engine& engine = *engine_or.value();
  ZipfUpdateSource source(trace);
  const auto ten_done = [&] {
    return engine.metrics().checkpoints.size() >= 10;
  };
  auto ticks_or = RunWorkloadUntil(&engine, &source, 400, ten_done);
  ASSERT_TRUE(ticks_or.ok());
  ASSERT_TRUE(engine.SimulateCrash().ok());
  EXPECT_GE(engine.metrics().checkpoints.size(), 10u);

  StateTable reference(layout);
  ApplyWorkloadToTable(&source, ticks_or.value(), &reference);
  StateTable recovered(layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(recovered.ContentEquals(reference));
}

TEST_F(EngineStressTest, AlternatingBackupsConvergeOverManyCycles) {
  // After N checkpoints, both backup files must hold restorable images and
  // recovery must prefer the newer one.
  const StateLayout layout = StateLayout::Small(512, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = AlgorithmKind::kAtomicCopyDirty;
  config.dir = dir_;
  config.fsync = false;

  // Both images are written only once two checkpoints completed: at least
  // 200 ticks, then on until they did; the trace length bounds the run.
  ZipfTraceConfig trace;
  trace.layout = layout;
  trace.num_ticks = 2000;
  trace.updates_per_tick = 200;
  trace.theta = 0.7;

  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  ZipfUpdateSource source(trace);
  const auto two_done = [&] {
    return engine_or.value()->metrics().checkpoints.size() >= 2;
  };
  ASSERT_TRUE(
      RunWorkloadUntil(engine_or.value().get(), &source, 200, two_done).ok());
  ASSERT_TRUE(engine_or.value()->Shutdown().ok());

  auto store_or = BackupStore::Open(dir_, layout, false);
  ASSERT_TRUE(store_or.ok());
  ImageInfo infos[2];
  for (int i = 0; i < 2; ++i) {
    auto info = store_or.value()->Inspect(i);
    ASSERT_TRUE(info.ok());
    infos[i] = *info;
    EXPECT_TRUE(infos[i].valid) << "backup " << i;
  }
  EXPECT_NE(infos[0].seq, infos[1].seq);

  StateTable recovered(layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->image_seq, std::max(infos[0].seq, infos[1].seq));
  EXPECT_TRUE(recovered.ContentEquals(engine_or.value()->state()));
}

}  // namespace
}  // namespace tickpoint
