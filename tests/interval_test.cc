// Tests for the checkpoint-interval scheduling extension (simulator and
// real engine).
#include <gtest/gtest.h>

#include <filesystem>

#include "core/sim_executor.h"
#include "engine/mutator.h"
#include "engine/recovery.h"
#include "engine_test_util.h"
#include "sim/simulator.h"
#include "trace/zipf_source.h"

namespace tickpoint {
namespace {

TEST(IntervalSimTest, ZeroIntervalIsBackToBack) {
  // Default behavior unchanged: checkpoints chain as soon as one drains.
  SimParams back_to_back;
  SimParams spaced;
  spaced.checkpoint_interval_ticks = 60;
  const StateLayout layout = StateLayout::Small(4096, 10);
  CheckpointSim fast(AlgorithmKind::kNaiveSnapshot, layout,
                     HardwareParams::Paper(), back_to_back);
  CheckpointSim slow(AlgorithmKind::kNaiveSnapshot, layout,
                     HardwareParams::Paper(), spaced);
  for (int t = 0; t < 120; ++t) {
    fast.BeginTick();
    fast.EndTick();
    slow.BeginTick();
    slow.EndTick();
  }
  // The small state checkpoints within a tick: back-to-back yields ~one
  // checkpoint per tick; the spaced one starts only every 60 ticks.
  EXPECT_GT(fast.metrics().checkpoints.size(), 100u);
  EXPECT_LE(slow.metrics().checkpoints.size(), 3u);
}

TEST(IntervalSimTest, StartsRespectMinimumSpacing) {
  SimParams params;
  params.checkpoint_interval_ticks = 25;
  CheckpointSim sim(AlgorithmKind::kCopyOnUpdate, StateLayout::Small(4096, 10),
                    HardwareParams::Paper(), params);
  for (int t = 0; t < 200; ++t) {
    sim.BeginTick();
    sim.OnObjectUpdate(static_cast<ObjectId>(t % 320));
    sim.EndTick();
  }
  const auto& checkpoints = sim.metrics().checkpoints;
  ASSERT_GE(checkpoints.size(), 3u);
  for (size_t i = 1; i < checkpoints.size(); ++i) {
    EXPECT_GE(checkpoints[i].start_tick,
              checkpoints[i - 1].start_tick + 25)
        << "checkpoints " << i - 1 << " and " << i;
  }
}

TEST(IntervalSimTest, IntervalLowersOverheadRaisesRecovery) {
  ZipfTraceConfig trace;
  trace.layout = StateLayout::Paper();
  trace.num_ticks = 150;
  trace.updates_per_tick = 16000;
  trace.theta = 0.8;

  SimulationOptions dense;
  SimulationOptions sparse;
  sparse.params.checkpoint_interval_ticks = 90;

  ZipfUpdateSource source_a(trace);
  auto dense_results =
      RunSimulation(dense, {AlgorithmKind::kCopyOnUpdate}, &source_a);
  ZipfUpdateSource source_b(trace);
  auto sparse_results =
      RunSimulation(sparse, {AlgorithmKind::kCopyOnUpdate}, &source_b);

  EXPECT_LT(sparse_results[0].avg_overhead_seconds,
            dense_results[0].avg_overhead_seconds);
  EXPECT_GT(sparse_results[0].recovery_seconds,
            dense_results[0].recovery_seconds);
}

TEST(IntervalEngineTest, EngineHonorsIntervalAndStillRecovers) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tp_interval_engine")
          .string();
  std::filesystem::remove_all(dir);
  const StateLayout layout = StateLayout::Small(1024, 10);
  EngineConfig config;
  config.layout = layout;
  config.algorithm = AlgorithmKind::kCopyOnUpdate;
  config.dir = dir;
  config.fsync = false;
  config.checkpoint_interval_ticks = 10;

  // At least 40 ticks, then on until two checkpoints completed: the
  // writer thread may finish fewer in 40 ticks on a busy machine. The
  // trace length bounds the run.
  ZipfTraceConfig trace;
  trace.layout = layout;
  trace.num_ticks = 2000;
  trace.updates_per_tick = 100;
  trace.theta = 0.7;

  auto engine_or = Engine::Open(config);
  ASSERT_TRUE(engine_or.ok());
  ZipfUpdateSource source(trace);
  Engine& engine = *engine_or.value();
  const auto& checkpoints = engine.metrics().checkpoints;
  const auto two_done = [&] { return checkpoints.size() >= 2; };
  ASSERT_TRUE(RunWorkloadUntil(&engine, &source, 40, two_done).ok());
  ASSERT_TRUE(engine.SimulateCrash().ok());

  ASSERT_GE(checkpoints.size(), 2u);
  for (size_t i = 1; i < checkpoints.size(); ++i) {
    EXPECT_GE(checkpoints[i].start_tick, checkpoints[i - 1].start_tick + 10);
  }

  StateTable recovered(layout);
  auto result = Recover(config, &recovered);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(recovered.ContentEquals(engine_or.value()->state()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tickpoint
